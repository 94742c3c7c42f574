"""Spans around the public functions of each ``pwlrotor`` layer.

The traced run wraps functions from the benchmark's side; the program is
not changed.  Several modules bind the same function by ``from ... import``
(``rotation.compose``, ``conjugacy.power``, ``cli.r1``, ...) and ``power``
reaches ``compose`` through ``lift``'s own globals, so :func:`install`
replaces the function under every name in every ``pwlrotor`` module that
binds it.  Replacing only the defining module would lose those spans
without any error.

A span records its duration, the time its child spans cover (self time is
the difference), and how many spans of each name ran directly under it and
anywhere under it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

#: (span name, module, attribute).  ``FamilySpec.lift`` is a method.
TARGETS = (
    ("kernel.iterate", "pwlrotor.kernel", "iterate"),
    ("rotation.birkhoff_enclosure", "pwlrotor.rotation", "birkhoff_enclosure"),
    ("rotation.exact_rotation", "pwlrotor.rotation", "exact_rotation"),
    ("rotation.mode_lock_interval", "pwlrotor.rotation", "mode_lock_interval"),
    ("lift.compose", "pwlrotor.lift", "compose"),
    ("lift.power", "pwlrotor.lift", "power"),
    ("lift.invert", "pwlrotor.lift", "invert"),
    ("lift.canonicalize", "pwlrotor.lift", "canonicalize"),
    ("conjugacy.is_conjugate_to_rigid", "pwlrotor.conjugacy", "is_conjugate_to_rigid"),
    ("conjugacy.break_orbit_partition", "pwlrotor.conjugacy", "break_orbit_partition"),
    ("conjugacy.build_conjugacy", "pwlrotor.conjugacy", "build_conjugacy"),
    ("conjugacy.invariant_density", "pwlrotor.conjugacy", "invariant_density"),
    ("conjugacy.verify_invariance", "pwlrotor.conjugacy", "verify_invariance"),
    ("families.lift", "pwlrotor.families", "FamilySpec.lift"),
    ("families.family_from_json", "pwlrotor.families", "family_from_json"),
    ("scaling.r1", "pwlrotor.scaling", "r1"),
    ("scaling.scaling_residual", "pwlrotor.scaling", "scaling_residual"),
    ("scaling.pinch_boundaries", "pwlrotor.scaling", "pinch_boundaries"),
    ("cli.main", "pwlrotor.cli", "main"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    direct: Counter = field(default_factory=Counter)
    nested: Counter = field(default_factory=Counter)
    extra: Counter = field(default_factory=Counter)


class _Frame:
    __slots__ = ("child_s", "direct", "nested")

    def __init__(self):
        self.child_s = 0.0
        self.direct = Counter()
        self.nested = Counter()


def _kernel_steps(st, args, kwargs, result):
    st.extra["steps"] += kwargs["m"] if "m" in kwargs else args[4]


def _compose_pieces(st, args, kwargs, result):
    st.extra["pieces"] += result.n
    st.extra["pieces_max"] = max(st.extra["pieces_max"], result.n)


_MEASURES = {"kernel.iterate": _kernel_steps, "lift.compose": _compose_pieces}


class Tracer:
    """Aggregated spans, keyed by span name."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def wrap(self, name, fn):
        stack = self._stack
        st = self.stats.setdefault(name, SpanStats())
        measure = _MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.self_s += dt - frame.child_s
                st.direct.update(frame.direct)
                st.nested.update(frame.nested)
                if stack:
                    parent = stack[-1]
                    parent.child_s += dt
                    parent.direct[name] += 1
                    parent.nested[name] += 1
                    parent.nested.update(frame.nested)
            if measure is not None:
                measure(st, args, kwargs, result)
            return result

        return span


def install(tracer):
    """Wrap every target under every name that binds it; returns an undo."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "pwlrotor" or n.startswith("pwlrotor."))]
    for name, modname, attr in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:  # a method: patch the class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def restore():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return restore


def _per_call(st, count):
    return count / st.calls if st.calls else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced round, by name (``trace.*`` excluded)."""
    s = {name: tracer.stats.get(name, SpanStats()) for name, _, _ in TARGETS}
    k = s["kernel.iterate"]
    out = {
        "kernel.iterate.calls": k.calls,
        "kernel.iterate.steps": k.extra["steps"],
        "kernel.iterate.self_s": k.self_s,
        "kernel.iterate.steps_per_s": k.extra["steps"] / k.self_s if k.self_s else 0.0,
        "rotation.exact_rotation.depth": _per_call(
            s["rotation.exact_rotation"], s["rotation.exact_rotation"].direct["lift.compose"]),
        "rotation.mode_lock_interval.probes": _per_call(
            s["rotation.mode_lock_interval"], s["rotation.mode_lock_interval"].direct["lift.power"]),
        "lift.compose.pieces": s["lift.compose"].extra["pieces"],
        "lift.compose.pieces_max": s["lift.compose"].extra["pieces_max"],
        "scaling.r1.certifications_per_call": _per_call(
            s["scaling.r1"], s["scaling.r1"].nested["rotation.exact_rotation"]),
        "scaling.r1.birkhoff_per_call": _per_call(
            s["scaling.r1"], s["scaling.r1"].nested["rotation.birkhoff_enclosure"]),
        "scaling.scaling_residual.birkhoff_per_call": _per_call(
            s["scaling.scaling_residual"],
            s["scaling.scaling_residual"].nested["rotation.birkhoff_enclosure"]),
    }
    for name in ("rotation.birkhoff_enclosure", "rotation.exact_rotation",
                 "rotation.mode_lock_interval", "lift.compose", "lift.power",
                 "conjugacy.break_orbit_partition", "families.lift",
                 "families.family_from_json", "cli.main"):
        out[name + ".calls"] = s[name].calls
    for name in ("rotation.birkhoff_enclosure", "rotation.exact_rotation",
                 "rotation.mode_lock_interval", "lift.compose", "lift.power", "lift.invert",
                 "lift.canonicalize", "conjugacy.is_conjugate_to_rigid",
                 "conjugacy.build_conjugacy", "conjugacy.invariant_density",
                 "conjugacy.verify_invariance", "families.lift", "families.family_from_json",
                 "scaling.r1", "scaling.scaling_residual", "scaling.pinch_boundaries",
                 "cli.main"):
        out[name + ".self_s"] = s[name].self_s
    return out
