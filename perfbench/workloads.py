"""The three workloads: ``staircase``, ``scaling`` and ``certify``.

Each workload has two halves.  ``generate(seed)`` draws the inputs with the
benchmark's own code and never touches the program.  ``build(pr, inputs,
workdir)`` turns them into families, lifts and job files through the
program's constructors (this is what ``setup_s`` times) and returns the
jobs.  A job's ``run`` calls the program through its public API or through
``pwlrotor.cli.main`` with ``--workers 1`` and returns the raw answer;
its ``check`` validates that answer against :mod:`oracles` and raises
:class:`checks.CheckFailed` when it is wrong.  Only ``run`` is timed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import checks, oracles

SQRT2 = math.sqrt(2.0)


def critical_beta(alpha):
    """beta at which the refraction break orbit closes (rho = 4/5 at mu = 0).

    The positive root of (alpha-1) beta^2 + alpha (alpha-1) beta - alpha^2;
    computed here because inputs are generated before the program is imported.
    """
    return (-alpha + math.sqrt(alpha * alpha * (alpha + 3) / (alpha - 1))) / 2


BETA_C = critical_beta(2.0)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class ProgramError(RuntimeError):
    """The program refused a job (non-zero CLI exit code)."""


def _cli(pr, workdir, name, command, config):
    """A job runner for one CLI invocation; returns the output text."""
    cfg_path = Path(workdir) / ("%s.json" % name)
    out_path = Path(workdir) / ("%s.out" % name)
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--workers", "1", "-o", str(out_path)]

    def run():
        code = pr.cli.main(argv)
        if code != 0:
            raise ProgramError("pwl-rotor %s exited with %d" % (command, code))
        return out_path.read_text()

    return run


def _grid_through_zero(rng, points, below, span):
    """``(mu_min, mu_max)`` of a grid of ``points`` values with one at 0.

    A share drawn from ``below`` of the intervals lies left of 0, and the
    grid's width is drawn from ``span``.
    """
    k = round((points - 1) * rng.uniform(*below))
    step = rng.uniform(*span) / (points - 1)
    return -k * step, (points - 1 - k) * step


# ------------------------------------------------------------- staircase

def staircase_generate(seed, small=False):
    rng = random.Random(seed)
    points = 21 if small else 301
    m = 1000
    lo, hi = _grid_through_zero(rng, points, (1 / 3, 2 / 3), (0.12, 0.18))
    sweeps = [dict(name="herman_sqrt2", family=("herman_shifted", SQRT2), mu_min=lo, mu_max=hi,
                   points=points, m=m, increasing=True, rho_c=Fraction(1, 2))]
    # The README's sweep job, at a short orbit length.
    sweeps.append(dict(name="herman_1.5", family=("herman_shifted", 1.5), mu_min=-0.2,
                       mu_max=0.2, points=41 if small else 401, m=m, increasing=True,
                       rho_c=Fraction(1, 2)))
    # Across the 5/6 lock (mu in about [-0.114, -0.105]) and the 4/5 point at 0.
    lo, hi = _grid_through_zero(rng, points, (0.67, 0.77), (0.18, 0.20))
    sweeps.append(dict(name="refraction", family=("refraction", BETA_C), mu_min=lo, mu_max=hi,
                       points=points, m=m, increasing=False, rho_c=Fraction(4, 5)))
    coelho = []
    while len(coelho) < (4 if small else 24):
        a, b = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        if abs(a + b - 1) > 0.05:  # a + b = 1 is the rigid rotation by a
            coelho.append((a, b))
    return {"sweeps": sweeps, "coelho": coelho, "coelho_m": 10_000}


def _family_json(pr, spec):
    kind, param = spec
    if kind == "herman_shifted":
        return pr.herman_shifted(param).to_json()
    return pr.refraction(2.0, param).to_json()


def staircase_build(pr, inputs, workdir):
    jobs = []
    for s in inputs["sweeps"]:
        config = {"family": _family_json(pr, s["family"]), "mu_min": s["mu_min"],
                  "mu_max": s["mu_max"], "points": s["points"], "m": s["m"]}
        run = _cli(pr, workdir, "sweep_" + s["name"], "sweep", config)

        def check(text, s=s):
            checks.check_sweep(checks.parse_csv_rows(text), s["m"], s["increasing"],
                               0.0, s["rho_c"], s["points"])

        jobs.append(Job("sweep:" + s["name"], run, check))
    m = inputs["coelho_m"]
    for a, b in inputs["coelho"]:
        f = pr.coelho(a, b).lift(0.0)

        def run(f=f):
            enc = pr.birkhoff_enclosure(f, m)
            return enc.lo, enc.hi

        def check(ans, a=a, b=b):
            checks.check_coelho_enclosure(a, b, ans[0], ans[1], m)

        jobs.append(Job("coelho(%.6f, %.6f)" % (a, b), run, check))
    return jobs


# --------------------------------------------------------------- scaling

def scaling_generate(seed, small=False):
    rng = random.Random(seed)
    m_fit = 50_000 if small else 100_000
    # Both halves of each residual window lie above the floor sqrt(12.5/m)
    # the method states (0.0158 at m = 50000).
    windows = (0.08, 0.04)
    # A fixed grid of |delta|, so the certification work per round is the same
    # for every seed; the seed picks the side of mu_c for each.
    offsets = [rng.choice((-1, 1)) * d for d in (4e-3, 7e-3, 1.2e-2, 2e-2)[:2 if small else 4]]
    return {
        "m_fit": m_fit,
        "h_fit": 1e-3,
        "samples": 8,
        "windows": windows,
        "rho_offsets": offsets,
        "rho_m": 10_000 if small else 100_000,
        "rho_q_max": 500,
        "tight": (-0.05 * (1 + 0.5 * rng.random()), 0.05 * (1 + 0.5 * rng.random())),
        "wide": (1.10 - BETA_C - 0.01 * rng.random(), 1.20 - BETA_C + 0.01 * rng.random()),
    }


# (name, family spec, rho = p/q at mu_c = 0, R1 reference, sign of d rho / d mu)
_SCALING_FAMILIES = (
    ("herman_sqrt2", ("herman_shifted", SQRT2), 1, 2, "herman", 1),
    ("refraction", ("refraction", BETA_C), 4, 5, "refraction", -1),
)


def scaling_build(pr, inputs, workdir):
    jobs = []
    h_fit, m_fit = inputs["h_fit"], inputs["m_fit"]
    fams = {name: _family_json(pr, spec) for name, spec, *_ in _SCALING_FAMILIES}
    for name, spec, p, q, kind, side in _SCALING_FAMILIES:
        for k, d in enumerate(inputs["rho_offsets"]):
            config = {"family": fams[name], "mu": d, "m": inputs["rho_m"],
                      "q_max": inputs["rho_q_max"]}
            run = _cli(pr, workdir, "rho_%s_%d" % (name, k), "rho", config)

            def check(text, p=p, q=q, s=side * (1 if d > 0 else -1)):
                out = json.loads(text)
                rot, bk = out["rotation"], out["birkhoff"]
                checks.check_rho_offset((Fraction(rot["lo"]), Fraction(rot["hi"])),
                                        (bk["lo"], bk["hi"]), p, q, s)

            jobs.append(Job("rho:%s%+.5f" % (name, d), run, check))
    for name, spec, p, q, kind, side in _SCALING_FAMILIES:
        runs = []
        for w in inputs["windows"]:
            config = {"family": fams[name], "mu_c": 0.0, "h_fit": h_fit, "m_fit": m_fit,
                      "window": w, "samples": inputs["samples"]}
            runs.append((w, _cli(pr, workdir, "scaling_%s_%g" % (name, w), "scaling", config)))

        def run(runs=runs):
            return [(w, r()) for w, r in runs]

        def check(outs, kind=kind, spec=spec):
            rows = []
            for w, text in outs:
                out = json.loads(text)
                rows.append({"R1": out["scaling"]["R1"], "R1_emp": out["scaling"]["R1_emp"],
                             "h_fit": out["scaling"]["fit_window"], "m_fit": m_fit,
                             "r2": out["residual"]["r2"], "window": w})
            checks.check_scaling_runs(rows, kind, lam=spec[1])

        jobs.append(Job("scaling:" + name, run, check))

    # The exactly rigid family x + 1/2 + mu, through the library: R1 = 1.
    rigid = pr.custom_family([Fraction(-1), Fraction(1)], [[Fraction(0)], [Fraction(0)]],
                             [[Fraction(-1, 2)], [Fraction(3, 2)]])

    def run_rigid():
        rep = pr.r1(rigid, Fraction(0), h_fit=h_fit, m_fit=m_fit)
        return rep.R1, rep.R1_emp, rep.fit_window

    jobs.append(Job("scaling:rigid", run_rigid,
                    lambda ans: checks.check_rigid_r1(ans[0], ans[1], ans[2], m_fit)))

    ref = fams["refraction"]
    tight = _cli(pr, workdir, "modelock_tight", "modelock",
                 {"family": ref, "p": 4, "q": 5, "bracket": list(inputs["tight"]), "tol": 1e-10})
    jobs.append(Job("modelock:4/5", tight,
                    lambda text: _check_lock(text, checks.check_tight_lock, 0.0, 1e-10)))
    wide = _cli(pr, workdir, "modelock_wide", "modelock",
                {"family": ref, "p": 5, "q": 6, "bracket": list(inputs["wide"]), "tol": 1e-7})
    jobs.append(Job("modelock:5/6", wide, lambda text: _check_lock(text, checks.check_wide_lock)))
    return jobs


def _check_lock(text, check, *args):
    out = json.loads(text)
    check(out["lo"], out["hi"], *args)


# --------------------------------------------------------------- certify

#: (p, q, pieces of h) for the conjugate maps; p is mirrored to q - p by seed.
_CONJUGATE_SHAPES = ((2, 5, 2), (2, 5, 4), (3, 8, 3), (5, 13, 4), (5, 13, 2),
                     (8, 21, 3), (13, 34, 2), (13, 34, 4))
#: Stern-Brocot depth of the coelho maps' closed-form rho at q_max = 64;
#: fixing it keeps the certification work per round the same for every seed.
_COELHO_DEPTH = 10
_COELHO_Q_MAX = 64


def certify_generate(seed, small=False):
    rng = random.Random(seed)
    shapes = _CONJUGATE_SHAPES[:2] if small else _CONJUGATE_SHAPES
    conj = []
    for p, q, pieces in shapes:
        if rng.random() < 0.5:
            p = q - p
        h = oracles.random_homeomorphism(rng, pieces, 97)
        breaks, values = oracles.conjugate_to_rotation(h, p, q)
        samples = [Fraction(rng.randrange(9973), 9973) for _ in range(16)]
        conj.append({"p": p, "q": q, "breaks": breaks, "values": values, "samples": samples})
    coelho = []
    while len(coelho) < (3 if small else 16):
        den = rng.randrange(17, 41)
        a, b = Fraction(rng.randrange(2, den - 1), den), Fraction(rng.randrange(2, den - 1), den)
        if a + b == 1 or a == b:  # rigid, or conjugate with rho = 1/2
            continue
        if oracles.stern_brocot_depth(oracles.coelho_rho(a, b), _COELHO_Q_MAX) == _COELHO_DEPTH:
            coelho.append((a, b))
    ks = rng.sample(range(50, 401), 3)
    d_grid = sorted([Fraction(s, k) for k in ks for s in (-1, 1)] + [Fraction(0)])
    return {"conjugate": conj, "coelho": coelho, "d_grid": d_grid, "tol": Fraction(1, 10**10)}


def certify_build(pr, inputs, workdir):
    jobs = []
    for c in inputs["conjugate"]:
        f = pr.make_lift(c["breaks"], c["values"])
        oracle = oracles.Lift(c["breaks"], c["values"])

        def run(f=f):
            v = pr.is_conjugate_to_rigid(f)
            verdict = (type(v).__name__, getattr(v, "p", None), getattr(v, "q", None))
            if not isinstance(v, pr.Conjugate):
                return verdict, None, None, None, None
            h = pr.build_conjugacy(f, partition=v.partition)
            defect = pr.verify_invariance(f, pr.invariant_density(f, q=v.q))
            return verdict, h.breaks, h.values, v.partition.orbits, defect

        def check(ans, c=c, oracle=oracle):
            checks.check_conjugate(oracle, c["p"], c["q"], *ans, c["samples"])

        jobs.append(Job("conjugate:%d/%d" % (c["p"], c["q"]), run, check))
    for a, b in inputs["coelho"]:
        f = pr.coelho(a, b).lift(0)
        oracle = oracles.Lift([Fraction(0), b], [a, Fraction(1)])

        def run(f=f):
            r = pr.exact_rotation(f, q_max=_COELHO_Q_MAX)
            return r.kind, r.p, r.q, r.witness, r.lo, r.hi

        def check(ans, a=a, b=b, oracle=oracle):
            checks.check_coelho_exact(oracle, a, b, *ans)

        jobs.append(Job("coelho(%s, %s)" % (a, b), run, check))
    config = {"family": {"family": "herman_offset", "params": {"lam": "1/2", "d": "0"}},
              "p": 1, "q": 2, "d_grid": [str(d) for d in inputs["d_grid"]],
              "mu_bracket": ["-1/10", "1/10"], "tol": str(inputs["tol"])}
    run = _cli(pr, workdir, "pinch", "pinch", config)
    jobs.append(Job("pinch:herman_offset(1/2)", run,
                    lambda text: checks.check_pinch(checks.parse_csv_rows(text),
                                                    float(inputs["tol"]))))
    return jobs


@dataclass(frozen=True)
class Workload:
    generate: Callable
    build: Callable


WORKLOADS = {
    "staircase": Workload(staircase_generate, staircase_build),
    "scaling": Workload(scaling_generate, scaling_build),
    "certify": Workload(certify_generate, certify_build),
}
