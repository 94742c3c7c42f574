"""Numeric backends: exact rationals and tolerance-governed floats.

The map algebra in this package is written against plain Python numbers.
A backend object supplies the two things that genuinely differ between
representations: how raw inputs are coerced, and how equality and sign
questions are decided.  Exact data are ``fractions.Fraction`` values, so
every comparison is decidable; float data are IEEE doubles, and every
equality test is routed through an explicit tolerance policy instead of
``==``.

The float policy is fixed, one set of class constants on
:class:`FloatBackend`: ``eps_x`` for positions and values (the quantities
that enter break/orbit coincidence tests) and ``eps_s`` for slopes (which
accumulate multiplicative error under composition).  Sign decisions
additionally honour a ``decision_band``: a quantity within the band of
zero is *undecided* rather than signed, so callers can degrade to an
enclosure instead of asserting a wrong strict inequality.

Every other float band is one of the named constants below, and callers
decide with ``backend.sign(x, BAND)``; the exact backend ignores the band.
The backend also decides how a batch of orbits runs (``orbits``) and
describes its own settings for output headers (``describe``).  Code
outside this module never asks which backend it holds.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Union

from . import kernel
from .errors import BackendMismatch, Overflow

Num = Union[Fraction, float]

#: A break-orbit walk that misses itself by no more than this band, or
#: orbit points closer than twice it, leave a conjugacy verdict undecided.
ORBIT_TOL = 1e-9
#: An invariant density's total mass must be 1 to within this band.
MASS_TOL = 1e-12
#: Adjacent laminar landmarks collide when closer than this.
COLLISION_TOL = 1e-11
#: Default width of locked-interval edges (both backends): a secant probe
#: that lands on an edge ends its search sooner, with the edge exactly.
LOCK_TOL = Fraction(1, 10**10)
#: A batch of float orbits runs in lock-step (:func:`kernel.iterate_lanes`)
#: when that is cheaper than one orbit at a time.  A lock-step step costs
#: numpy overhead worth about ``LOCKSTEP_LANES`` lone steps, plus, per lane,
#: ``width / LOCKSTEP_WIDTH`` of a lone step for comparing ``x`` with every
#: marked point (``width`` the most marked points of any lane).  So a batch
#: runs in lock-step when ``lanes * (1 - width / LOCKSTEP_WIDTH) >=
#: LOCKSTEP_LANES``: from 49 lanes of four marked points, 98 lanes of an
#: ``F^64`` (about 130), never for an ``F^128`` (about 256).  Fitted to the
#: measured crossovers of the two paths on ``refraction`` lifts and their
#: powers (2-core Xeon, CPython 3.11, numpy 2.4): about 48-64 lanes at 4
#: marked points, 60 at 66, 90 at 130, and none up to 401 lanes at 258.
LOCKSTEP_LANES = 48
LOCKSTEP_WIDTH = 256


def _one_by_one(lanes, x0s, m):
    return [kernel.iterate(b, v, s, x0, m) for (b, v, s), x0 in zip(lanes, x0s)]


@dataclass(frozen=True)
class RationalBackend:
    """Exact arithmetic on ``Fraction``.  Refuses floats outright."""

    tag = "rational"

    def coerce(self, x) -> Fraction:
        if isinstance(x, float):
            raise BackendMismatch(
                "the exact backend refuses floats (got %r); pass a Fraction, "
                "an int, or a 'p/q' string" % (x,)
            )
        if type(x) is Fraction:  # immutable: no copy needed
            return x
        if isinstance(x, numbers.Rational):  # numpy integers too, as Python ints
            return Fraction(int(x.numerator), int(x.denominator))
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError("cannot coerce %r to an exact scalar" % (x,))

    def eq_point(self, a, b) -> bool:
        return a == b

    def eq_slope(self, a, b) -> bool:
        return a == b

    def sign(self, x, band=None) -> Optional[int]:
        """Exact sign; the band is irrelevant here."""
        if x > 0:
            return 1
        if x < 0:
            return -1
        return 0

    def merge_close(self, xs, fx):
        """Exact marked points never merge: the lists come back as given."""
        return xs, fx

    def trusted_slopes(self, slopes):
        """``slopes()``, the slopes the lift algebra derived: exact, and exact
        arithmetic on validated lifts keeps the order, so nothing is checked again."""
        return slopes()

    def rounding_doubt(self, check):
        """None, leaving ``check`` uncalled: exact algebra has no rounding to doubt."""
        return None

    def snap(self, x, width):
        """The rational of least denominator within ``width > 0`` of ``x``: the
        continued fraction both ends share, closed by the least integer that fits."""
        (a, b), (c, d) = (x - width).as_integer_ratio(), (x + width).as_integer_ratio()
        p0, q0, p1, q1 = 0, 1, 1, 0  # x is (p1*t + p0)/(q1*t + q0) of a t in [a/b, c/d]
        while (n := -(-a // b)) * d > c:  # no integer in [a/b, c/d]: n - 1 is both floors
            n -= 1
            a, b, c, d = d, c - n * d, b, a - n * b  # t -> 1/(t - n) swaps the ends
            p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        return Fraction(n * p1 + p0, n * q1 + q0)

    def orbits(self, lanes, x0s, m):
        """``kernel.iterate`` of ``m`` steps for each ``(breaks, values,
        slopes)`` lane from its start in ``x0s``, one lane at a time."""
        return _one_by_one(lanes, x0s, m)

    def describe(self) -> dict:
        """The settings in force, for output headers."""
        return {"backend": self.tag}


@dataclass(frozen=True)
class FloatBackend:
    """IEEE doubles with a fixed tolerance policy.

    eps_x: equality scale for positions and values.
    eps_s: equality scale for slopes.
    decision_band: half-width of the dead zone around zero inside which
        ``sign`` declines to answer (returns ``None``).
    """

    eps_x = 1e-12
    eps_s = 1e-10
    decision_band = 1e-10

    tag = "float"

    def coerce(self, x) -> float:
        if isinstance(x, (float, numbers.Real)):  # float first: the ABC check is slower
            return float(x)
        if isinstance(x, str):
            return float(Fraction(x))
        raise TypeError("cannot coerce %r to a float scalar" % (x,))

    def eq_point(self, a, b) -> bool:
        return abs(a - b) <= self.eps_x

    def eq_slope(self, a, b) -> bool:
        return abs(a - b) <= self.eps_s

    def sign(self, x, band=None) -> Optional[int]:
        half = self.decision_band if band is None else band
        if x > half:
            return 1
        if x < -half:
            return -1
        return None

    def merge_close(self, xs, fx):
        """Drop the circle points ``xs`` (with their values ``fx``) that lie
        within ``eps_x`` of the last kept one.

        ``xs`` run increasing (up to rounding) through a window of length
        one.  A cluster keeps its first member; the last kept point is
        dropped as well when it lies within ``eps_x`` of the first plus one
        (the wrap pair).
        """
        eps = self.eps_x
        keep = [0]
        last = xs[0]
        for i in range(1, len(xs)):
            if xs[i] - last > eps:
                keep.append(i)
                last = xs[i]
        if len(keep) > 1 and (xs[0] + 1) - last <= eps:
            keep.pop()
        return [xs[i] for i in keep], [fx[i] for i in keep]

    def trusted_slopes(self, slopes):
        """None, leaving ``slopes`` uncalled: float slopes are rise over run of
        the marked points, and their order is checked, since rounding can break it."""
        return None

    def rounding_doubt(self, check):
        """``check()``: why float rounding leaves a result in doubt, or None."""
        return check()

    def snap(self, x, width):
        """``x`` unchanged: a float probe is never simplified."""
        return x

    def orbits(self, lanes, x0s, m):
        """``kernel.iterate`` of ``m`` steps for each ``(breaks, values,
        slopes)`` lane from its start in ``x0s``: in lock-step when that
        is cheaper (see :data:`LOCKSTEP_LANES`), else one lane at a time.
        Both give the same bits."""
        width = max((len(b) for b, _, _ in lanes), default=0)
        if len(lanes) * (LOCKSTEP_WIDTH - width) >= LOCKSTEP_LANES * LOCKSTEP_WIDTH:
            return kernel.iterate_lanes(lanes, x0s, m)
        return _one_by_one(lanes, x0s, m)

    def describe(self) -> dict:
        """The backend and its tolerances, for output headers."""
        return {
            "backend": self.tag,
            "eps_x": repr(self.eps_x),
            "eps_s": repr(self.eps_s),
            "decision_band": repr(self.decision_band),
        }


Backend = Union[RationalBackend, FloatBackend]

RATIONAL = RationalBackend()
FLOAT = FloatBackend()


def to_json(x):
    """The JSON form of a result value.

    None, bools, ints and strings stay as they are; a Fraction becomes
    ``"p/q"`` and any other real a float; lists, tuples and dicts are
    encoded entry by entry, a backend becomes its tag, and any other
    object gives its own ``to_json()``.  Scalars are encoded by their
    type, not by a backend: float-backend results can still hold Fraction
    bounds (Stern-Brocot enclosures), which stay exact.

    Raises:
        Overflow: a Fraction's numerator or denominator has more decimal
            digits than Python converts to a string.
    """
    if x is None or isinstance(x, (int, str)):  # bools too
        return x
    if isinstance(x, float):  # the ABC checks below are slower
        return float(x)
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError as exc:
            raise Overflow(
                "exact scalar with a %d-bit numerator and a %d-bit denominator "
                "is too large to print: %s"
                % (x.numerator.bit_length(), x.denominator.bit_length(), exc)
            ) from exc
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, (RationalBackend, FloatBackend)):
        return x.tag
    if isinstance(x, numbers.Integral):  # numpy integers, as Python ints
        return int(x)
    if isinstance(x, numbers.Real):  # numpy floats that are no float
        return float(x)
    return x.to_json()


class Record:
    """Mixin for result dataclasses: ``to_json`` encodes every field, in
    order, except those marked ``metadata={"json": False}``."""

    def to_json(self) -> dict:
        return {
            f.name: to_json(getattr(self, f.name))
            for f in fields(self)
            if f.metadata.get("json", True)
        }


def backend_from_tag(tag: str) -> Backend:
    if tag == "rational":
        return RATIONAL
    if tag == "float":
        return FLOAT
    raise ValueError("unknown backend tag %r (expected 'rational' or 'float')" % (tag,))


def infer_backend(entries) -> Backend:
    """Pick a backend from raw data: floats anywhere means float.

    A float is any real number that is not rational (``np.float32`` too);
    ints, numpy integers, Fractions and ``"p/q"`` strings are exact.
    """
    for x in entries:
        if isinstance(x, float) or (  # float first: the ABC checks are slower
            isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational)
        ):
            return FLOAT
    return RATIONAL
