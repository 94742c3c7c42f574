"""Piecewise-linear lifts of orientation-preserving circle homeomorphisms.

A lift ``F`` is stored by its marked points: break positions
``b_1 < ... < b_n`` in [0, 1) together with the values ``phi_k = F(b_k)``.
Degree one closes the data cyclically, ``b_{n+1} = b_1 + 1`` and
``phi_{n+1} = phi_1 + 1``, which determines the slopes

    s_k = (phi_{k+1} - phi_k) / (b_{k+1} - b_k),   k = 1..n,

all of which must be positive for ``F`` to be a homeomorphism lift.  A
marked point is a *genuine* break when the adjacent slopes differ; marked
points with equal slopes are legal (composition produces them) and are
removed by :func:`canonicalize`.  :func:`make_lift` checks the order and
derives slopes as rise over run; so do float results of the algebra, while
exact ones carry the slopes it derived (products, reciprocals, kept ones).

Everything here is generic over the two scalar backends: exact rationals
and tolerance-governed floats.  ``F(x + 1) = F(x) + 1`` holds exactly in
the exact backend and to rounding in the float backend.  A composition
carries at most :data:`PIECE_CAP` marked points and raises
:class:`errors.Overflow` past it; no call sets another cap.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import errors
from .backend import Backend, Num, Record, infer_backend

#: Most marked points a composition may carry; more raises Overflow.
PIECE_CAP = 10**6


@dataclass(frozen=True)
class PwlLift(Record):
    """Immutable PWL lift; build instances through :func:`make_lift`."""

    breaks: tuple
    values: tuple
    slopes: tuple = field(metadata={"json": False})
    backend: Backend

    @property
    def n(self) -> int:
        return len(self.breaks)

    def __call__(self, x) -> Num:
        """Evaluate the lift at any real ``x`` (degree-one extension)."""
        w, r = split(self.backend.coerce(x))
        k = piece(self.breaks, r)
        if k < 0:
            return (self.values[-1] - 1) + self.slopes[-1] * (r - (self.breaks[-1] - 1)) + w
        return self.values[k] + self.slopes[k] * (r - self.breaks[k]) + w

    @property
    def is_rigid(self) -> bool:
        """True when a single marked point remains: ``F(x) = x + shift``.

        With one marked point the cyclic closure forces slope 1 exactly,
        so the lift is a rigid rotation.
        """
        return self.n == 1

    @property
    def rigid_shift(self) -> Optional[Num]:
        return self.values[0] - self.breaks[0] if self.is_rigid else None

    def genuine_break_indices(self) -> list:
        """Indices whose one-sided slopes actually differ."""
        eq = self.backend.eq_slope
        return [k for k in range(self.n) if not eq(self.slopes[k], self.slopes[k - 1])]


def piece(points: Sequence, r) -> int:
    """Index ``k`` of the piece ``[points[k], points[k + 1])`` holding ``r``.

    ``points`` are sorted cut points within one turn and ``r`` lies in
    that turn, usually [0, 1).  Returns -1 for the wrap piece
    ``[points[-1], points[0] + 1)`` when ``r < points[0]``, so indexing
    per-piece data with the result reads the last piece there; offsets
    from ``points[-1]`` need one turn added.
    """
    return bisect_right(points, r) - 1


def cell_ends(points: Sequence) -> tuple:
    """The right end of each cell ``[points[k], points[k + 1])`` around
    the circle: the next point, and the first one a turn up for the last."""
    return (*points[1:], points[0] + 1)


def split(x) -> tuple:
    """``(w, r)`` with ``x = w + r``, ``w`` an integer and ``r`` in [0, 1),
    exact for Fractions."""
    w = math.floor(x)
    r = x - w
    if r >= 1:  # float rounding can push x - floor(x) up to 1.0
        r -= 1
        w += 1
    return w, r


def frac(x) -> Num:
    """Fractional part in [0, 1), exact for Fractions."""
    return split(x)[1]


def make_lift(breaks: Sequence, values: Sequence, backend: Optional[Backend] = None) -> PwlLift:
    """Validate marked-point data and build a lift.

    Args:
        breaks: positions in [0, 1), strictly increasing.
        values: ``F(break_k)`` for each break, strictly increasing with
            ``values[-1] < values[0] + 1`` so all slopes are positive.
        backend: explicit backend; inferred from the data when omitted
            (any float anywhere selects the float backend).

    Raises:
        EmptyInput: no marked points.
        NonMonotone: ordering or slope-sign violations.
        BackendMismatch: float data handed to the rational backend.
    """
    if len(breaks) == 0 or len(values) == 0:
        raise errors.EmptyInput("a lift needs at least one marked point")
    if len(breaks) != len(values):
        raise errors.NonMonotone(
            "breaks and values must pair up (%d vs %d)" % (len(breaks), len(values))
        )
    if backend is None:
        backend = infer_backend(list(breaks) + list(values))
    return _checked_lift(
        tuple(backend.coerce(x) for x in breaks), tuple(backend.coerce(x) for x in values), backend
    )


def _checked_lift(b: Sequence, v: Sequence, backend: Backend) -> PwlLift:
    """The lift through marked points ``b``, ``v`` that are already
    ``backend`` scalars, two non-empty sequences of one length; checks
    order and slope signs as :func:`make_lift` does, but coerces nothing."""
    b, v = tuple(b), tuple(v)
    if not (0 <= b[0]):
        raise errors.NonMonotone("first break %s must lie in [0, 1)" % (b[0],))
    if not (b[-1] < 1):
        raise errors.NonMonotone("breaks must lie in [0, 1); got %s" % (b[-1],))
    for i in range(1, len(b)):
        if not (b[i - 1] < b[i]):
            raise errors.NonMonotone("breaks not strictly increasing at index %d" % i)
    slopes = []
    for b0, b1, v0, v1 in zip(b, cell_ends(b), v, cell_ends(v)):
        rise = v1 - v0
        if not (rise > 0):
            raise errors.NonMonotone(
                "values must increase strictly around the cycle (piece %d)" % len(slopes)
            )
        slopes.append(rise / (b1 - b0))
    return PwlLift(breaks=b, values=v, slopes=tuple(slopes), backend=backend)


def _lift(b: Sequence, v: Sequence, slopes, backend: Backend) -> PwlLift:
    """The lift with slopes ``slopes()`` if the backend trusts them, else :func:`_checked_lift`."""
    trusted = backend.trusted_slopes(slopes)
    if trusted is None:
        return _checked_lift(b, v, backend)
    return PwlLift(breaks=tuple(b), values=tuple(v), slopes=tuple(trusted), backend=backend)


def rigid(shift, backend: Optional[Backend] = None) -> PwlLift:
    """The rigid rotation lift ``x + shift`` with one marked point at 0."""
    if backend is None:
        backend = infer_backend([shift])
    zero = backend.coerce(0)
    return make_lift([zero], [backend.coerce(shift)], backend)


def compose(outer: PwlLift, inner: PwlLift) -> PwlLift:
    """The lift of ``outer o inner``.

    Marked points of the result are the marked points of ``inner``
    together with inner-preimages of the marked points of ``outer``.  That
    set refines the true break set, so the affine interpolation through it
    reproduces the composition exactly.

    One merge sweep finds them, in O(n_inner + n_outer) with no sort and
    no search per point.  Over the window ``[b_0, b_0 + 1)`` the inner
    breaks ``b_k`` (images ``v_k``) are sorted, and so are the outer breaks
    lifted into ``[v_0, v_0 + 1)``, a rotation of ``outer.breaks``.  Walking
    both together visits the marked points in order: the value at the
    preimage ``b_k + (y - v_k)/s_k`` of a lifted outer break ``y`` is that
    break's own value, and the value at ``b_k`` is one affine evaluation of
    ``outer`` on the piece the sweep holds.  Points at or above 1 rotate to
    the front.  A preimage equal to an inner break collapses into it; the
    backend's ``merge_close`` then merges float points closer than
    ``eps_x`` (exact points never merge).  An exact piece lies on one inner
    and one outer piece, and its slope is the product of theirs.

    Raises:
        Overflow: more than :data:`PIECE_CAP` marked points.
        PrecisionLoss: float rounding made neighbouring values of the
            composition coincide or cross (strong contraction, as near an
            attracting periodic orbit); the exact backend cannot hit this.
    """
    if outer.backend.tag != inner.backend.tag:
        raise errors.BackendMismatch(
            "cannot compose %s-backend with %s-backend lifts"
            % (outer.backend.tag, inner.backend.tag)
        )
    backend = inner.backend
    bs, vs, ss = inner.breaks, inner.values, inner.slopes
    cs, us = outer.breaks, outer.values
    n, m = inner.n, outer.n

    # ys[1:] are the outer breaks lifted into [v_0, v_0 + 1), in order, with
    # their values uy and right-hand slopes sy; ys[0] is the last of them one
    # turn down.  The outer piece under ys[t - 1] <= y < ys[t] starts at ys[t - 1].
    w = math.floor(vs[0])
    j0 = bisect_left(cs, vs[0] - w)
    lifted = range(j0 - 1, j0 + m)
    ys = [cs[j % m] + (w + j // m) for j in lifted]
    uy = [us[j % m] + (w + j // m) for j in lifted]
    sy = [outer.slopes[j % m] for j in lifted]
    end = m + 1

    xs = []
    fx = []
    runs = []  # (s_k, o, t): the pieces from b_k on lie on outer pieces o .. t - 1
    t = 1
    for k in range(n):
        b, v, s = bs[k], vs[k], ss[k]
        xs.append(b)
        if t < end and ys[t] == v:
            fx.append(uy[t])
            t += 1
        else:
            fx.append(uy[t - 1] + sy[t - 1] * (v - ys[t - 1]))
        o = t - 1
        last = k + 1 == n  # every outer break left lies on the last piece
        while t < end and (last or ys[t] < vs[k + 1]):
            xs.append(b + (ys[t] - v) / s)
            fx.append(uy[t])
            t += 1
        runs.append((s, o, t))

    cut = len(xs)
    while xs[cut - 1] >= 1:
        cut -= 1
    if cut < len(xs):
        xs = [x - 1 for x in xs[cut:]] + xs[:cut]
        fx = [y - 1 for y in fx[cut:]] + fx[:cut]
    xs, fx = backend.merge_close(xs, fx)

    if len(xs) > PIECE_CAP:
        raise errors.Overflow(
            "composition would carry %d marked points (cap %d)" % (len(xs), PIECE_CAP)
        )

    def products():
        slopes = [s * y for s, o, t in runs for y in sy[o:t]]
        return slopes[cut:] + slopes[:cut]

    try:
        return _lift(xs, fx, products, backend)
    except errors.NonMonotone as exc:  # only float rounding gets here
        raise errors.PrecisionLoss(
            "float composition over %d marked points lost monotonicity: %s"
            % (len(xs), exc)
        ) from exc


def power(f: PwlLift, k: int) -> PwlLift:
    """Explicit lift of the k-th iterate, by repeated squaring.

    Powers of the same map commute, so the square-and-multiply order does
    not matter.  Marked-point counts grow at most linearly in ``k``;
    :data:`PIECE_CAP` bounds them and raises :class:`errors.Overflow`
    beyond.  Float powers of strongly contracting maps raise
    :class:`errors.PrecisionLoss` (see :func:`compose`).
    """
    if k < 1:
        raise ValueError("power wants k >= 1, got %d" % k)
    result = None
    base = f
    while True:
        if k & 1:
            result = base if result is None else compose(result, base)
        k >>= 1
        if not k:
            return result
        base = compose(base, base)


def invert(f: PwlLift) -> PwlLift:
    """Explicit lift of the inverse map.

    Marked points are the fractional parts of the values of ``f``; the
    value over such a point is the corresponding break, shifted by the
    winding lost when reducing mod 1.  Exact slopes are the reciprocals.
    """
    pairs = []
    for b, v, s in zip(f.breaks, f.values, f.slopes):
        w, r = split(v)
        pairs.append((r, b - w, s))
    xs, fx, ss = zip(*sorted(pairs))
    return _lift(xs, fx, lambda: [1 / s for s in ss], f.backend)


def canonicalize(f: PwlLift) -> PwlLift:
    """Drop marked points whose one-sided slopes agree.

    Runs to a fixed point, so the result is idempotent under repeated
    calls even in the float backend (where merging pieces re-averages
    slopes and can expose further coincidences).  A lift with no genuine
    break reduces to the rigid rotation through its first marked point.
    Exact results keep the slopes of the kept points.
    """
    current = f
    while True:
        keep = current.genuine_break_indices() or [0]
        if len(keep) == current.n:
            return current
        current = _lift(
            [current.breaks[i] for i in keep],
            [current.values[i] for i in keep],
            lambda: [current.slopes[i] for i in keep],
            current.backend,
        )


def jump(f: PwlLift, i: int) -> Num:
    """Jump ratio at break ``i``: right slope over left slope.

    The left slope at ``b_i`` is ``s_{i-1}`` (cyclically), the right slope
    is ``s_i``.  Raises :class:`errors.NotABreak` when they coincide under
    the backend's slope tolerance.
    """
    if not (0 <= i < f.n):
        raise IndexError("break index %d out of range" % i)
    left = f.slopes[i - 1]
    right = f.slopes[i]
    if f.backend.eq_slope(left, right):
        raise errors.NotABreak("marked point %d has equal one-sided slopes" % i)
    return right / left


def jump_product(f: PwlLift, indices: Optional[Sequence[int]] = None) -> Num:
    """Product of jump ratios over ``indices`` (default: all genuine breaks).

    Over all genuine breaks the product telescopes to exactly 1 in the
    exact backend; subsets with product 1 are the trivial cancellations.
    Every index must be a genuine break, as :func:`jump` requires.
    """
    if indices is None:
        indices = f.genuine_break_indices()
    prod = f.backend.coerce(1)
    for i in indices:
        prod = prod * jump(f, i)
    return prod


def sup_difference(f: PwlLift, g: PwlLift) -> Num:
    """sup over the circle of ``|f(x) - g(x)|`` for two lifts.

    The difference is PWL with kinks only at the union of the two marked
    sets, so the supremum is attained there.
    """
    pts = set(f.breaks) | set(g.breaks)
    best = None
    for x in pts:
        d = abs(f(x) - g(x))
        if best is None or d > best:
            best = d
    return best
