"""Rotation numbers of PWL circle lifts: enclosures, exact values, locking.

Three complementary tools live here.

* :func:`birkhoff_enclosure` — iterate the orbit of 0 and use the classical
  bound ``|F^m(0) - m rho| < 1`` to trap the rotation number in an interval
  of width ``2/m``.  Cheap, rigorous, never exact.  Both backends take the
  same path: the orbit kernel iterates the explicit lift of a power ``F^Q``.
  :func:`birkhoff_enclosures` does the same for many lifts at once (a
  sweep over a parameter grid); the backend runs a large float batch in
  lock-step, bit for bit the orbits one call per lift would give.
* :func:`exact_rotation` — walk the Stern-Brocot tree.  For a candidate
  ``p/q`` the sign of ``E(x) = F^q(x) - x - p`` decides ``rho`` against
  ``p/q``: ``min E > 0`` means ``rho > p/q``, ``max E < 0`` means ``rho <
  p/q``, and a zero or sign change certifies ``rho = p/q`` together with a
  periodic witness.  ``E`` is read on one arc of a restricted pair (the
  dynamical partition: de Melo & van Strien, *One-Dimensional Dynamics*,
  ch. I; Khanin & Vul 1991).  For Farey neighbours ``pl/ql < rho < pr/qr``,
  ``xi = F^{ql} - pl`` lies above the identity and ``eta = F^{qr} - pr``
  below it; on a periodic orbit of the mediant's type ``xi`` moves each
  point to its right neighbour and ``eta`` to its left one (``ql p - pl q
  = 1 = pr q - qr p``).  So the orbit point ``z <= 0`` nearest 0 lies in
  ``J_l = [eta(0), 0]`` and ``xi(z)`` in ``J_r = [0, xi(0)]``: a zero of
  ``E`` anywhere has one on each arc, so the sign of ``E`` on an arc is its
  sign everywhere.  ``E = 0`` on an arc makes ``xi`` map ``J_l`` onto
  ``J_r``, and holds on the circle, which their images cover.  ``xi`` on
  ``J_l`` and ``eta`` on ``J_r`` carry at most ``n`` marked points between
  their ends, so each mediant costs one composition of bounded size,
  whatever ``q`` is.  Signs come from ``backend.sign``, so in the float
  backend each one must clear a decision band.  Inside the band the only
  certificate left is ``E = 0`` at every marked point of the arc (``F^q``
  is the rigid shift by ``p``); without it, or when rounding loses the
  order of a restricted map, the search degrades to the current enclosure
  instead of guessing.  The same argument makes the arc decide conjugacy:
  ``E = 0`` on it exactly when ``F^q = x + p``, which the conjugacy verdict
  checks by walking each break orbit ``q`` steps through ``F``.
* :func:`mode_lock_interval` — for a monotone one-parameter family, locate
  the parameter interval on which ``rho = p/q`` by secant steps on the two
  sign functions ``max E`` (lower edge) and ``min E`` (upper edge) apart,
  which keeps width-zero intervals (conjugacy pinches) honest.  Both are
  piecewise affine in ``mu`` for shift families, so a secant lands on an
  exact edge, and ``lo``/``hi`` are the outer ends of the edge brackets.

The hit is the certificate: the witness is read off the arc and not
evaluated again.  The default edge width is a named constant of
:mod:`pwlrotor.backend`; nothing here asks which backend it holds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import errors
from .backend import LOCK_TOL, Num, Record, to_json
from .lift import PwlLift, _lift, cell_ends, compose, frac, piece, power

log = logging.getLogger(__name__)

_ABOVE = "above"
_BELOW = "below"
_HIT = "hit"
_UNDECIDED = "undecided"


@dataclass(frozen=True)
class RotationResult(Record):
    """Outcome of a rotation-number computation.

    ``kind`` is ``"exact"`` (with ``p``, ``q``, and a periodic ``witness``)
    or ``"enclosure"`` (with rigorous bounds ``lo <= rho <= hi``).  Both
    kinds populate ``lo``/``hi`` so consumers can treat them uniformly.
    """

    kind: str
    p: Optional[int]
    q: Optional[int]
    lo: Num
    hi: Num
    witness: Optional[Num] = None
    iterations: Optional[int] = None

    @classmethod
    def exact(cls, p: int, q: int, witness, iterations=None) -> "RotationResult":
        value = Fraction(p, q)
        return cls(
            kind="exact",
            p=value.numerator,
            q=value.denominator,
            lo=value,
            hi=value,
            witness=witness,
            iterations=iterations,
        )

    @classmethod
    def enclosure(cls, lo, hi, iterations=None) -> "RotationResult":
        return cls(kind="enclosure", p=None, q=None, lo=lo, hi=hi, iterations=iterations)

    @property
    def midpoint(self):
        return (self.lo + self.hi) / 2

    @property
    def width(self):
        return self.hi - self.lo


def _orbit_power(f: PwlLift, m: int) -> Tuple[PwlLift, int]:
    """``(P, Q)`` with ``P = F^Q`` the explicit lift that carries an ``m``-step orbit.

    ``F`` is squared while ``64*Q**2 <= m``, which gives the largest power
    of two with ``Q <= sqrt(m)/4``: building ``F^Q`` costs about ``Q*n`` and
    iterating it ``m/Q``, so the best ``Q`` grows like ``sqrt(m)``.  A
    squaring that loses float precision or exceeds the piece cap stops it,
    and the last square built is used instead (``F`` itself when the first
    one fails).
    """
    P, q = f, 1
    while 64 * q * q <= m:
        try:
            P = compose(P, P)
        except (errors.PrecisionLoss, errors.Overflow) as exc:
            log.debug("birkhoff_enclosure: F^%d not built (%s); falling back to Q=%d",
                      2 * q, exc, q)
            break
        q *= 2
    return P, q


def _run_lanes(backend, q: int, lanes: list, m: int, out: list) -> None:
    """Enclose the rotation numbers of ``lanes``, each ``(index, F, P =
    F^q, start)``, into ``out[index]``: ``m//q`` steps of ``P``, then
    ``m%q`` steps of ``F``."""
    starts = [start for _, _, _, start in lanes]
    head = backend.orbits([(P.breaks, P.values, P.slopes) for _, _, P, _ in lanes],
                          starts, m // q)
    tail = backend.orbits([(f.breaks, f.values, f.slopes) for _, f, _, _ in lanes],
                          [x for _, x in head], m % q)
    for (i, _, _, start), (wind, _), (rest, x_end) in zip(lanes, head, tail):
        disp = (wind + rest) + (x_end - start)
        out[i] = RotationResult.enclosure((disp - 1) / m, (disp + 1) / m, iterations=m)


def birkhoff_enclosures(lifts: Sequence[PwlLift], m: int, x0=0) -> list:
    """:func:`birkhoff_enclosure` of each lift in ``lifts``, all from ``x0``.

    Each lift gets its own ``P = F^Q`` from :func:`_orbit_power` (``Q``
    the largest power of two up to ``sqrt(m)/4``, or the last square built
    when a squaring loses float precision or exceeds the piece cap).  Lanes
    that reached the same ``Q`` in the same backend form one batch of
    ``backend.orbits``: ``m//Q`` steps of their ``P``, then ``m%Q`` steps
    of ``F``.  The backend decides whether a batch runs in lock-step;
    lock-step lanes get the bits of lone orbits, so no result depends on
    which lifts share a call.  Exact lifts give exactly ``F`` applied
    ``m`` times: exact ``F^Q`` is ``F`` applied ``Q`` times, with no
    rounding.
    """
    if m < 1:
        raise ValueError("need at least one iterate, got m=%d" % m)
    out = [None] * len(lifts)
    groups = {}  # (backend, Q) -> [(index, F, P, start)]
    for i, f in enumerate(lifts):
        backend = f.backend
        start = frac(backend.coerce(x0))
        P, q = _orbit_power(f, m)
        log.debug("birkhoff_enclosure: m=%d, Q=%d, %d marked points", m, q, P.n)
        groups.setdefault((backend, q), []).append((i, f, P, start))
    for (backend, q), lanes in groups.items():
        _run_lanes(backend, q, lanes, m, out)
    return out


def birkhoff_enclosure(f: PwlLift, m: int, x0=0) -> RotationResult:
    """Trap the rotation number via ``m`` orbit steps from ``x0``.

    Uses the bound ``|F^m(x) - x - m rho| < 1``, so the enclosure has
    width exactly ``2/m``.  Both backends iterate the explicit lift of a
    power ``F^Q`` (``Q`` up to ``sqrt(m)/4``, see :func:`_orbit_power`)
    in the Python kernel, with the winding tracked separately from the
    fractional position.  In the exact backend every step is a rational
    operation, so the result is fully rigorous.  The one-lift case of
    :func:`birkhoff_enclosures`.
    """
    return birkhoff_enclosures([f], m, x0)[0]


def _edge_values(P: PwlLift, p) -> list:
    """``E(x) = P(x) - x - p`` at the marked points of ``P``.

    ``E`` is PWL and periodic, so its extrema over the circle are attained
    on this list.  The breaks lie in [0, 1), so ``P(b_k)`` is ``values[k]``.
    """
    return [v - b - p for b, v in zip(P.breaks, P.values)]


def _edge_extremes(P: PwlLift, p) -> tuple:
    """Least and greatest :func:`_edge_values`, to the bit: ``p`` is taken
    from the extremes of ``P(b_k) - b_k`` only, and rounding is monotone."""
    d = [v - b for b, v in zip(P.breaks, P.values)]
    return min(d) - p, max(d) - p


def _find_witness(P: PwlLift, p, skip=None):
    """A root of ``E`` for ``P = F^q`` at a hit ``p/q`` of :func:`_classify`:
    an edge value equal to 0 by ``eq_point``, or else (both extremes decided)
    the root ``b_k + e_k/(1 - s_k)`` of a piece other than ``skip`` where
    ``E`` changes sign strictly.  No NaN hides one (float lifts pass
    ``lift._checked_lift``, which refuses NaN and infinite data), so the loop
    returns.  The hit is the certificate: the root is not evaluated again,
    its residual being 0 in exact data and only its rounding times
    ``|1 - s_k|`` in floats.
    """
    eq = P.backend.eq_point
    n, vals = P.n, _edge_values(P, p)
    for k in range(n):
        ek = vals[k]
        if eq(ek, 0):
            return P.breaks[k]
        e_next = vals[(k + 1) % n]
        if k != skip and ((ek > 0 > e_next) or (ek < 0 < e_next)):
            # strict sign change inside the piece; slope != 1 there
            root = P.breaks[k] + ek / (1 - P.slopes[k])
            return frac(root)


def _is_rigid_shift(P: PwlLift, vals) -> bool:
    """``E = 0`` at every marked point of ``P``, by ``eq_point``: ``P = F^q``
    is the rigid shift by ``p``, and so the map is conjugate to ``R_{p/q}``."""
    eq = P.backend.eq_point
    return all(eq(e, 0) for e in vals)


def _classify(P: PwlLift, p) -> str:
    """Place ``rho`` against ``p/q`` for ``P = F^q``, or ``F^q`` on an arc.

    ``sign(min E) == 1`` is above, ``sign(max E) == -1`` below, and both
    signs decided is a hit.  Otherwise a sign lies inside the float
    decision band, and only ``E = 0`` at every marked point (``F^q`` the
    rigid shift by ``p``) still certifies a hit.
    """
    backend = P.backend
    lo, hi = map(backend.sign, _edge_extremes(P, p))
    if lo == 1:
        return _ABOVE
    if hi == -1:
        return _BELOW
    if (lo is not None and hi is not None) or _is_rigid_shift(P, _edge_values(P, p)):
        return _HIT
    return _UNDECIDED


def _restricted(P: PwlLift, a, b, shift=0) -> PwlLift:
    """``P - shift`` on the arc from ``a`` to ``b`` in [0, 1) (``[a, 1] + [0, b]``
    when ``b <= a``), affine on the rest of the turn: marked at ``a``, at the
    marked points of ``P`` inside, and at ``b``.  Each arc piece lies on one
    piece of ``P`` and carries its slope; only the filler from ``b`` takes
    rise over run.  Float points go through ``merge_close`` and are checked;
    an order that rounding lost raises PrecisionLoss."""
    inside = (lambda x: a < x < b) if a < b else (lambda x: x < b or x > a)
    pts = sorted([(a, P(a)), (b, P(b))] + [xy for xy in zip(P.breaks, P.values) if inside(xy[0])])
    xs, fx = P.backend.merge_close([x for x, _ in pts], [y - shift for _, y in pts])

    def slopes():
        return [(v1 - v0) / (x1 - x0) if x0 == b else P.slopes[piece(P.breaks, x0)]
                for x0, x1, v0, v1 in zip(xs, cell_ends(xs), fx, cell_ends(fx))]

    try:
        return _lift(xs, fx, slopes, P.backend)
    except errors.NonMonotone as exc:  # only float rounding gets here
        raise errors.PrecisionLoss("float restriction lost monotonicity: %s" % exc) from exc


def _pair_search(f: PwlLift, q_max: int) -> Tuple[RotationResult, bool]:
    """:func:`exact_rotation`, and whether ``F^q - p`` is the rigid shift on
    the arc of its hit (False for an enclosure), which the conjugacy
    verdict's float guard reads."""
    if q_max < 1:
        raise ValueError("the denominator cap must be >= 1, got %d" % q_max)
    zero = f.backend.coerce(0)
    k0 = math.floor(f(zero))
    pl, ql, pr, qr, tested = k0, 1, k0 + 1, 1, 0

    def hit(C, e, p, q, skip=None):
        return (RotationResult.exact(p, q, _find_witness(C, e, skip), tested),
                _is_rigid_shift(C, _edge_values(C, e)))

    for p in (k0, k0 + 1):  # F(0) - k0 is in [0, 1): each end is a hit, in the band or on its side
        status = _classify(f, p)
        if status == _HIT:
            return hit(f, p, p, 1)
        if status == _UNDECIDED:
            return RotationResult.enclosure(Fraction(pl, ql), Fraction(pr, qr), iterations=0), False
    a = b = f(zero) - k0
    try:
        A, B = _restricted(f, a, zero, k0), _restricted(f, zero, b, k0)
        while (q := ql + qr) <= q_max:
            p, tested = pl + pr, tested + 1
            if A(a) >= 1:  # C = F^q - p on J_l
                C, e = _restricted(compose(B, A), a, zero, 1), 0
            else:  # C = F^q - p + 1 on J_r
                C, e = _restricted(compose(A, B), zero, b), 1
            status = _classify(C, e)
            if status == _HIT:  # the filler piece is the first on J_l, the last on J_r
                return hit(C, e, p, q, -e % C.n)
            if status == _ABOVE:
                pl, ql, A, b = p, q, C, C(zero)
                B = _restricted(B, zero, b)
            elif status == _BELOW:
                pr, qr, B, a = p, q, C, C(zero)
                A = _restricted(A, a, zero)
            else:
                break
    except errors.PrecisionLoss:  # rounding lost a float order: stop as at a sign in the band
        pass
    return RotationResult.enclosure(Fraction(pl, ql), Fraction(pr, qr), iterations=tested), False


def exact_rotation(f: PwlLift, q_max: int = 10_000) -> RotationResult:
    """Stern-Brocot search for an exact rational rotation number.

    From ``[floor(F(0)), floor(F(0)) + 1]``, test mediants on the restricted
    pair of the module docstring, kept as ``A = xi`` on ``J_l = [a, 1]`` and
    ``B = eta + 1`` on ``J_r = [0, b]`` so that both take 0 into [0, 1)
    (``a = B(0)``, ``b = A(0)``).  One composition per mediant: ``B o A`` on
    ``J_l`` when ``xi`` maps it into ``J_r`` (``A(a) >= 1``), else ``A o B``
    on ``J_r``; the result replaces ``A`` (rho above) or ``B`` (below), and
    the other map is cut to its new arc.  Returns an exact result with a
    witness on the arc, or the tightest Farey enclosure reached when
    ``q_max`` is exhausted, a float sign test refuses to decide or rounding
    loses a float order.  ``iterations`` counts the mediants tested.
    Raises ValueError when ``q_max < 1``.
    """
    return _pair_search(f, q_max)[0]


@dataclass(frozen=True)
class PeriodicPoint:
    """A solution of ``F^q(x) = x + p`` with one-sided slopes of ``F^q``."""

    x: Num
    left_slope: Num
    right_slope: Num

    @property
    def stability(self) -> str:
        lo = min(self.left_slope, self.right_slope)
        hi = max(self.left_slope, self.right_slope)
        if hi < 1:
            return "attracting"
        if lo > 1:
            return "repelling"
        if lo == 1 and hi == 1:
            return "neutral"
        return "mixed"


@dataclass(frozen=True)
class PeriodicScan:
    """All (p, q)-periodic points, plus any whole intervals of them.

    ``identity_intervals`` lists the maximal arcs on which ``F^q = x + p``
    holds identically (the whole circle ``[0, 1)`` when the map is
    conjugate); isolated roots land in ``points``.
    """

    p: int
    q: int
    points: tuple
    identity_intervals: tuple


def periodic_points(f: PwlLift, p: int, q: int) -> PeriodicScan:
    """Solve ``F^q(x) = x + p`` piece by piece on the explicit lift of F^q.

    Each affine piece contributes at most one isolated root, found by a
    one-line solve; pieces with slope 1 are either disjoint from the
    solution set or consist entirely of it.
    """
    P = power(f, q)
    backend = P.backend
    one = backend.coerce(1)

    roots = []  # (x, piece_index, at_left_edge)
    intervals = []
    cells = zip(P.breaks, cell_ends(P.breaks), P.slopes, _edge_values(P, p))
    for k, (b_left, b_right, s, e_left) in enumerate(cells):
        if backend.eq_slope(s, one):
            if backend.eq_point(e_left, 0):
                intervals.append((b_left, b_right))
            continue
        x = b_left + e_left / (one - s)
        at_edge = backend.eq_point(x, b_left)
        if (at_edge or x >= b_left) and x < b_right:
            x = max(x, b_left)
            roots.append((frac(x) if x >= 1 else x, k, at_edge))

    # Merge identity intervals that share an endpoint, including the wrap.
    if len(intervals) == P.n:
        intervals = [(backend.coerce(0), backend.coerce(1))]
    elif intervals:
        merged = [list(intervals[0])]
        for a, b in intervals[1:]:
            if backend.eq_point(a, merged[-1][1]):
                merged[-1][1] = b
            else:
                merged.append([a, b])
        if len(merged) > 1 and backend.eq_point(merged[0][0] + 1, merged[-1][1]):
            merged[0][0] = merged[-1][0] - 1
            merged.pop()
        intervals = [tuple(iv) for iv in merged]

    pts = []
    if roots:
        roots.sort()
        # exact roots lie on disjoint half-open pieces, so only float ones merge
        xs, tags = backend.merge_close([x for x, _, _ in roots], [(k, e) for _, k, e in roots])
        for x, (k, at_edge) in zip(xs, tags):
            left = P.slopes[k - 1] if at_edge else P.slopes[k]
            pts.append(PeriodicPoint(x=x, left_slope=left, right_slope=P.slopes[k]))
    return PeriodicScan(p=p, q=q, points=tuple(pts), identity_intervals=tuple(intervals))


@dataclass(frozen=True)
class ModeLockInterval(Record):
    """Parameter interval on which the family locks onto ``rho = p/q``.

    ``lo``/``hi`` are the outer ends of the two edge brackets, each found
    to within ``tol`` by secant steps, and exact where a probe landed on
    the edge; the certificates record each edge's final bracket, the sign
    data of ``min/max E`` at the bracket ends and the ``probes`` it took.
    """

    p: int
    q: int
    lo: Num
    hi: Num
    tol: Num
    certificates: dict

    @property
    def width(self):
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {**super().to_json(), "width": to_json(self.width)}


def _edge_root(g: Callable, a, b, ga, gb, tol, snap):
    """Locate the sign change of ``g`` on ``a < b`` to within ``tol``.

    ``ga`` and ``gb`` are ``g(a)`` and ``g(b)``, computed by the caller.
    Each round probes the secant root through the last two probes on the
    side of the smaller ``|g|`` (the bracket ends while that side has one),
    moved by ``snap`` to a simple nearby point; a probe that falls on that
    side again is followed by one ``tol/2`` past it, and a round that did
    not halve the bracket ends with a bisection.  On an affine piece of
    ``g`` the secant lands on the root, and ``g == 0`` ends the search with
    the bracket ``(x, x)``.  Returns the final bracket, wider than ``tol``
    only when its ends are adjacent floats, and the number of probes.
    Raises NotBracketed when the endpoint signs agree.
    """
    if not ((ga > 0 > gb) or (ga < 0 < gb)):
        raise errors.NotBracketed(
            "no sign change on [%s, %s]: endpoint values %s and %s" % (a, b, ga, gb)
        )
    sides = ([(a, ga)], [(b, gb)])  # the probes on each side of the root, in order
    probes = 0

    def inside(x):
        return sides[0][-1][0] < x < sides[1][-1][0]

    def probe(x):
        nonlocal probes
        probes += 1
        gx = g(x)
        for side in sides:  # a root closes the bracket on both sides
            if gx == 0 or (gx > 0) == (side[0][1] > 0):
                side.append((x, gx))

    while (width := sides[1][-1][0] - sides[0][-1][0]) > tol:
        near = min(sides, key=lambda side: abs(side[-1][1]))
        (x0, g0), (x1, g1) = near[-2:] if len(near) > 1 else (sides[0][-1], sides[1][-1])
        if g0 != g1 and inside(x := snap(x1 - g1 * (x1 - x0) / (g1 - g0), tol * tol)):
            probe(x)
            past = x + (tol / 2 if near is sides[0] else -tol / 2)
            if near[-1][0] == x and inside(past):  # the same side again: straddle the root
                probe(past)
        if sides[1][-1][0] - sides[0][-1][0] > width / 2:
            if not inside(mid := (sides[0][-1][0] + sides[1][-1][0]) / 2):
                break  # adjacent floats: the bracket cannot shrink below tol
            probe(mid)
    return (sides[0][-1][0], sides[1][-1][0]), probes


def mode_lock_interval(
    family,
    p: int,
    q: int,
    bracket: Tuple,
    tol=None,
) -> ModeLockInterval:
    """Measure the locked interval ``{mu : rho(F_mu) = p/q}`` in a bracket.

    The family must cross ``p/q`` monotonically inside the bracket (either
    orientation).  The lower and upper edges are the zeros of
    ``max_x E_mu`` and ``min_x E_mu`` with ``E_mu = F_mu^q - x - p``; each
    is located apart by :func:`_edge_root`, so a width-zero interval (a
    conjugacy pinch) comes out as ``lo == hi`` up to ``tol`` instead of
    being missed, and exactly where a probe lands on it.  ``lo``/``hi``
    are the outer ends of the edge brackets, so they enclose the lock when
    the signs are right.  ``bracket`` names an interval, in either order.
    ``family`` is anything with a ``lift(mu)`` method.  ``tol`` (default
    :data:`backend.LOCK_TOL`) is taken in the family's backend.

    Raises:
        ValueError: ``tol``, taken in the family's backend, is not positive.
        NotBracketed: an edge's sign function does not change over the
            bracket (the locked set touches or lies outside the bracket).
    """
    lift_fn = family.lift
    f_a = lift_fn(bracket[0])
    backend = f_a.backend
    tol = backend.coerce(Fraction(LOCK_TOL if tol is None else tol))
    if not tol > 0:
        raise ValueError("tol must be positive, got %s" % (tol,))

    def stats(F):
        return _edge_extremes(power(F, q), p)

    a, b = map(backend.coerce, bracket)
    ends = [(a, stats(f_a)), (b, stats(lift_fn(b)))]
    (a, at_a), (b, at_b) = sorted(ends, key=lambda end: end[0])  # the interval, in order

    def edge(which, k):  # the zero of max E (k = 1) or min E (k = 0)
        (left, right), probes = _edge_root(lambda mu: stats(lift_fn(mu))[k], a, b,
                                           at_a[k], at_b[k], tol, backend.snap)
        return {"which": which, "bracket": (left, right), "values": (at_a[k], at_b[k]),
                "probes": probes}

    # A stable sort: on a tie the "max" edge stays the lower one.
    lo_cert, hi_cert = sorted([edge("max", 1), edge("min", 0)], key=lambda e: sum(e["bracket"]))
    (lo_l, lo_r), (hi_l, hi_r) = lo_cert["bracket"], hi_cert["bracket"]
    return ModeLockInterval(p=p, q=q, lo=min(lo_l, hi_l), hi=max(lo_r, hi_r), tol=tol,
                            certificates={"lo": lo_cert, "hi": hi_cert})
