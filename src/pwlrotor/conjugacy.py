"""Conjugacy of PWL circle maps to rigid rational rotations.

The criterion driving everything here: a PWL circle homeomorphism with
rotation number ``p/q`` is conjugate to the rigid rotation by ``p/q``
through a PWL change of coordinates exactly when every genuine break
point lies on a periodic orbit — equivalently, when ``F^q = x + p``
identically.  The restricted-pair search certifies ``p/q``, and each
genuine break's orbit walked ``q`` steps through ``F`` by
:func:`lift.orbit_points` (at most ``n*q`` evaluations) either closes or
misses itself by a :func:`lift.drift`, the evidence that the map is not
conjugate.  Float data keep one guard that exact algebra does not need
(the backend's ``rounding_doubt``): a walk closes within ``eps_x``, a
drift must clear ``ORBIT_TOL`` and the walk's rounding bound, and the walks
must agree with the search's arc, or the verdict is :class:`Undecided`.

When the test passes, the break orbits partition the break set into
``K <= n/2`` classes, each carrying at least two breaks and a jump-ratio
product of 1 (the trivial cancellations).  Their ``N = q*K`` sorted
points carry all that the conjugacy and the density need, since ``f``
carries point ``j`` onto point ``j + p*K (mod N)`` (so the orbit of point
``j`` is its class ``j mod K``), and each cell between adjacent orbit
points affinely onto the next cell of its cycle, so the invariant
probability measure gives each cell the mass ``L / q``, ``L`` the total
length of its cycle.  The conjugacy ``h`` of :func:`build_conjugacy` is
the distribution function of that measure, normalised by ``h(b_1) = 0``
for ``b_1`` the first break of the first orbit, and the density of
:func:`invariant_density` is the slopes of ``h``: both come from the one
private ``_distribution``.  :func:`verify_invariance` checks a density
against the map over all arcs at once, from the one composition
``Phi o F`` with its cumulative ``Phi``.

The float orbit band ``ORBIT_TOL`` and the mass band ``MASS_TOL`` live
in :mod:`pwlrotor.backend` with the other bands, and the default search
depth :data:`Q_CAP` is a module constant; only :func:`is_conjugate_to_rigid`
takes a depth (the ``q_cap`` job key).

For maps that are *not* conjugate, the growth diagnostics expose the
failure quantitatively: break counts of the iterates stay bounded by
``q*K`` in the conjugate case but grow without bound otherwise, and the
one-sided derivatives ``(F^{qm})'`` blow up geometrically at periodic
points with a slope above 1.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from . import errors
from .backend import MASS_TOL, ORBIT_TOL, Num, Record, to_json
from .lift import (
    PwlLift,
    canonicalize,
    cell_ends,
    compose,
    drift,
    frac,
    jump_product,
    make_lift,
    orbit_points,
    piece,
    rigid,
)
from .rotation import RotationResult, _pair_search

#: Largest denominator the rotation search tries when no ``(p, q)`` is given.
Q_CAP = 64


@dataclass(frozen=True)
class OrbitPoint(Record):
    x: Num
    is_break: bool
    break_index: Optional[int]
    orbit: int


@dataclass(frozen=True)
class NotPeriodic(Record):
    """Evidence that a break orbit fails to close after ``q`` steps."""

    break_index: int
    point: Num
    drift: Num
    q: int


@dataclass(frozen=True)
class OrbitPartition(Record):
    """Break points grouped by shared periodic orbit.

    ``orbits`` lists, per orbit class, the indices of the genuine breaks
    of ``f`` riding on it; ``points`` enumerates all ``q * K`` orbit
    points in circle order, marking which are breaks.
    """

    p: int
    q: int
    orbits: tuple
    points: tuple

    @property
    def K(self) -> int:
        return len(self.orbits)

    def landmarks(self) -> list:
        return [pt.x for pt in self.points]


def _nearest(xs: list, x) -> int:
    """Index of the sorted circle point of ``xs`` nearest to ``x``, across the 0/1 wrap."""
    t = bisect_left(xs, x) % len(xs)
    return min(t, (t - 1) % len(xs), key=lambda j: abs(drift(xs[j], x)))


def _rounding_bound(f: PwlLift, b, q: int) -> float:
    """A bound on how far the float walk of ``q`` steps from ``b`` lies from
    the orbit of ``b`` under the exact reading of the float data: each step
    multiplies the bound by the largest slope near the walked point and adds
    the step's own rounding, a few ulps of its value."""
    x, err = b, 0.0
    for _ in range(q):
        if 2 * err >= 1:  # no drift in [-1/2, 1/2] clears it, and it would overflow
            return err
        k, j = (piece(f.breaks, frac(x + t)) for t in (-err, err))
        s = max(f.slopes[k], f.slopes[j]) if (j - k) % f.n < 2 else max(f.slopes)
        y = f(x)
        err, x = s * err + 8 * math.ulp(abs(y) + 1), frac(y)
    return err + math.ulp(1.0)


def _float_doubt(f: PwlLift, part, arc_rigid: Optional[bool]) -> Optional[str]:
    """Why rounding puts the walked reading ``part`` in doubt, or None.

    A :class:`NotPeriodic` drift (more than ``eps_x``) must clear ``ORBIT_TOL``
    and the walk's :func:`_rounding_bound`.  Closed walks must not meet a hit
    whose arc is not ``x + p`` to ``eps_x`` (``arc_rigid`` False; None when no
    search ran), and the points must lie more than twice ``ORBIT_TOL`` apart:
    no break lies near a point it did not ride on.
    """
    if isinstance(part, NotPeriodic):
        walked = "the orbit of break %d walked forward moves it by %s" % (part.break_index,
                                                                          part.drift)
        if f.backend.sign(abs(part.drift), ORBIT_TOL) != 1:
            return walked + ": more than eps_x, within ORBIT_TOL"
        bound = _rounding_bound(f, part.point, part.q)
        if f.backend.sign(abs(part.drift), bound) != 1:
            return walked + ", within its rounding bound %s" % bound
        return None
    if arc_rigid is False:
        return "F^%d is not x + %d to eps_x on the arc, but every break orbit walked forward " \
               "closes" % (part.q, part.p)
    xs = part.landmarks()
    for a, b in zip(xs, cell_ends(xs) if xs else ()):
        if f.backend.sign(b - a, 2 * ORBIT_TOL) != 1:
            return "break orbit points %s and %s lie within twice ORBIT_TOL" % (a, b)
    return None


def _walk_orbits(f: PwlLift, p: int, q: int) -> Union[OrbitPartition, NotPeriodic]:
    """The break-orbit partition of ``f`` at ``p/q`` in lowest terms, walked
    ``q`` steps through ``f`` from each genuine break on no orbit walked
    before (at most ``n*q`` evaluations), or :class:`NotPeriodic` for the
    first walk whose :func:`drift` is not 0.

    Equal is ``eq_point`` (within ``eps_x`` in floats).  A break equal to an
    unmarked point of an orbit walked before rides on that orbit and marks
    the point, and the ``q*K`` points are sorted.
    """
    eq = f.backend.eq_point
    xs, tags, orbits = [], [], []  # sorted orbit points, their [orbit, break]; breaks per orbit
    for i in f.genuine_break_indices():
        b = f.breaks[i]
        j = _nearest(xs, b) if xs else None
        if j is not None and tags[j][1] is None and eq(drift(xs[j], b), 0):
            orbits[tags[j][0]].append(i)
            tags[j][1] = i
            continue
        pts = orbit_points(f, b, q + 1)
        miss = drift(b, pts.pop())
        if not eq(miss, 0):
            return NotPeriodic(break_index=i, point=b, drift=miss, q=q)
        for k, x in enumerate(pts):
            t = bisect_left(xs, x)
            xs.insert(t, x)
            tags.insert(t, [len(orbits), i if k == 0 else None])
        orbits.append([i])
    points = (OrbitPoint(x=x, is_break=brk is not None, break_index=brk, orbit=r)
              for x, (r, brk) in zip(xs, tags))
    return OrbitPartition(p=p, q=q, orbits=tuple(map(tuple, orbits)), points=tuple(points))


def _walked_partition(f: PwlLift, p: int, q: int, arc_rigid: Optional[bool] = None
                      ) -> Union[OrbitPartition, NotPeriodic, Undecided]:
    """:func:`_walk_orbits`, or :class:`Undecided` when float data fail
    :func:`_float_doubt` with the arc reading ``arc_rigid``."""
    part = _walk_orbits(f, p, q)
    doubt = f.backend.rounding_doubt(lambda: _float_doubt(f, part, arc_rigid))
    return part if doubt is None else Undecided(reason=doubt)


@dataclass(frozen=True)
class Conjugate(Record):
    verdict: str = field(default="conjugate", init=False)
    p: int
    q: int
    partition: OrbitPartition


@dataclass(frozen=True)
class NotConjugate(Record):
    verdict: str = field(default="not_conjugate", init=False)
    reason: str
    p: Optional[int] = None
    q: Optional[int] = None
    evidence: Optional[NotPeriodic] = None


@dataclass(frozen=True)
class Undecided(Record):
    verdict: str = field(default="undecided", init=False)
    reason: str
    enclosure: Optional[RotationResult] = None


Verdict = Union[Conjugate, NotConjugate, Undecided]


def _exhausted(rr: RotationResult, q_cap: int) -> bool:
    """The search's enclosure ``rr`` stopped at ``q_cap``, not at a float sign in the band."""
    return rr.kind != "exact" and rr.lo.denominator + rr.hi.denominator > q_cap


def is_conjugate_to_rigid(f: PwlLift, q_cap: int = Q_CAP) -> Verdict:
    """Decide conjugacy to a rigid rational rotation.

    The restricted-pair search certifies ``p/q``, and the partition is
    walked from each genuine break ``q`` steps through ``f``: the first
    break whose orbit misses itself makes the map :class:`NotConjugate`.
    A search that ends in an enclosure gives :class:`Undecided`, whose
    reason says what stopped it: ``q_cap``, or a float sign inside the
    decision band; so does a float reading in doubt, naming the failed
    check, with the search's exact result as enclosure.  Raises ValueError
    when ``q_cap < 1``.
    """
    rr, arc_rigid = _pair_search(f, q_cap)
    if rr.kind != "exact":
        if _exhausted(rr, q_cap):
            reason = "rotation number not certified rational within q <= %d" % q_cap
        else:
            reason = ("rotation number not certified rational: a float sign inside the "
                      "decision band stopped the search before q <= %d was exhausted" % q_cap)
        return Undecided(reason=reason, enclosure=rr)
    part = _walked_partition(f, rr.p, rr.q, arc_rigid)
    if isinstance(part, NotPeriodic):
        return NotConjugate(reason="break point %d is not periodic (drift %s after %d steps)"
                            % (part.break_index, part.drift, rr.q), p=rr.p, q=rr.q, evidence=part)
    if isinstance(part, Undecided):
        return replace(part, enclosure=rr)
    return Conjugate(p=rr.p, q=rr.q, partition=part)


def break_orbit_partition(f: PwlLift) -> Union[OrbitPartition, NotPeriodic]:
    """Partition the genuine breaks of ``f`` by periodic orbit: the verdict
    :func:`is_conjugate_to_rigid` within :data:`Q_CAP` reads.

    Gives a :class:`Conjugate` verdict's partition, or a :class:`NotConjugate`
    one's :class:`NotPeriodic` evidence (the first break whose orbit misses
    itself, with its drift).  An :class:`Undecided` one raises
    :class:`errors.RotationIrrational` when the search ran out of
    :data:`Q_CAP`, else :class:`errors.PrecisionLoss` with its reason.
    """
    v = is_conjugate_to_rigid(f)
    if isinstance(v, Conjugate):
        return v.partition
    if isinstance(v, NotConjugate):
        return v.evidence
    rr = v.enclosure
    if _exhausted(rr, Q_CAP):
        raise errors.RotationIrrational("%s: [%s, %s]" % (v.reason, rr.lo, rr.hi))
    raise errors.PrecisionLoss(v.reason)


def _certified_partition(f: PwlLift, q: Optional[int] = None) -> OrbitPartition:
    """The break-orbit partition of ``f`` at its rotation number: the one
    certified within :data:`Q_CAP` or, given ``q``, the one walked at
    ``(F^q(b) - b)/q`` in lowest terms for the first genuine break ``b``
    (the first marked point when there is none).

    Raises :class:`errors.NotConjugateError` when a break orbit does not
    close, ValueError when ``q < 1``, what :func:`break_orbit_partition`
    raises when there is no partition to read, and
    :class:`errors.PrecisionLoss` when floats leave the walk in doubt.
    """
    if q is None:
        part = break_orbit_partition(f)
    else:
        if q < 1:
            raise ValueError("the period q must be >= 1, got %d" % q)
        genuine = f.genuine_break_indices()
        b = x = f.breaks[genuine[0] if genuine else 0]
        for _ in range(q):
            x = f(x)
        r = Fraction(round(x - b), q)
        part = _walked_partition(f, r.numerator, r.denominator)
        if isinstance(part, Undecided):
            raise errors.PrecisionLoss(part.reason)
    if isinstance(part, NotPeriodic):
        raise errors.NotConjugateError("break %d is not periodic (drift %s after %d steps)"
                                       % (part.break_index, part.drift, part.q))
    return part


@dataclass(frozen=True)
class CancellationCheck:
    """Jump-ratio products: per orbit class and over all breaks."""

    global_product: Num
    per_orbit: tuple


def check_trivial_cancellations(f: PwlLift, partition: OrbitPartition) -> CancellationCheck:
    """Each orbit class must cancel its jumps: product of ratios = 1.

    Exact backend: literal equality holds (assert it upstream if wanted).
    Float backend: expect agreement to roughly ``n`` rounding errors.
    """
    per = tuple(jump_product(f, orbit) for orbit in partition.orbits)
    return CancellationCheck(global_product=jump_product(f), per_orbit=per)


def _distribution(f: PwlLift, partition: OrbitPartition) -> PwlLift:
    """The distribution function ``Phi`` of the invariant probability
    measure of ``f``, with ``Phi(b_1) = 0`` for ``b_1`` the first break of
    the first orbit; the identity when there is no orbit.

    ``Phi`` is affine between the ``N = q*K`` sorted orbit points.  Each run
    of ``K`` of them holds one point of each orbit, so the cells from point
    ``j`` to ``j + 1`` with ``j = r (mod K)`` form one cycle of ``F``, and
    each carries the mass ``L(r) / q``, ``L(r)`` their total length.

    Raises :class:`errors.InternalMismatch` when a run of ``K`` points
    misses an orbit, or when the masses do not add up to 1.
    """
    backend = f.backend
    zero = backend.coerce(0)
    if partition.K == 0:
        return rigid(zero, backend)

    q, K = partition.q, partition.K
    xs = partition.landmarks()
    N = len(xs)
    orbit = [pt.orbit for pt in partition.points]
    cyclic = orbit + orbit[:K]
    if any(len(set(cyclic[j:j + K])) != K for j in range(N)):
        raise errors.InternalMismatch("a run of %d sorted orbit points misses an orbit" % K)

    lengths = [end - x for x, end in zip(xs, cell_ends(xs))]
    cell_mass = [sum(lengths[r::K], zero) / q for r in range(K)]
    j1 = xs.index(f.breaks[partition.orbits[0][0]])
    values = [zero] * N
    total = zero
    for j in list(range(j1, N)) + list(range(j1)):
        values[j] = total - 1 if j < j1 else total
        total += cell_mass[j % K]
    if backend.sign(abs(total - 1), MASS_TOL) == 1:
        raise errors.InternalMismatch("invariant density mass came out as %s" % (total,))
    return make_lift(xs, values, backend)


def build_conjugacy(f: PwlLift, partition: Optional[OrbitPartition] = None) -> PwlLift:
    """Construct the PWL conjugacy ``h`` with ``h o f = r_{p/q} o h``.

    ``h`` is the distribution function of the invariant probability
    measure, whose slopes :func:`invariant_density` gives, normalised by
    ``h(b_1) = 0`` for ``b_1`` the first break of the first orbit.  ``F``
    carries each cell between sorted orbit points onto the cell of equal
    mass ``p*K`` cells on, and those ``p*K`` cells hold mass ``p/q``.  It
    is read off the break-orbit partition, certified within :data:`Q_CAP`
    when not given; a map with no genuine break gets the identity.

    Raises :class:`errors.NotConjugateError` when the map is not conjugate.
    """
    if partition is None:
        partition = _certified_partition(f)
    return _distribution(f, partition)


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """A density on the circle, constant between cuts.

    ``values[j]`` is the density on ``[cuts[j], cuts[j+1])`` (cyclically);
    total mass is normalised to 1.
    """

    cuts: tuple
    values: tuple
    backend: object

    @property
    def n(self) -> int:
        return len(self.cuts)

    def __call__(self, x) -> Num:
        return self.values[piece(self.cuts, frac(self.backend.coerce(x)))]

    def mass(self) -> Num:
        total = self.backend.coerce(0)
        for rho, x, end in zip(self.values, self.cuts, cell_ends(self.cuts)):
            total += rho * (end - x)
        return total

    def cdf_lift(self) -> PwlLift:
        """The cumulative distribution as a degree-one lift.

        Mass 1 makes ``Phi(x + 1) = Phi(x) + 1``; arc measures are then
        ``Phi(v) - Phi(u)`` with wraparound handled by the lift itself.

        Raises:
            ValueError: the mass is not 1 (to within ``MASS_TOL`` in floats).
        """
        mass = self.mass()
        if self.backend.sign(abs(mass - 1), MASS_TOL) == 1:
            raise ValueError("a density of mass %s has no degree-one distribution lift" % (mass,))
        acc = self.backend.coerce(0)
        vals = [acc]
        for j in range(self.n - 1):
            acc = acc + self.values[j] * (self.cuts[j + 1] - self.cuts[j])
            vals.append(acc)
        return make_lift(list(self.cuts), vals, self.backend)

    def to_json(self) -> dict:
        return to_json({"cuts": self.cuts, "densities": self.values, "backend": self.backend})


def invariant_density(
    f: PwlLift, q: Optional[int] = None, partition: Optional[OrbitPartition] = None
) -> PiecewiseConstantDensity:
    """Density of the absolutely continuous invariant probability measure.

    ``cuts`` and ``values`` are the genuine breaks and the slopes of the
    conjugacy ``h`` of :func:`build_conjugacy`, the distribution function
    of the measure ``(1/q) sum_{k<q} f_*^k (Lebesgue)``.  The cell ``C_j``
    between sorted orbit points ``j`` and ``j + 1`` gets

        rho(C_j) = L(j mod K) / (q * |C_j|),

    ``L(r)`` the total length of the cells in class ``r``.  The mass is 1
    (exactly, in the exact backend); :func:`canonicalize` merges
    neighbours of equal density.

    ``partition`` is the one a verdict certified.  Without it the partition
    is built at the rotation number certified within :data:`Q_CAP` or, given
    ``q``, at ``(F^q(b) - b)/q`` in lowest terms for a genuine break ``b``.
    A map with no genuine break gets the uniform density.

    Raises :class:`errors.NotConjugateError` when a break orbit does not
    close, and ValueError when ``q < 1``.
    """
    if partition is None:
        partition = _certified_partition(f, q)
    phi = canonicalize(_distribution(f, partition))
    backend = f.backend
    if phi.is_rigid:
        return PiecewiseConstantDensity(
            cuts=(backend.coerce(0),), values=(backend.coerce(1),), backend=backend
        )
    return PiecewiseConstantDensity(cuts=phi.breaks, values=phi.slopes, backend=backend)


def verify_invariance(f: PwlLift, density: PiecewiseConstantDensity) -> Num:
    """Supremum of ``|nu(A) - nu(f^{-1} A)|`` over all arcs ``A``.

    ``nu`` is the measure of ``density``, ``Phi`` its cumulative lift.  With
    ``A = [F(u), F(v)]`` the discrepancy is ``|D(v) - D(u)|`` for
    ``D = Phi o F - Phi``, so the supremum is the oscillation ``max D - min D``.
    ``D`` is PWL, with kinks at the marked points of ``G = Phi o F`` (one
    composition) and at the density's cuts: one merged walk over both
    accumulates it by ``(G' - rho) * dx``.
    Exact backend: the defect is exactly zero for a correct density.
    Float backend: expect a few units of rounding noise.
    """
    g = compose(density.cdf_lift(), f)
    gx, gs = g.breaks, g.slopes
    cuts, rho = density.cuts, density.values
    zero = f.backend.coerce(0)
    x = d = lo = hi = zero
    i = j = -1  # pieces of G and rho holding [x, next point); -1 is the wrap piece
    while True:
        while i + 1 < len(gx) and gx[i + 1] <= x:
            i += 1
        while j + 1 < len(cuts) and cuts[j + 1] <= x:
            j += 1
        nxt = min(gx[i + 1] if i + 1 < len(gx) else 1, cuts[j + 1] if j + 1 < len(cuts) else 1)
        d += (gs[i] - rho[j]) * (nxt - x)
        lo, hi = min(lo, d), max(hi, d)
        if nxt == 1:
            return hi - lo
        x = nxt


def _canonical_iterates(f: PwlLift, k_max: int):
    P = None
    for _ in range(k_max):
        P = canonicalize(f if P is None else compose(P, f))
        yield P


def break_count_growth(f: PwlLift, k_max: int) -> list:
    """Genuine break counts of ``f^k`` for ``k = 1..k_max``.

    Bounded by ``q*K`` along conjugate maps; grows linearly otherwise.
    """
    counts = []
    for P in _canonical_iterates(f, k_max):
        counts.append(0 if P.is_rigid else P.n)
    return counts


def derivative_growth(f: PwlLift, k_max: int) -> list:
    """Maximal one-sided slope of ``F^k`` for ``k = 1..k_max``.

    Conjugate maps stay below ``max_slope**(q-1)``; locked non-conjugate
    maps grow geometrically (powers of ``(F^q)'`` at a periodic point).
    """
    out = []
    for P in _canonical_iterates(f, k_max):
        out.append(max(P.slopes))
    return out
