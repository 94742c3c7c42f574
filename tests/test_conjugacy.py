"""Conjugacy to rigid rotations: partitions, verdicts, h, densities, growth."""
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

import pwlrotor as pr
from pwlrotor import conjugacy, errors
from pwlrotor.backend import ORBIT_TOL, RationalBackend
from pwlrotor.conjugacy import OrbitPoint
from pwlrotor.lift import piece

from conftest import conjugate_maps, float_copy, rational_grid, rational_lifts
from test_rotation import full_walk, seeded_conjugate_map

LOCKED = pr.herman_offset(Fr(1, 2), Fr(1, 50)).lift(Fr(1, 200))  # rho = 1/2, not conjugate
LOCKED_MAPS = [pr.herman_shifted(Fr(3, 2)).lift(Fr(-4, 25)), LOCKED,
               pr.refraction(2.0, 1.14).lift(0.0)]
LOCKED_IDS = ["herman_32_locked", "herman_offset_locked", "refraction_locked"]

# h^-1 o R_{10/17} o h for h through (13/97, 43/97) and (18/97, 139/97).  Its
# float copy keeps a piece of F^17 with slope 0.99999999935 although
# |F^17(x) - x - 10| <= 5e-13 everywhere.
CONJ_10_17 = pr.make_lift(
    [Fr(78, 97), Fr(110940, 136867), Fr(111416, 136867), Fr(80, 97)],
    [Fr(111998, 136867), Fr(80, 97), Fr(175, 97), Fr(248389, 136867)],
)


def conjugate_to(rho, breaks, values):
    """``h^-1 o R_rho o h`` for the exact lift ``h`` through ``(breaks, values)``."""
    h = pr.make_lift(breaks, values)
    return pr.compose(pr.invert(h), pr.compose(pr.rigid(rho), h))


# Float copies of these maps defeat a second, separately rounded F^q:
# power(f, 33) of the first has a marked point 1.6e-12 off x + 31 although
# the break orbits close, and power(f, 13) of the second loses monotonicity.
CONJ_31_33 = conjugate_to(
    Fr(31, 33), [Fr(34, 101), Fr(41, 101), Fr(42, 101)],
    [Fr(57, 101), Fr(2049, 2020), Fr(1479, 1010)],
)
CONJ_9_13 = conjugate_to(
    Fr(9, 13), [Fr(367, 997), Fr(689, 997), Fr(690, 997)],
    [Fr(59, 997), Fr(721, 997), Fr(1051, 997)],
)


class TestBreakOrbitPartition:
    def test_coelho_single_orbit(self, coelho_q3):
        part = pr.break_orbit_partition(coelho_q3)
        assert isinstance(part, pr.OrbitPartition)
        assert (part.p, part.q, part.K) == (1, 3, 1)
        assert part.landmarks() == [Fr(0), Fr(1, 7), Fr(3, 7)]

    def test_critical_refraction_single_orbit(self, refr_critical):
        f = refr_critical.lift(0.0)
        part = pr.break_orbit_partition(f)
        assert isinstance(part, pr.OrbitPartition)
        assert (part.p, part.q, part.K) == (4, 5, 1)
        marks = part.landmarks()
        assert len(marks) == 5
        for b in f.breaks:
            assert min(abs(b - x) for x in marks) < 1e-9

    def test_herman_closure(self, herman_32):
        part = pr.break_orbit_partition(herman_32.lift(0))
        assert (part.p, part.q, part.K) == (1, 2, 1)
        assert part.landmarks() == [Fr(0), Fr(2, 5)]

    def test_locked_map_reports_drift(self):
        res = pr.break_orbit_partition(LOCKED)
        assert isinstance(res, pr.NotPeriodic)
        assert res.q == 2
        assert res.drift != 0
        j = res.to_json()
        assert j["q"] == 2 and j["drift"] == "3/400"

    def test_drift_wraps_into_the_half_turn(self):
        # rho = 0/1 and the break 17/30 lands on 0: the drift -17/30 is
        # 13/30 one turn up
        f = pr.make_lift([Fr(17, 30), Fr(41, 60), Fr(11, 15)], [Fr(0), Fr(7, 30), Fr(49, 60)])
        res = pr.break_orbit_partition(f)
        assert res == pr.NotPeriodic(break_index=0, point=Fr(17, 30), drift=Fr(13, 30), q=1)

    @pytest.mark.parametrize("breaks, values, drift", [
        ([Fr(3, 5), Fr(7, 10), Fr(4, 5)], [Fr(1, 10), Fr(1, 5), Fr(9, 10)], Fr(-1, 2)),
        ([Fr(1, 5), Fr(3, 10), Fr(9, 10)], [Fr(7, 10), Fr(3, 4), Fr(4, 5)], Fr(1, 2)),
    ], ids=["down", "up"])
    def test_drift_of_half_a_turn(self, breaks, values, drift):
        # rho = 0/1 and the first break lands half a turn round: the drift
        # is where its image lies in [0, 1) less the break, as a walk sees it
        res = pr.break_orbit_partition(pr.make_lift(breaks, values))
        assert res == pr.NotPeriodic(break_index=0, point=breaks[0], drift=drift, q=1)

    def test_unresolvable_rotation_raises(self):
        f = pr.coelho(Fr(3, 10), Fr(11, 20)).lift(0)
        # the search runs out of q <= 64 at its Farey enclosure [22/59, 3/8]
        with pytest.raises(errors.RotationIrrational) as exc:
            pr.break_orbit_partition(f)
        assert str(exc.value) == ("rotation number not certified rational within q <= 64: "
                                  "[22/59, 3/8]")

    def test_partition_json(self, coelho_q3):
        j = pr.break_orbit_partition(coelho_q3).to_json()
        assert j["p"] == 1 and j["q"] == 3
        assert len(j["orbits"]) == 1


def check_well_ordered(orbit_pts, p, q):
    """Each orbit must be combinatorially a rigid p/q orbit: sorting it and
    following one application of the map advances the sorted position by
    exactly ``p`` mod ``q``."""
    for pts in orbit_pts:
        order = sorted(range(q), key=lambda j: pts[j])
        pos = {j: t for t, j in enumerate(order)}
        for j in range(q):
            if (pos[(j + 1) % q] - pos[j]) % q != p % q:
                raise errors.InternalMismatch(
                    "orbit points are not well-ordered as a %d/%d rotation orbit" % (p, q)
                )


def scanned_partition(f, p, q):
    """The partition by walking every break orbit and two quadratic scans,
    the reference for the walk of ``conjugacy``: a break joins the first orbit
    holding a point near it, and an orbit point marks the first genuine
    break near it."""

    def near(a, b):
        d = abs(a - b)
        return f.backend.sign(d if 2 * d <= 1 else 1 - d, ORBIT_TOL) != 1

    genuine = f.genuine_break_indices()
    if not genuine:
        return pr.OrbitPartition(p=p, q=q, orbits=(), points=())
    orbit_of, orbit_pts = {}, []
    for i in genuine:
        b = f.breaks[i]
        pts = [b]
        for _ in range(q - 1):
            pts.append(pr.frac(f(pts[-1])))
        closure = pr.frac(f(pts[-1]))
        if not near(closure, b):
            signed = closure - b
            if signed > Fr(1, 2):
                signed -= 1
            elif signed < -Fr(1, 2):
                signed += 1
            return pr.NotPeriodic(break_index=i, point=b, drift=signed, q=q)
        hits = [r for r, existing in enumerate(orbit_pts) if any(near(b, x) for x in existing)]
        orbit_of[i] = hits[0] if hits else len(orbit_pts)
        if not hits:
            orbit_pts.append(pts)
    orbits = tuple(tuple(i for i in genuine if orbit_of[i] == r) for r in range(len(orbit_pts)))
    points = []
    for r, pts in enumerate(orbit_pts):
        for x in pts:
            brk = next((i for i in genuine if near(x, f.breaks[i])), None)
            points.append(OrbitPoint(x=x, is_break=brk is not None, break_index=brk, orbit=r))
    points.sort(key=lambda pt: pt.x)
    check_well_ordered(orbit_pts, p, q)
    return pr.OrbitPartition(p=p, q=q, orbits=orbits, points=tuple(points))


def assert_same_partition(f, p, q, refusals=()):
    """The walked partition is the scanned one, bit for bit in both backends,
    and so is the first break whose orbit misses itself.  Float data may be
    left in doubt instead only when its reason names one of ``refusals``:
    the :class:`pr.Undecided` is returned."""
    got = conjugacy._walked_partition(f, p, q)
    if isinstance(got, pr.Undecided):
        assert not isinstance(f.backend, RationalBackend)
        assert any(why in got.reason for why in refusals), got.reason
        return got
    want = scanned_partition(f, p, q)
    assert got == want
    assert got.to_json() == want.to_json()
    return got


# What a float walk of breaks closer than ORBIT_TOL may be refused on: the
# checks of the float guard.
REFUSALS = ("walked forward moves it by", "lie within twice ORBIT_TOL")


def near_band_map(gap, rho):
    """``h^-1 o R_rho o h`` for ``h`` through (1/3, 1/5), (1/3 + gap, 1/2)
    and (3/4, 4/5): two break orbits ``gap`` apart, closer than ``ORBIT_TOL``."""
    return conjugate_to(rho, [Fr(1, 3), Fr(1, 3) + gap, Fr(3, 4)], [Fr(1, 5), Fr(1, 2), Fr(4, 5)])


NEAR_BAND = [(gap, Fr(p, q)) for gap in (Fr(1, 10**10), Fr(3, 10**10))
             for q in range(2, 9) for p in range(1, q) if math.gcd(p, q) == 1]


def rotated(f, t, lift_by):
    """Float copy of ``x -> f(x + t) - t + lift_by`` for an exact ``f``."""
    g = pr.compose(pr.rigid(-t), pr.compose(f, pr.rigid(t)))
    return pr.make_lift([float(b) for b in g.breaks],
                        [float(v) + lift_by for v in g.values], pr.FLOAT)


class TestLookupMatchesScan:
    """The walked partition is the scanned one, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(conjugate_maps(q_max=9))
    def test_conjugate_maps_exact_and_float(self, case):
        f, p, q = case
        for g in (f, float_copy(f)):
            assert isinstance(assert_same_partition(g, p, q), pr.OrbitPartition)

    @settings(max_examples=60, deadline=None)
    @given(rational_lifts(max_pieces=4))
    def test_random_lifts(self, f):
        # a float walk may only be refused on its rounding bound, where the
        # exact walk misses itself at the same break
        rr = pr.exact_rotation(f, q_max=12)
        if rr.kind == "exact":
            exact = assert_same_partition(f, rr.p, rr.q)
            rounded = assert_same_partition(float_copy(f), rr.p, rr.q,
                                            refusals=("within its rounding bound",))
            if isinstance(rounded, pr.Undecided):
                assert isinstance(exact, pr.NotPeriodic)
                assert rounded.reason.startswith("the orbit of break %d " % exact.break_index)

    @pytest.mark.parametrize("f", LOCKED_MAPS, ids=LOCKED_IDS)
    def test_locked_maps_report_the_same_drift(self, f):
        rr = pr.exact_rotation(f)
        exact, rounded = (assert_same_partition(g, rr.p, rr.q) for g in (f, float_copy(f)))
        assert isinstance(exact, pr.NotPeriodic) and isinstance(rounded, pr.NotPeriodic)
        assert rounded.break_index == exact.break_index
        assert abs(rounded.drift - float(exact.drift)) <= ORBIT_TOL

    @pytest.mark.parametrize("gap", [Fr(1, 10**10), Fr(3, 10**10)])
    def test_float_breaks_closer_than_the_band(self, gap):
        # h's breaks 1/3 and 1/3 + gap give f pairs of breaks within
        # ORBIT_TOL, and a piece of slope up to 4.4e9, so a float walk can
        # miss itself by 2.4e-7 while the exact orbit closes.  Every float
        # verdict is undecided: a search stopped short of p/q, or a walk the
        # float guard refuses, as the walk at p/q without the arc is.
        for rho in (rho for g, rho in NEAR_BAND if g == gap):
            f = near_band_map(gap, rho)
            p, q = rho.numerator, rho.denominator
            exact = pr.is_conjugate_to_rigid(f)
            assert isinstance(exact, pr.Conjugate) and Fr(exact.p, exact.q) == rho
            assert assert_same_partition(f, p, q) == exact.partition
            g = float_copy(f)
            walked = assert_same_partition(g, p, q, REFUSALS)
            v = pr.is_conjugate_to_rigid(g)
            assert isinstance(v, pr.Undecided), v
            if v.enclosure.kind == "exact":  # the search certified p/q, then doubted
                assert (v.enclosure.p, v.enclosure.q) == (p, q)
                assert any(why in v.reason for why in REFUSALS), v.reason
                assert isinstance(walked, pr.Undecided)

    def test_float_points_near_a_break_across_the_wrap(self):
        # coelho(1/7, 3/7) carries 3/7 onto 0: turned by t and lifted by
        # delta, its break at 1 - t meets an orbit point at delta - t, and
        # the walked point nearest to it may lie across the 0/1 wrap
        f = pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0)
        wrapped = 0
        for t in (Fr(1, 10**11), Fr(-1, 10**11), Fr(3, 10**10)):
            for delta in (-3e-11, 0.0, 3e-11, 2e-10):
                g = rotated(f, t, delta)
                part = assert_same_partition(g, 1, 3, REFUSALS)
                if isinstance(part, pr.OrbitPartition):
                    wrapped += sum(pt.is_break and 1 - pt.x <= ORBIT_TOL for pt in part.points)
        assert wrapped > 0


class TestVerdicts:
    CONJUGATE = [
        pr.coelho(Fr(1, 3), Fr(1, 3)).lift(0),
        pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0),
        pr.herman_shifted(Fr(3, 2)).lift(0),
        pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(0.0),
    ]
    NOT_CONJUGATE = [
        LOCKED,
        pr.refraction(2.0, 1.14).lift(0.0),
    ]

    @pytest.mark.parametrize("idx", range(len(CONJUGATE)))
    def test_conjugate_iff_power_is_rigid(self, idx):
        # the partition route and the canonical-power route must agree
        f = self.CONJUGATE[idx]
        v = pr.is_conjugate_to_rigid(f)
        assert isinstance(v, pr.Conjugate)
        P = pr.canonicalize(pr.power(f, v.q))
        assert P.is_rigid
        assert f.backend.eq_point(P.rigid_shift, v.p)

    @pytest.mark.parametrize("idx", range(len(NOT_CONJUGATE)))
    def test_not_conjugate_iff_power_is_not_rigid(self, idx):
        f = self.NOT_CONJUGATE[idx]
        v = pr.is_conjugate_to_rigid(f)
        assert isinstance(v, pr.NotConjugate)
        assert not pr.canonicalize(pr.power(f, v.q)).is_rigid

    @pytest.mark.parametrize(
        "conj, p, q, float_verdict",
        [(CONJ_10_17, 10, 17, pr.Conjugate), (CONJ_31_33, 31, 33, pr.Conjugate),
         (CONJ_9_13, 9, 13, pr.Undecided)],
        ids=["10_17", "31_33", "9_13"],
    )
    def test_float_power_check_decides_on_positions(self, conj, p, q, float_verdict):
        # the float copy of CONJ_9_13 has an arc sign inside the decision
        # band at 9/13, so its search stops at [2/3, 7/10]
        for f, kind in ((conj, pr.Conjugate), (float_copy(conj), float_verdict)):
            v = pr.is_conjugate_to_rigid(f)
            assert isinstance(v, kind)
            if kind is pr.Undecided:
                assert "decision band" in v.reason
                assert (v.enclosure.lo, v.enclosure.hi) == (Fr(2, 3), Fr(7, 10))
                continue
            assert (v.p, v.q) == (p, q)
            rho = pr.invariant_density(f, partition=v.partition)
            assert abs(float(rho.mass()) - 1) <= 1e-12

    @pytest.mark.parametrize(
        "f",
        [pr.herman_shifted(Fr(3, 2)).lift(0), pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0)],
        ids=["herman_32", "coelho_q3"],
    )
    def test_verdict_composes_no_more_than_its_search(self, f, monkeypatch):
        # the F^q rigidity certificate comes from the rotation search, so a
        # verdict adds no composition of its own (no second power(f, q))
        calls = []
        compose = pr.lift.compose

        def counted(*args, **kwargs):
            calls.append(1)
            return compose(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("pwlrotor") and vars(module).get("compose") is compose:
                monkeypatch.setattr(module, "compose", counted)
        v = pr.is_conjugate_to_rigid(f)
        monkeypatch.undo()
        assert isinstance(v, pr.Conjugate)
        assert len(calls) == pr.exact_rotation(f).iterations

    def test_undecided_when_no_rational_certificate(self):
        f = pr.coelho(Fr(3, 10), Fr(11, 20)).lift(0)
        v = pr.is_conjugate_to_rigid(f, q_cap=30)
        assert isinstance(v, pr.Undecided)
        assert v.enclosure is not None

    def test_verdict_json_tags(self):
        assert pr.is_conjugate_to_rigid(self.CONJUGATE[0]).to_json()["verdict"] == "conjugate"
        assert pr.is_conjugate_to_rigid(LOCKED).to_json()["verdict"] == "not_conjugate"

    def test_cancellations_multiply_to_one(self):
        for f in self.CONJUGATE:
            v = pr.is_conjugate_to_rigid(f)
            chk = pr.check_trivial_cancellations(f, v.partition)
            if isinstance(f.backend, RationalBackend):
                assert chk.global_product == 1
                assert all(p == 1 for p in chk.per_orbit)
            else:
                assert abs(chk.global_product - 1) <= 1e-12
                assert all(abs(p - 1) <= 1e-12 for p in chk.per_orbit)


def perturbed_map(seed):
    """:func:`seeded_conjugate_map` with its value at marked point ``seed % n``
    moved by 1e-6, up for odd seeds and down for even ones, or None when
    that loses monotonicity."""
    f = seeded_conjugate_map(seed)
    values = list(f.values)
    values[seed % f.n] += Fr(1 if seed % 2 else -1, 10**6)
    try:
        return pr.make_lift(f.breaks, values)
    except errors.NonMonotone:
        return None


def exact_reading(g):
    """The exact map through the float marked points of ``g``."""
    return pr.make_lift([Fr(x) for x in g.breaks], [Fr(x) for x in g.values])


class TestWalkedVerdicts:
    """The verdict walks break orbits after the restricted-pair search."""

    def test_perturbed_maps_get_the_full_walk_verdict(self):
        # at a hit of the full-power walk, the scanned partition or its first
        # drift gives the verdict; at an enclosure, the verdict is undecided
        not_conjugate = 0
        for seed in range(60):
            f = perturbed_map(seed)
            if f is None:
                continue
            v, rr = pr.is_conjugate_to_rigid(f), full_walk(f, conjugacy.Q_CAP)
            if rr.kind != "exact":
                assert isinstance(v, pr.Undecided) and v.enclosure == rr
                continue
            part = scanned_partition(f, rr.p, rr.q)
            if isinstance(part, pr.NotPeriodic):
                not_conjugate += 1
                want = pr.NotConjugate(
                    reason="break point %d is not periodic (drift %s after %d steps)"
                    % (part.break_index, part.drift, rr.q), p=rr.p, q=rr.q, evidence=part)
            else:
                want = pr.Conjugate(p=rr.p, q=rr.q, partition=part)
            assert v.to_json() == want.to_json()
        assert not_conjugate == 11

    @pytest.mark.parametrize("f", LOCKED_MAPS + [perturbed_map(s) for s in range(40)],
                             ids=LOCKED_IDS + ["perturbed_%d" % s for s in range(40)])
    def test_float_not_conjugate_is_the_exact_reading(self, f):
        # a float NotConjugate names the p/q and the first break that the
        # exact reading of its float data names; else the verdict is undecided
        if f is None:
            return
        g = f if f.backend is pr.FLOAT else float_copy(f)
        v = pr.is_conjugate_to_rigid(g)
        if f in LOCKED_MAPS:
            assert isinstance(v, pr.NotConjugate)
        if isinstance(v, pr.NotConjugate):
            e = pr.is_conjugate_to_rigid(exact_reading(g))
            assert isinstance(e, pr.NotConjugate)
            assert (v.p, v.q, v.evidence.break_index) == (e.p, e.q, e.evidence.break_index)
        else:
            assert isinstance(v, pr.Undecided)

    def test_drift_inside_the_rounding_bound_is_undecided(self):
        # the float h^-1 o R_{2/3} o h of the CLI's band job: the arc certifies
        # 2/3 with a sign change, but the walked drift of break 1, -2.4e-7,
        # lies inside its rounding bound (a piece of slope 4.4e9)
        g = float_copy(near_band_map(Fr(1, 10**10), Fr(2, 3)))
        v = pr.is_conjugate_to_rigid(g)
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (2, 3)
        assert "break 1 walked forward moves it by -2.4" in v.reason
        assert "rounding bound" in v.reason
        assert conjugacy._rounding_bound(g, g.breaks[1], 3) > 2.5e-7

    def test_rounding_bound_past_half_a_turn_is_undecided(self):
        # x -> x + 1/40 at k/40, each followed by a piece of slope 1.25e9 and
        # width 1e-11, with F(39/40) moved down by 1e-6: the walk from 0 runs
        # through a break at every step, so its rounding bound passes half a
        # turn long before the 40th step, where it would overflow
        xs = [x for k in range(40) for x in (k / 40, k / 40 + 1e-11)]
        vs = [v for k in range(1, 41) for v in (k / 40, k / 40 + 1 / 80)]
        vs[-2] -= 1e-6
        g = pr.make_lift(xs, vs, pr.FLOAT)
        v = pr.is_conjugate_to_rigid(g)
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (1, 40)
        assert v.reason.startswith("the orbit of break 0 walked forward moves it by -1.0")
        with pytest.raises(errors.PrecisionLoss, match="within its rounding bound"):
            pr.invariant_density(g, q=40)
        e = pr.is_conjugate_to_rigid(exact_reading(g))
        assert isinstance(e, pr.NotConjugate) and (e.q, e.evidence.break_index) == (40, 0)

    def test_float_orbits_shadowing_each_other_are_undecided(self):
        # h^-1 o R_{1/2} o h for h steep on [1/5, 1/5 + g] and [3/5, 3/5 + g]:
        # the break orbits {1/5, 3/5} and {1/5 + g, 3/5 + g} lie g = 1e-10
        # apart at every break, so each float break lies within ORBIT_TOL of
        # the first orbit's points, where the exact orbits are two
        g = Fr(1, 10**10)
        f = conjugate_to(Fr(1, 2), [Fr(1, 5), Fr(1, 5) + g, Fr(3, 5), Fr(3, 5) + g],
                         [Fr(1, 10), Fr(2, 5), Fr(3, 5), Fr(9, 10)])
        assert pr.is_conjugate_to_rigid(f).partition.orbits == ((0, 2), (1, 3))
        v = pr.is_conjugate_to_rigid(float_copy(f))
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (1, 2)
        assert v.reason == "break orbit points 0.2 and 0.2000000001 lie within twice ORBIT_TOL"

    def test_float_breaks_near_unmarked_orbit_points_are_undecided(self):
        # h^-1 o R_{1/4} o h for h through (1/10, 1/10) and (3/5, 3/5 + g):
        # the breaks 3/5 and f^-1(3/5) of the second orbit lie g = 1e-10 from
        # the first orbit's unmarked points f^2(1/10) and f(1/10), so a float
        # break must not ride on them: the exact orbits are two
        g = Fr(1, 10**10)
        f = conjugate_to(Fr(1, 4), [Fr(1, 10), Fr(3, 5)], [Fr(1, 10), Fr(3, 5) + g])
        assert pr.is_conjugate_to_rigid(f).partition.orbits == ((0, 3), (1, 2))
        v = pr.is_conjugate_to_rigid(float_copy(f))
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (1, 4)
        assert v.reason.endswith("lie within twice ORBIT_TOL")

    def test_float_walks_that_close_only_within_orbit_tol_are_undecided(self):
        # the README's h^-1 o R_{1/3} o h marked at 3/10, 31/100, 8/25 and
        # 2/5, 41/100, 21/50, with the values at 31/100 and 41/100 moved by
        # +5e-10 and -5e-10 in floats: the walk from break 2 misses itself by
        # more than eps_x, far more than its rounding bound, but within
        # ORBIT_TOL, and the walk at q = 3 without a search refuses it too
        f = conjugate_to(Fr(1, 3), [Fr(1, 4), Fr(1, 2)], [Fr(1, 8), Fr(3, 4)])
        xs = [Fr(1, 4), Fr(3, 10), Fr(31, 100), Fr(8, 25), Fr(11, 30), Fr(2, 5),
              Fr(41, 100), Fr(21, 50), Fr(1, 2), Fr(7, 12)]
        values = [float(f(x)) for x in xs]
        values[2] += 5e-10
        values[6] -= 5e-10
        g = pr.make_lift([float(x) for x in xs], values)
        v = pr.is_conjugate_to_rigid(g)
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (1, 3)
        assert v.reason.startswith("the orbit of break 2 walked forward moves it by 5.0")
        assert v.reason.endswith(": more than eps_x, within ORBIT_TOL")
        with pytest.raises(errors.PrecisionLoss, match="more than eps_x, within ORBIT_TOL"):
            pr.invariant_density(g, q=3)
        assert isinstance(pr.is_conjugate_to_rigid(exact_reading(g)), pr.NotConjugate)

    def test_float_walks_that_close_against_a_sign_change_are_undecided(self):
        # the float copy of h^-1 o R_{1/3} o h for h of slope 3e6 on
        # [37/100, 37/100 + 1e-7]: every break orbit closes within eps_x,
        # but F^3 - 1 on the arc changes sign by more than the decision band
        f = conjugate_to(Fr(1, 3), [Fr(37, 100), Fr(37, 100) + Fr(1, 10**7), Fr(3, 4)],
                         [Fr(1, 5), Fr(1, 2), Fr(4, 5)])
        assert isinstance(pr.is_conjugate_to_rigid(f), pr.Conjugate)
        g = float_copy(f)
        v = pr.is_conjugate_to_rigid(g)
        assert isinstance(v, pr.Undecided) and (v.enclosure.p, v.enclosure.q) == (1, 3)
        assert v.reason == ("F^3 is not x + 1 to eps_x on the arc, but every break orbit "
                            "walked forward closes")
        assert isinstance(conjugacy._walk_orbits(g, 1, 3), pr.OrbitPartition)
        assert isinstance(pr.is_conjugate_to_rigid(exact_reading(g)), pr.NotConjugate)


class TestBuildConjugacy:
    def test_pins_first_break_to_zero(self, coelho_q3):
        h = pr.build_conjugacy(coelho_q3)
        assert h(Fr(0)) == 0

    def test_h_is_a_homeomorphism(self, coelho_q3):
        h = pr.build_conjugacy(coelho_q3)
        assert all(s > 0 for s in h.slopes)
        for x in rational_grid(100):
            assert h(x + 1) - h(x) == 1

    def test_conjugacy_equation_exact(self, coelho_q3):
        h = pr.build_conjugacy(coelho_q3)
        shifts = set()
        for x in rational_grid(1000):
            d = h(coelho_q3(x)) - h(x) - Fr(1, 3)
            assert d.denominator == 1  # h o f - r_{p/q} o h takes integer values
            shifts.add(d)
        assert len(shifts) == 1  # ... and a constant one

    def test_conjugacy_equation_float(self, refr_critical):
        f = refr_critical.lift(0.0)
        h = pr.build_conjugacy(f)
        d0 = h(f(0.0)) - h(0.0) - 0.8
        assert abs(d0 - round(d0)) <= 1e-10
        worst = 0.0
        for i in range(1000):
            x = (i * 0.61803398875) % 1.0
            d = h(f(x)) - h(x) - 0.8
            worst = max(worst, abs(d - round(d0)))
        assert worst <= 1e-10

    def test_conjugates_to_the_rigid_rotation(self, coelho_q2):
        h = pr.build_conjugacy(coelho_q2)
        g = pr.canonicalize(pr.compose(pr.compose(h, coelho_q2), pr.invert(h)))
        assert g.is_rigid
        assert pr.frac(g.rigid_shift) == Fr(1, 2)

    def test_rigid_input_gives_identity(self):
        h = pr.build_conjugacy(pr.rigid(Fr(2, 5)))
        assert h.is_rigid and h.rigid_shift == 0

    def test_raises_on_locked_map(self):
        with pytest.raises(errors.NotConjugateError):
            pr.build_conjugacy(LOCKED)

    @settings(max_examples=60, deadline=None)
    @given(conjugate_maps())
    @example((CONJ_10_17, 10, 17))  # two break orbits
    def test_slopes_are_the_invariant_density(self, case):
        # h is the distribution function of the invariant measure
        f = case[0]
        h = pr.canonicalize(pr.build_conjugacy(f))
        rho = pr.invariant_density(f)
        assert h.breaks == rho.cuts and h.slopes == rho.values

    def test_run_of_k_points_missing_an_orbit_raises(self):
        part = pr.is_conjugate_to_rigid(CONJ_10_17).partition
        assert part.K == 2
        first, second = part.points[:2]
        swapped = (replace(first, orbit=second.orbit), replace(second, orbit=first.orbit))
        bad = replace(part, points=swapped + part.points[2:])
        with pytest.raises(errors.InternalMismatch):
            pr.build_conjugacy(CONJ_10_17, partition=bad)
        with pytest.raises(errors.InternalMismatch):
            pr.invariant_density(CONJ_10_17, partition=bad)

    def test_masses_that_do_not_add_up_raise(self, coelho_q3):
        # cell masses L/q with q doubled add up to 1/2
        part = pr.is_conjugate_to_rigid(coelho_q3).partition
        with pytest.raises(errors.InternalMismatch, match="mass came out as 1/2"):
            pr.build_conjugacy(coelho_q3, partition=replace(part, q=2 * part.q))


def sampled_defect(f, density):
    """The largest discrepancy over 64 arcs with ends ``k/10^6`` drawn from
    ``random.Random(0)``: a sample, where the defect is a supremum."""
    phi, back, rng, worst = density.cdf_lift(), pr.invert(f), random.Random(0), 0
    for _ in range(64):
        u, v = sorted(Fr(rng.randrange(10**6), 10**6) for _ in range(2))
        worst = max(worst, abs(phi(v) - phi(u) - phi(back(v)) + phi(back(u))))
    return worst


@st.composite
def densities(draw, max_cuts=4):
    """A random exact density of mass 1 with up to ``max_cuts`` cuts."""
    n = draw(st.integers(1, max_cuts))
    denom = draw(st.integers(7, 40))
    cuts = sorted(Fr(k, denom) for k in draw(
        st.lists(st.integers(0, denom - 1), min_size=n, max_size=n, unique=True)))
    lengths = [(cuts[j + 1] if j + 1 < n else cuts[0] + 1) - cuts[j] for j in range(n)]
    weights = [draw(st.integers(1, 9)) for _ in range(n)]
    total = sum(w * g for w, g in zip(weights, lengths))
    return pr.PiecewiseConstantDensity(
        cuts=tuple(cuts), values=tuple(Fr(w) / total for w in weights), backend=pr.RATIONAL)


class TestInvarianceDefect:
    @settings(max_examples=80, deadline=None)
    @given(rational_lifts(max_pieces=4), densities())
    def test_is_the_largest_discrepancy_over_marked_arcs(self, f, density):
        # the arc F([u, v]) pulls back to [u, v]; with u, v over the marked
        # points of Phi o F (breaks of f, preimages of cuts) and of Phi, the
        # discrepancies |D(v) - D(u)| of the PWL D = Phi o F - Phi peak there
        phi = density.cdf_lift()
        back = pr.invert(f)
        marks = set(f.breaks) | {pr.frac(back(c)) for c in density.cuts} | set(density.cuts)
        worst = max(abs(phi(f(v)) - phi(f(u)) - (phi(v) - phi(u))) for u in marks for v in marks)
        assert pr.verify_invariance(f, density) == worst
        approx = pr.PiecewiseConstantDensity(
            cuts=tuple(map(float, density.cuts)), values=tuple(map(float, density.values)),
            backend=pr.FLOAT)
        assert abs(pr.verify_invariance(float_copy(f), approx) - float(worst)) <= 1e-12

    def test_finds_a_mass_swap_the_arc_sample_misses(self, herman_32):
        # move mass delta*eps between two adjacent cells of width eps inside
        # [0, 2/5); no sampled end, nor its preimage, falls in them
        f = herman_32.lift(0)
        a, eps, delta = Fr(1, 10) + Fr(1, 3 * 10**7), Fr(1, 10**8), Fr(1, 4)
        rho = Fr(5, 4)
        swapped = pr.PiecewiseConstantDensity(
            cuts=(Fr(0), a, a + eps, a + 2 * eps, Fr(2, 5)),
            values=(rho, rho + delta, rho - delta, rho, Fr(5, 6)), backend=pr.RATIONAL)
        assert swapped.mass() == 1
        assert sampled_defect(f, swapped) == 0
        assert pr.verify_invariance(f, swapped) == 2 * delta * eps

    @settings(max_examples=40, deadline=None)
    @given(conjugate_maps())
    def test_zero_for_the_invariant_density(self, case):
        f, _, q = case
        assert pr.verify_invariance(f, pr.invariant_density(f)) == 0
        g = float_copy(f)
        assert pr.verify_invariance(g, pr.invariant_density(g, q=q)) <= 1e-12


class TestInvariantDensity:
    def test_exact_closed_form(self, herman_32):
        rho = pr.invariant_density(herman_32.lift(0))
        assert rho.cuts == (Fr(0), Fr(2, 5))
        assert rho.values == (Fr(5, 4), Fr(5, 6))
        assert rho.mass() == 1

    def test_float_closed_form(self, herman_sqrt2):
        lam = math.sqrt(2.0)
        rho = pr.invariant_density(herman_sqrt2.lift(0.0))
        assert len(rho.cuts) == 2
        assert abs(rho.cuts[1] - 1 / (1 + lam)) <= 1e-12
        assert abs(rho.values[0] - (1 + lam) / 2) <= 1e-12
        assert abs(rho.values[1] - (1 + 1 / lam) / 2) <= 1e-12

    def test_rigid_map_has_uniform_density(self):
        rho = pr.invariant_density(pr.rigid(Fr(2, 5)))
        assert rho.values == (Fr(1),)
        assert rho.mass() == 1

    def test_evaluation_and_cdf(self, herman_32):
        rho = pr.invariant_density(herman_32.lift(0))
        assert rho(Fr(1, 5)) == Fr(5, 4)
        assert rho(Fr(1, 2)) == Fr(5, 6)
        phi = rho.cdf_lift()
        assert phi(Fr(0)) == 0
        assert phi(Fr(1)) == 1  # total mass again, as the lift's degree

    @pytest.mark.parametrize("backend, half", [(pr.RATIONAL, Fr(1, 2)), (pr.FLOAT, 0.5)],
                             ids=["exact", "float"])
    def test_mass_other_than_one_is_refused(self, backend, half):
        # half of Lebesgue has no degree-one distribution lift: rescaling
        # it would measure the defect of another density
        rho = pr.PiecewiseConstantDensity(cuts=(backend.coerce(0), half), values=(half, half),
                                          backend=backend)
        assert rho.mass() == half
        with pytest.raises(ValueError, match="mass %s has" % half):
            rho.cdf_lift()
        f = pr.make_lift([0, Fr(3, 7)], [Fr(1, 7), 1], backend)
        with pytest.raises(ValueError):
            pr.verify_invariance(f, rho)

    def test_verify_invariance_exact_zero(self, herman_32):
        f = herman_32.lift(0)
        assert pr.verify_invariance(f, pr.invariant_density(f)) == 0

    def test_verify_invariance_float(self, herman_sqrt2):
        f = herman_sqrt2.lift(0.0)
        assert pr.verify_invariance(f, pr.invariant_density(f)) <= 1e-12

    def test_density_json(self, herman_32):
        rho = pr.invariant_density(herman_32.lift(0))
        j = rho.to_json()
        assert j["cuts"] == ["0", "2/5"] and j["densities"] == ["5/4", "5/6"]

    def test_raises_on_locked_map(self):
        with pytest.raises(errors.NotConjugateError):
            pr.invariant_density(LOCKED)
        with pytest.raises(errors.NotConjugateError):
            pr.invariant_density(LOCKED, q=2)

    def test_multiple_of_the_period(self, herman_32):
        rho = pr.invariant_density(herman_32.lift(0), q=4)
        assert rho.cuts == (Fr(0), Fr(2, 5))
        assert rho.values == (Fr(5, 4), Fr(5, 6))

    def test_wrong_period_raises(self, herman_32):
        with pytest.raises(errors.NotConjugateError):
            pr.invariant_density(herman_32.lift(0), q=3)

    @pytest.mark.parametrize("q", [0, -3])
    def test_period_below_one_is_refused(self, q):
        # a conjugate map: q = 0 used to divide by zero, q = -3 to report drift
        f = pr.make_lift([Fr(0), Fr(3, 7)], [Fr(1, 7), Fr(1)])
        with pytest.raises(ValueError, match="q must be >= 1"):
            pr.invariant_density(f, q=q)

    def test_non_genuine_marked_point_is_uniform(self):
        f = pr.make_lift([Fr(0), Fr(1, 3)], [Fr(2, 5), Fr(11, 15)])  # x + 2/5
        for q in (None, 5):
            rho = pr.invariant_density(f, q=q)
            assert rho.cuts == (Fr(0),) and rho.values == (Fr(1),)

    def test_reads_the_given_partition(self, coelho_q3):
        v = pr.is_conjugate_to_rigid(coelho_q3)
        rho = pr.invariant_density(coelho_q3, partition=v.partition)
        assert rho == pr.invariant_density(coelho_q3)
        assert rho.values == (Fr(7, 3), Fr(7, 6), Fr(7, 12))

    @pytest.mark.parametrize(
        "rho, breaks, values",
        [
            (Fr(4, 35), (Fr(82, 997), Fr(855, 997)), (Fr(735, 997), Fr(4672, 4985))),
            (Fr(17, 30), (Fr(78, 97), Fr(82, 97)), (Fr(17, 97), Fr(131, 194))),
        ],
    )
    def test_float_merge_keeps_the_mass(self, rho, breaks, values):
        # float cells of equal exact density differ by ~1e-11 relative; a
        # merged run must carry its own mass, not its first cell's value
        h = pr.make_lift(breaks, values)
        f = pr.compose(pr.invert(h), pr.compose(pr.rigid(rho), h))
        exact = pr.invariant_density(f)
        approx = pr.invariant_density(float_copy(f), q=rho.denominator)
        assert abs(approx.mass() - 1) <= 1e-12
        assert len(approx.cuts) == len(exact.cuts)
        for c, v, ec, ev in zip(approx.cuts, approx.values, exact.cuts, exact.values):
            assert abs(c - ec) <= 1e-12 and abs(v - ev) <= 1e-10 * ev

    @settings(max_examples=60, deadline=None)
    @given(conjugate_maps())
    def test_matches_the_push_forward_average(self, case):
        # (1/q) sum_{k<q} (F^{-k})'(x), walked back one inverse step at a time
        f, _, q = case
        rho, back = pr.invariant_density(f), pr.invert(f)
        cuts = rho.cuts
        for j, c in enumerate(cuts):
            nxt = cuts[j + 1] if j + 1 < len(cuts) else cuts[0] + 1
            x = pr.frac((c + nxt) / 2)
            total, factor, y = Fr(0), Fr(1), x
            for _ in range(q):
                total += factor
                y = back(y)
                factor /= f.slopes[piece(f.breaks, pr.frac(y))]
            assert rho(x) == total / q


class TestGrowth:
    def test_conjugate_break_counts_bounded(self, coelho_q2):
        counts = pr.break_count_growth(coelho_q2, 50)
        assert max(counts) <= 2  # q*K = 2*1

    def test_conjugate_slopes_bounded(self, coelho_q2):
        slopes = pr.derivative_growth(coelho_q2, 50)
        assert max(slopes) <= 2  # s_M^(q-1) = 2^1

    def test_critical_refraction_bounded(self, refr_critical):
        f = refr_critical.lift(0.0)
        counts = pr.break_count_growth(f, 50)
        slopes = pr.derivative_growth(f, 50)
        s_M = max(f.slopes)
        assert max(counts) <= 5  # q*K = 5*1
        assert max(slopes) <= s_M**4 * (1 + 1e-9)

    def test_locked_map_violates_both_bounds(self):
        f = pr.refraction(2.0, 1.14).lift(0.0)
        counts = pr.break_count_growth(f, 50)
        slopes = pr.derivative_growth(f, 50)
        s_M = max(f.slopes)
        assert max(counts) > 6  # would be q*K if it were conjugate
        assert max(slopes) > s_M**5
