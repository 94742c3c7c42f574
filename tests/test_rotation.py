"""Rotation numbers: enclosures, exact certification, locked intervals."""
import json
import logging
import math
import random
import sys
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pwlrotor as pr
from pwlrotor import cli, errors, rotation

from conftest import conjugate_maps, float_copy, rational_lifts


#: The rigid rotations ``x + mu`` as a family: anything with ``.lift``.
rigid_family = SimpleNamespace(lift=pr.rigid)

#: A float copy of h^-1 o R_{29/31} o h whose Stern-Brocot search meets a
#: sign inside the decision band.
UNDECIDED_BREAKS = [0.8004012036108324, 0.8044502738986189, 0.8065550497646786,
                    0.8936810431293881]
UNDECIDED_VALUES = [0.8896319728416018, 0.8936810431293881, 1.8004012036108326,
                    1.887527196975542]


def reference_bisect(g, a, b, tol):
    """The bisection that located lock edges before secant steps, kept as an
    oracle: the final bracket of the sign change of ``g`` on ``a < b``, no
    wider than ``tol``, or ``(mid, mid)`` on a midpoint where ``g`` is 0."""
    ga = g(a)
    left, right = a, b
    while right - left > tol:
        mid = (left + right) / 2
        gm = g(mid)
        if gm == 0:
            return mid, mid
        if (gm > 0) == (ga > 0):
            left = mid
        else:
            right = mid
    return left, right


def edge_function(family, p, q, which):
    """``mu -> max E`` (``which == "max"``) or ``min E`` of ``E = F_mu^q - x - p``
    over the marked points of ``F_mu^q``, the sign function of that lock edge."""
    pick = max if which == "max" else min

    def g(mu):
        P = pr.power(family.lift(mu), q)
        return pick(v - b - p for b, v in zip(P.breaks, P.values))

    return g


#: Rational shift families ``herman_offset(lam, d)`` whose 1/2 lock lies
#: well inside [-1/10, 1/10].
offset_params = st.tuples(
    st.integers(2, 24).filter(lambda k: k != 8).map(lambda k: Fr(k, 8)),
    st.integers(-6, 6).map(lambda j: Fr(j, 200)),
)


def bounded(family, probes=500):
    """``family`` with a cap on the lifts a bisection may build, so a
    bisection that does not stop fails instead of hanging."""
    built = []

    def lift(mu):
        built.append(mu)
        assert len(built) <= probes, "the bisection did not stop"
        return family.lift(mu)

    return SimpleNamespace(lift=lift)


class TestBirkhoffEnclosure:
    def test_width_is_exactly_two_over_m(self):
        f = pr.coelho(Fr(1, 3), Fr(2, 5)).lift(0)
        for m in (10, 100, 1000):
            r = pr.birkhoff_enclosure(f, m)
            assert r.kind == "enclosure"
            assert r.width == Fr(2, m)

    def test_contains_known_rotation_number(self):
        f = pr.rigid(Fr(2, 7))
        for m in (10, 1000, 10_000):
            r = pr.birkhoff_enclosure(f, m)
            assert r.lo <= Fr(2, 7) <= r.hi

    def test_refinement_nesting(self):
        # doubling m keeps the enclosure inside a (1/m)-inflation
        f = pr.coelho(Fr(1, 3), Fr(2, 5)).lift(Fr(1, 10))
        for m in (16, 64, 256):
            a = pr.birkhoff_enclosure(f, m)
            b = pr.birkhoff_enclosure(f, 2 * m)
            assert b.lo >= a.lo - Fr(1, m)
            assert b.hi <= a.hi + Fr(1, m)

    def test_float_backend_kernel_path(self):
        f = pr.herman_shifted(math.sqrt(2.0)).lift(0.0)
        r = pr.birkhoff_enclosure(f, 10**5)
        assert r.lo <= 0.5 <= r.hi
        assert abs(r.width - 2e-5) < 1e-15

    def test_repelling_orbit_through_the_breaks_holds_the_exact_reading(self):
        # float herman_shifted(1.5) at mu = -0.15: the orbit of 0 follows a
        # repelling orbit through the breaks, so the rounding of F^4 (Q at
        # m = 1000) grows by 2.25 per step and moves the enclosure by up to
        # 0.75/m from the one F gives; it still holds the Farey enclosure
        # that the exact reading of the same lift certifies
        f = pr.herman_shifted(1.5).lift(-0.15)
        r = pr.birkhoff_enclosure(f, 1000)
        assert (r.lo, r.hi) == (0.333, 0.335)
        exact = pr.exact_rotation(pr.make_lift([Fr(x) for x in f.breaks],
                                               [Fr(x) for x in f.values]), 1000)
        assert (exact.lo, exact.hi) == (Fr(170, 509), Fr(169, 506))
        assert r.lo <= exact.lo and exact.hi <= r.hi

    def test_overflow_falls_back_to_the_last_square(self, monkeypatch, caplog):
        # F^32 of this map carries more than 40 marked points, F^16 fewer.
        monkeypatch.setattr("pwlrotor.lift.PIECE_CAP", 40)
        f = pr.refraction(2.0, 1.14).lift(0.0)
        with caplog.at_level(logging.DEBUG, logger="pwlrotor.rotation"):
            r = pr.birkhoff_enclosure(f, 10**5)
        assert "(cap 40)); falling back to Q=16" in caplog.text
        assert r.width == pytest.approx(2e-5)
        assert r.lo <= 5 / 6 <= r.hi

    @pytest.mark.parametrize("f, m, q", [
        (pr.herman_shifted(Fr(3, 2)).lift(0), 5000, 16),
        (pr.herman_shifted(Fr(3, 2)).lift(Fr(-4, 25)), 5000, 16),
        (pr.herman_shifted(Fr(3, 2)).lift(Fr(-4, 25)), 1000, 4),
        (pr.rigid(Fr(2, 7)), 10**4, 16),
    ], ids=["herman_shifted(3/2)@0", "herman_shifted(3/2)@-4/25",
            "herman_shifted(3/2)@-4/25,m=1000", "rigid(2/7)"])
    def test_exact_power_path_equals_direct_iteration(self, f, m, q, caplog):
        # the orbit runs on the exact F^q
        with caplog.at_level(logging.DEBUG, logger="pwlrotor.rotation"):
            r = pr.birkhoff_enclosure(f, m)
        assert "Q=%d," % q in caplog.messages[-1]
        x = Fr(0)
        for _ in range(m):
            x = f(x)
        assert (r.lo, r.hi) == ((x - 1) / m, (x + 1) / m)
        assert type(r.lo) is Fr and type(r.hi) is Fr

    def test_x0_argument(self):
        f = pr.rigid(Fr(1, 3))
        r = pr.birkhoff_enclosure(f, 30, x0=Fr(5, 7))
        assert r.lo <= Fr(1, 3) <= r.hi

    def test_rejects_non_positive_m(self):
        with pytest.raises(ValueError):
            pr.birkhoff_enclosure(pr.rigid(Fr(1, 3)), 0)


@settings(max_examples=200, deadline=None)
@given(rational_lifts(), st.integers(1, 3), st.integers(-3, 3))
def test_edge_extremes_are_those_of_the_edge_values(f, q, p):
    """``_classify`` and ``mode_lock_interval`` read the extremes of ``E``
    with ``p`` subtracted from two values only; in floats too they are the
    extremes of the edge values, bit for bit."""
    for P in (pr.power(f, q), pr.power(float_copy(f), q)):
        vals = rotation._edge_values(P, p)
        assert rotation._edge_extremes(P, p) == (min(vals), max(vals))


class TestExactRotation:
    def test_rigid_rational(self):
        r = pr.exact_rotation(pr.rigid(Fr(2, 5)))
        assert r.kind == "exact"
        assert (r.p, r.q) == (2, 5)
        assert Fr(r.p, r.q) == Fr(2, 5)

    @pytest.mark.parametrize("q_max", [0, -2])
    def test_cap_below_one_is_refused(self, q_max):
        # even a rigid rotation by an integer, which the cap never reaches
        with pytest.raises(ValueError, match="cap must be >= 1, got %d" % q_max):
            pr.exact_rotation(pr.rigid(Fr(0)), q_max=q_max)

    def test_witness_reverifies(self):
        f = pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0)
        r = pr.exact_rotation(f)
        assert (r.p, r.q) == (1, 3)
        w = r.witness
        assert pr.power(f, r.q)(w) - w - r.p == 0

    def test_exact_on_float_critical_refraction(self):
        f = pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(0.0)
        r = pr.exact_rotation(f, q_max=64)
        assert r.kind == "exact"
        assert (r.p, r.q) == (4, 5)

    def test_enclosure_on_exhaustion_contains_closed_form(self):
        fam = pr.coelho(0.3, 0.55)
        r = pr.exact_rotation(fam.lift(0.0), q_max=150)
        rho = pr.coelho_rho(0.3, 0.55)
        if r.kind == "exact":
            # landed in a lock indistinguishable at float precision
            assert abs(r.p / r.q - rho) < 1e-6
        else:
            assert r.lo <= rho <= r.hi

    def test_enclosure_endpoints_are_farey_fractions(self):
        r = pr.exact_rotation(pr.coelho(0.3, 0.55).lift(0.0), q_max=40)
        if r.kind == "enclosure":
            assert isinstance(r.lo, Fr) and isinstance(r.hi, Fr)
            # adjacent Farey pair: |ad - bc| = 1
            assert abs(r.lo.numerator * r.hi.denominator
                       - r.hi.numerator * r.lo.denominator) == 1

    def test_monotone_family_gives_ordered_enclosures(self):
        fam = pr.herman_shifted(Fr(3, 2))
        results = [pr.exact_rotation(fam.lift(mu), q_max=50)
                   for mu in (Fr(-1, 10), Fr(0), Fr(17, 100), Fr(1, 4))]
        for a, b in zip(results, results[1:]):
            # an exact result carries lo = hi = p/q
            assert a.lo <= b.lo and a.hi <= b.hi

    def test_conjugation_invariance(self):
        f = pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0)
        h = pr.build_conjugacy(f)
        g = pr.compose(pr.compose(h, f), pr.invert(h))
        r = pr.exact_rotation(g)
        assert r.kind == "exact" and (r.p, r.q) == (1, 3)

    def test_iterations_count_mediants(self):
        # mediants 1/2, 1/3, 2/5: three compositions
        assert pr.exact_rotation(pr.rigid(Fr(2, 5))).iterations == 3
        assert pr.exact_rotation(pr.rigid(Fr(1, 3) + 2)).iterations == 2
        assert pr.exact_rotation(pr.rigid(Fr(0))).iterations == 0

    def test_integer_hit_at_the_upper_end(self):
        # F(0) = 3/4 puts rho in [0, 1], and F(1/2) = 1/2 + 1 certifies rho = 1
        r = pr.exact_rotation(pr.make_lift([Fr(0), Fr(1, 2)], [Fr(3, 4), Fr(3, 2)]))
        assert (r.kind, r.p, r.q, r.iterations) == ("exact", 1, 1, 0)
        assert r.witness == Fr(1, 2)

    @pytest.mark.parametrize("shift", [1e-11, 1 - 1e-11])
    def test_float_undecided_at_an_integer_end(self, shift):
        # F - x sits within the decision band of 0 (or of 1) everywhere, but
        # not within eps_x: neither integer can be certified or ruled out
        r = pr.exact_rotation(pr.make_lift([0.0], [shift]))
        assert (r.kind, r.lo, r.hi, r.iterations) == ("enclosure", 0, 1, 0)

    def test_float_sign_inside_the_band_stops_the_search(self):
        # h^-1 o R_{29/31} o h in floats: at the 16th mediant, 29/31, an
        # edge value of F^31 lies inside the decision band, so the search
        # returns the enclosure it holds although q_max = 64 is not reached
        f = pr.make_lift(UNDECIDED_BREAKS, UNDECIDED_VALUES)
        r = pr.exact_rotation(f, 64)
        assert (r.kind, r.lo, r.hi, r.iterations) == ("enclosure", Fr(14, 15), Fr(15, 16), 16)
        assert r.lo.denominator + r.hi.denominator <= 64
        v = pr.is_conjugate_to_rigid(f)
        assert isinstance(v, pr.Undecided) and v.enclosure == r
        # the float enclosure holds the one of the map's exact copy
        exact = pr.exact_rotation(pr.make_lift(
            [Fr(x) for x in UNDECIDED_BREAKS], [Fr(x) for x in UNDECIDED_VALUES]), 1000)
        assert (exact.kind, exact.lo, exact.hi) == ("enclosure", Fr(29, 31), Fr(914, 977))
        assert r.lo <= exact.lo and exact.hi <= r.hi

    def test_undecided_reason_names_what_stopped_the_search(self):
        # a sign inside the band stopped the search at [14/15, 15/16]: the
        # next mediant, 29/31, was within q_cap = 64
        band = pr.is_conjugate_to_rigid(pr.make_lift(UNDECIDED_BREAKS, UNDECIDED_VALUES))
        assert band.reason == ("rotation number not certified rational: a float sign inside "
                               "the decision band stopped the search before q <= 64 was "
                               "exhausted")
        # the cap stopped it at [5/9, 9/16]: the next mediant has q = 25 > 20
        cap = pr.is_conjugate_to_rigid(pr.coelho(0.3, 0.2).lift(0), q_cap=20)
        assert (cap.enclosure.lo, cap.enclosure.hi) == (Fr(5, 9), Fr(9, 16))
        assert cap.reason == "rotation number not certified rational within q <= 20"

    @pytest.mark.parametrize("read", [pr.break_orbit_partition, pr.build_conjugacy,
                                      pr.invariant_density])
    def test_band_stopped_partition_is_a_precision_loss(self, read):
        # no rotation number was certified, but q <= 64 was not exhausted:
        # the partition's readers raise the verdict's reason, not the cap's
        f = pr.make_lift(UNDECIDED_BREAKS, UNDECIDED_VALUES)
        reason = pr.is_conjugate_to_rigid(f).reason
        assert "decision band" in reason
        with pytest.raises(errors.PrecisionLoss) as exc:
            read(f)
        assert str(exc.value) == reason

    def test_steep_float_root_certifies_with_the_exact_witness(self, tmp_path, capsys):
        # E = F - x changes sign on a piece of slope 3e8 next to 0.3: the
        # float root's residual, 5e-9, is its rounding times the slope, and
        # the decided signs of E certify the hit on their own
        breaks, values = [0.0, 0.3, 0.3 + 1e-9], [-0.1, 0.2, 0.5]
        r = pr.exact_rotation(pr.make_lift(breaks, values))
        exact = pr.make_lift([Fr(x) for x in breaks], [Fr(x) for x in values])
        e = pr.exact_rotation(exact)
        assert (r.kind, r.p, r.q) == (e.kind, e.p, e.q) == ("exact", 0, 1)
        assert exact(e.witness) == e.witness and r.witness == float(e.witness)
        # the CLI rho job on the map, a custom family with two equal rows
        family = {"family": "custom", "params": {"mu": [0, 1], "breaks": [breaks, breaks],
                                                 "values": [values, values]}}
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"family": family, "mu": 0}))
        assert cli.main(["rho", "--config", str(cfg)]) == 0
        rotation_json = json.loads(capsys.readouterr().out)["rotation"]
        assert (rotation_json["p"], rotation_json["q"]) == (0, 1)
        assert rotation_json["witness"] == r.witness

    def test_enclosure_at_q_max_carries_iterations(self):
        # 1/2 and 1/3 are tested; the next mediant 2/5 is past q_max = 4
        r = pr.exact_rotation(pr.rigid(Fr(2, 5)), q_max=4)
        assert r.kind == "enclosure" and (r.lo, r.hi) == (Fr(1, 3), Fr(1, 2))
        assert r.iterations == 2
        assert r.to_json()["iterations"] == 2

    def test_result_json(self):
        r = pr.exact_rotation(pr.rigid(Fr(2, 5)))
        j = r.to_json()
        assert j["kind"] == "exact" and j["p"] == 2 and j["q"] == 5
        assert "rigid" not in j
        e = pr.birkhoff_enclosure(pr.rigid(Fr(2, 5)), 10).to_json()
        assert e["kind"] == "enclosure" and e["p"] is None


def seeded_conjugate_map(seed):
    """``h^-1 o R_{p/q} o h`` for a random exact ``h`` with 2 to 6 breaks on a
    grid of 97, 997 or 4985 points, and ``p/q`` in lowest terms, ``q <= 40``."""
    rng = random.Random(seed)
    n, denom = rng.randint(2, 6), rng.choice([97, 997, 4985])
    breaks = sorted(Fr(k, denom) for k in rng.sample(range(denom), n))
    v0 = Fr(rng.randrange(denom), denom)
    h = pr.make_lift(breaks, [v0] + [v0 + Fr(c, denom)
                                     for c in sorted(rng.sample(range(1, denom), n - 1))])
    q = rng.randint(2, 40)
    return pr.compose(pr.invert(h), pr.compose(pr.rigid(Fr(rng.randrange(1, q), q)), h))


def search_key(r):
    """A rotation search's answer, witness aside."""
    return (r.kind, r.p, r.q, r.lo, r.hi, r.iterations)


def search_outcome(search, f, q_max):
    """:func:`search_key` of ``search(f, q_max)``, or the error it raises."""
    try:
        return search_key(search(f, q_max))
    except errors.PrecisionLoss:
        return "PrecisionLoss"


def full_walk(f, q_max):
    """The Stern-Brocot search over full powers ``F^q``, each the composition
    ``F^{ql} o F^{qr}`` of its Farey parents', with no restriction to an arc:
    the reference for the restricted pair.  Raises PrecisionLoss where a float
    composition loses its order."""
    k0 = math.floor(f(f.backend.coerce(0)))
    for p in (k0, k0 + 1):
        status = rotation._classify(f, p)
        if status == rotation._HIT:
            return rotation.RotationResult.exact(p, 1, rotation._find_witness(f, p), 0)
        if status == rotation._UNDECIDED:
            return rotation.RotationResult.enclosure(Fr(k0), Fr(k0 + 1), iterations=0)
    (p0, q0, P0), (p1, q1, P1), tested = (k0, 1, f), (k0 + 1, 1, f), 0
    while (q := q0 + q1) <= q_max:
        p, P, tested = p0 + p1, pr.compose(P0, P1), tested + 1
        status = rotation._classify(P, p)
        if status == rotation._HIT:
            return rotation.RotationResult.exact(p, q, rotation._find_witness(P, p), tested)
        if status == rotation._ABOVE:
            p0, q0, P0 = p, q, P
        elif status == rotation._BELOW:
            p1, q1, P1 = p, q, P
        else:
            break
    return rotation.RotationResult.enclosure(Fr(p0, q0), Fr(p1, q1), iterations=tested)


#: Seeds below 400 whose float copy the restricted pair answers otherwise than
#: the full walk, as (full walk, restricted pair), each against the exact copy.
FLOAT_MOVES = {
    # 11/16: a float E at the rigid check lies just past eps_x on the arc
    13: (("exact", 11, 16, Fr(11, 16), Fr(11, 16), 7),
         ("enclosure", None, None, Fr(2, 3), Fr(9, 13), 7)),
    # 16/37: the full F^q lost its order, the restricted pair certifies
    187: ("PrecisionLoss", ("exact", 16, 37, Fr(16, 37), Fr(16, 37), 9)),
    # 20/31: the full F^q had a sign in the band, the arc certifies
    298: (("enclosure", None, None, Fr(9, 14), Fr(11, 17), 8),
          ("exact", 20, 31, Fr(20, 31), Fr(20, 31), 8)),
    # 13/15: as seed 13
    371: (("exact", 13, 15, Fr(13, 15), Fr(13, 15), 8),
          ("enclosure", None, None, Fr(6, 7), Fr(7, 8), 8)),
}


@st.composite
def searched_lifts(draw):
    """Exact lifts with known kinds of rotation number: conjugates of
    rational rotations, ``coelho`` maps, ``herman_shifted(3/2)`` at rational
    mu, and random lifts."""
    kind = draw(st.sampled_from(["conjugate", "coelho", "herman", "random"]))
    if kind == "conjugate":
        return draw(conjugate_maps(q_max=40))[0]
    if kind == "coelho":
        a, b, mu = (draw(st.integers(lo, 59)) for lo in (1, 1, -10))
        return pr.coelho(Fr(a, 60), Fr(b, 60)).lift(Fr(mu, 60))
    if kind == "herman":
        return pr.herman_shifted(Fr(3, 2)).lift(Fr(draw(st.integers(-60, 60)), 300))
    return draw(rational_lifts())


class TestRestrictedPair:
    """``exact_rotation`` and the conjugacy verdict walk the restricted Farey
    pair; the full-power walk is its oracle."""

    @settings(max_examples=80, deadline=None)
    @given(searched_lifts(), st.sampled_from([64, 300]))
    def test_agrees_with_the_full_walk(self, f, q_max):
        r = pr.exact_rotation(f, q_max)
        assert search_key(r) == search_key(full_walk(f, q_max))
        if r.kind == "exact":  # the witness is periodic, exactly
            assert pr.power(f, r.q)(r.witness) == r.witness + r.p

    def test_float_copies_agree_but_for_the_named_moves(self):
        moved = {}
        for seed in range(400):
            f = seeded_conjugate_map(seed)
            g = float_copy(f)
            new, old = (search_outcome(s, g, 64) for s in (pr.exact_rotation, full_walk))
            if new != old:
                moved[seed] = (old, new)
            if new != "PrecisionLoss":  # never a contradiction of the exact copy
                exact = pr.exact_rotation(f, 64)
                assert new[3] <= exact.lo and exact.hi <= new[4]
        assert moved == FLOAT_MOVES

    def test_each_composition_carries_at_most_n_plus_four_points(self, monkeypatch):
        f = pr.coelho(Fr(7, 19), Fr(11, 23)).lift(0)
        sizes = []
        compose = pr.lift.compose

        def counted(*args, **kwargs):
            out = compose(*args, **kwargs)
            sizes.append(out.n)
            return out

        for module in list(sys.modules.values()):
            if module.__name__.startswith("pwlrotor") and vars(module).get("compose") is compose:
                monkeypatch.setattr(module, "compose", counted)
        r = pr.exact_rotation(f, q_max=1000)
        monkeypatch.undo()
        assert (r.kind, r.lo, r.hi, r.iterations) == ("enclosure", Fr(386, 869), Fr(195, 439), 54)
        assert len(sizes) == 54 and max(sizes) <= f.n + 4

    def test_exact_restrictions_carry_their_slopes(self, monkeypatch):
        # an exact search derives no slope as rise over run but on the filler
        # pieces, and checks no order: no _checked_lift call, under any name
        f = pr.coelho(Fr(7, 19), Fr(11, 23)).lift(0)
        g = float_copy(f)
        calls = []
        checked = pr.lift._checked_lift

        def counted(*args):
            calls.append(args)
            return checked(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("pwlrotor") and vars(module).get("_checked_lift") is checked:
                monkeypatch.setattr(module, "_checked_lift", counted)
        r = pr.exact_rotation(f, q_max=1000)
        assert (r.lo, r.hi, r.iterations) == (Fr(386, 869), Fr(195, 439), 54)
        assert not calls
        pr.exact_rotation(g, q_max=1000)  # float restrictions are checked
        assert calls

    def test_float_involution_keeps_its_witness(self):
        # float coelho(1/3, 1/3): F^2 = x + 1, certified on the arc at 0
        r = pr.exact_rotation(pr.coelho(1 / 3, 1 / 3).lift(0.0))
        assert (r.kind, r.p, r.q, r.witness, r.iterations) == ("exact", 1, 2, 0.0, 1)

    def test_float_order_lost_at_the_start_keeps_the_integer_pair(self):
        # a piece 1e-11 wide that rises by 1e-16: rounding loses the order of
        # the first restriction, so the search stops at its integer pair as at
        # a sign in the band, where the full walk raises
        f = pr.make_lift([0.67725, 0.67725000001], [0.3510622107225285, 0.35106221072252863])
        r = pr.exact_rotation(f)
        assert (r.kind, r.lo, r.hi, r.iterations) == ("enclosure", -1, 0, 0)
        with pytest.raises(errors.PrecisionLoss):
            full_walk(f, 10_000)

    def test_float_conjugate_the_full_walk_cannot_compose(self):
        # h^-1 o R_{20/21} o h: the exact witness is the arc's end 0, and the
        # float copy stops in the band at 20/21 where the full F^21 lost its
        # order; the verdict reads the pair's enclosure, where the exact
        # copy's verdict is conjugate
        h = pr.make_lift([Fr(439, 997), Fr(486, 997)], [Fr(3874, 4985), Fr(8849, 4985)])
        f = pr.compose(pr.invert(h), pr.compose(pr.rigid(Fr(20, 21)), h))
        r = pr.exact_rotation(f)
        assert (r.kind, r.p, r.q, r.witness, r.iterations) == ("exact", 20, 21, 0, 20)
        g = float_copy(f)
        r = pr.exact_rotation(g)
        assert (r.kind, r.lo, r.hi, r.iterations) == ("enclosure", Fr(19, 20), 1, 20)
        with pytest.raises(errors.PrecisionLoss):
            full_walk(g, 10_000)
        v = pr.is_conjugate_to_rigid(g)
        assert isinstance(v, pr.Undecided) and v.enclosure == pr.exact_rotation(g, 64)
        assert "decision band" in v.reason
        exact = pr.is_conjugate_to_rigid(f)
        assert isinstance(exact, pr.Conjugate) and (exact.p, exact.q) == (20, 21)


class TestPeriodicPoints:
    def test_rigid_rational_is_all_identity(self):
        scan = pr.periodic_points(pr.rigid(Fr(1, 2)), 1, 2)
        assert scan.points == ()
        assert scan.identity_intervals == ((Fr(0), Fr(1)),)

    def test_exact_involution_is_all_identity(self, coelho_q2):
        scan = pr.periodic_points(coelho_q2, 1, 2)
        assert scan.points == ()
        assert scan.identity_intervals == ((Fr(0), Fr(1)),)

    def test_locked_map_has_alternating_isolated_points(self):
        f = pr.herman_offset(Fr(1, 2), Fr(1, 50)).lift(Fr(1, 200))
        scan = pr.periodic_points(f, 1, 2)
        assert scan.identity_intervals == ()
        assert len(scan.points) >= 2 and len(scan.points) % 2 == 0
        P = pr.power(f, 2)
        kinds = []
        for pt in scan.points:
            assert P(pt.x) - pt.x - 1 == 0  # exact root, not a bisection residual
            kinds.append(pt.stability)
        assert set(kinds) == {"attracting", "repelling"}

    def test_identity_intervals_merge_across_zero(self):
        # F = x on [3/4, 1 + 1/4) over three marked pieces, with a bump on
        # (1/4, 3/4) that leaves the diagonal at 1/4 with slope 3/2
        f = pr.make_lift([Fr(0), Fr(1, 8), Fr(1, 4), Fr(1, 2), Fr(3, 4)],
                         [Fr(0), Fr(1, 8), Fr(1, 4), Fr(5, 8), Fr(3, 4)])
        scan = pr.periodic_points(f, 0, 1)
        assert scan.identity_intervals == ((Fr(-1, 4), Fr(1, 4)),)
        assert [(pt.x, pt.left_slope, pt.right_slope) for pt in scan.points] == [
            (Fr(1, 4), 1, Fr(3, 2))
        ]

    def test_separate_identity_intervals_stay_apart(self):
        # F = x on [0, 1/4) and [1/2, 3/4), with a bump after each
        f = pr.make_lift([Fr(0), Fr(1, 4), Fr(3, 8), Fr(1, 2), Fr(3, 4), Fr(7, 8)],
                         [Fr(0), Fr(1, 4), Fr(7, 16), Fr(1, 2), Fr(3, 4), Fr(15, 16)])
        scan = pr.periodic_points(f, 0, 1)
        assert scan.identity_intervals == ((Fr(0), Fr(1, 4)), (Fr(1, 2), Fr(3, 4)))
        assert [pt.x for pt in scan.points] == [Fr(1, 4), Fr(3, 4)]
        assert {pt.stability for pt in scan.points} == {"mixed"}

    def test_stability_reads_both_one_sided_slopes(self):
        kinds = {
            (Fr(1, 2), Fr(2, 3)): "attracting",
            (Fr(3, 2), 2): "repelling",
            (1, 1): "neutral",
            (1, Fr(3, 2)): "mixed",
            (Fr(1, 2), 2): "mixed",
        }
        for (left, right), kind in kinds.items():
            assert pr.PeriodicPoint(x=Fr(0), left_slope=left, right_slope=right).stability == kind

    def test_no_periodic_points_off_the_lock(self):
        scan = pr.periodic_points(pr.rigid(Fr(1, 3)), 1, 2)
        assert scan.points == () and scan.identity_intervals == ()


class TestModeLockInterval:
    def test_point_lock_of_rigid_family(self):
        mli = pr.mode_lock_interval(rigid_family, 1, 2, (Fr(2, 5), Fr(3, 5)))
        assert abs(mli.lo - Fr(1, 2)) <= 2 * mli.tol
        assert abs(mli.hi - Fr(1, 2)) <= 2 * mli.tol
        assert mli.width <= 4 * mli.tol

    def test_not_bracketed(self):
        with pytest.raises(errors.NotBracketed):
            pr.mode_lock_interval(rigid_family, 1, 2, (Fr(3, 5), Fr(9, 10)))

    def test_offset_family_lock_edges(self):
        # exact-continuity offset family: edges at 0 and (1-lam)*d, where
        # secant probes land
        fam = pr.herman_offset(Fr(1, 2), Fr(1, 50))
        mli = pr.mode_lock_interval(fam, 1, 2, (Fr(-1, 20), Fr(1, 20)))
        assert (mli.lo, mli.hi) == (0, Fr(1, 100))

    def test_certificates_and_json(self):
        fam = pr.herman_offset(Fr(1, 2), Fr(1, 50))
        mli = pr.mode_lock_interval(fam, 1, 2, (Fr(-1, 20), Fr(1, 20)))
        assert set(mli.certificates) == {"lo", "hi"}
        j = mli.to_json()
        assert j["p"] == 1 and j["q"] == 2 and "width" in j
        assert {c["which"] for c in j["certificates"].values()} == {"max", "min"}
        assert all(type(c["probes"]) is int and c["probes"] > 0
                   for c in j["certificates"].values())

    @pytest.mark.parametrize("p, q, bracket, lock", [
        (1, 3, (Fr(-1, 4), Fr(0)), (Fr(-6, 35), Fr(-3, 20))),
        (1, 2, (Fr(-1, 7), Fr(1, 10)), (0, 0)),
        (5, 9, (Fr(0), Fr(1, 10)), (Fr(6, 115), Fr(3, 55))),
    ], ids=["1/3", "1/2 pinch", "5/9 Farey neighbour"])
    def test_shifted_family_locks_are_exact(self, p, q, bracket, lock):
        # herman_shifted moves affinely in mu, so its edge functions are
        # piecewise affine and each edge is a probe where g is exactly 0;
        # 5/9 is the k = 4 Farey neighbour (k+1)/(2k+1) of the 1/2 pinch
        fam = pr.herman_shifted(Fr(3, 2))
        mli = pr.mode_lock_interval(fam, p, q, bracket)
        assert (mli.lo, mli.hi) == lock
        for cert in mli.certificates.values():
            left, right = cert["bracket"]
            assert left == right and edge_function(fam, p, q, cert["which"])(left) == 0

    @pytest.mark.parametrize("lam, d, ends", [
        (Fr(1, 2), Fr(1, 50), (Fr(-1, 20), Fr(1, 20))),
        (0.5, 0.02, (-0.05, 0.05)),
    ], ids=["exact", "float"])
    def test_reversed_bracket_names_the_same_interval(self, lam, d, ends):
        # the lock is [0, 1/100]: a bracket given high end first must not
        # come back as a width-zero pinch
        fam = pr.herman_offset(lam, d)
        forward = pr.mode_lock_interval(fam, 1, 2, ends)
        assert pr.mode_lock_interval(fam, 1, 2, ends[::-1]) == forward
        assert forward.lo <= 0 and forward.hi >= Fr(1, 100) - 1e-12

    def test_pinch_rows_take_few_powers(self, monkeypatch):
        # the benchmark's pinch rows: two bracket ends, then a handful of
        # probes per edge, where bisection took about 31
        calls = []

        def counting_power(f, k, *rest):
            calls.append(k)
            return pr.power(f, k, *rest)

        monkeypatch.setattr(rotation, "power", counting_power)
        plane = pr.herman_offset_family(Fr(1, 2))
        for d in (Fr(0), Fr(1, 50), Fr(-1, 50), Fr(1, 137), Fr(-1, 137), Fr(1, 389), Fr(-1, 389)):
            calls.clear()
            mli = pr.mode_lock_interval(plane.at(d), 1, 2, (Fr(-1, 10), Fr(1, 10)))
            assert len(calls) <= 12, (d, len(calls))
            assert len(calls) == 2 + sum(c["probes"] for c in mli.certificates.values())

    @settings(max_examples=25, deadline=None)
    @given(params=offset_params)
    def test_edges_agree_with_reference_bisection(self, params):
        lam, d = params
        bracket = (Fr(-1, 10), Fr(1, 10))
        fam = pr.herman_offset(lam, d)
        mli = pr.mode_lock_interval(fam, 1, 2, bracket)
        for cert in mli.certificates.values():
            g = edge_function(fam, 1, 2, cert["which"])
            ref_left, ref_right = reference_bisect(g, *bracket, mli.tol)
            left, right = cert["bracket"]
            # both brackets hold the sign change; a landed edge is a root
            assert max(left, ref_left) <= min(right, ref_right)
            if left == right:
                assert g(left) == 0 and ref_left <= left <= ref_right
        lefts, rights = zip(*(c["bracket"] for c in mli.certificates.values()))
        assert (mli.lo, mli.hi) == (min(lefts), max(rights))

    @settings(max_examples=25, deadline=None)
    @given(params=offset_params)
    def test_float_copy_encloses_the_exact_lock(self, params):
        lam, d = params
        exact = pr.mode_lock_interval(pr.herman_offset(lam, d), 1, 2, (Fr(-1, 10), Fr(1, 10)))
        assert all(c["bracket"][0] == c["bracket"][1] for c in exact.certificates.values())
        approx = pr.mode_lock_interval(pr.herman_offset(float(lam), float(d)), 1, 2, (-0.1, 0.1))
        # raw float signs of E can be off by its rounding (about 1e-16 here):
        # the outer ends hold the lock to within eps_x, far inside tol/2
        slack = pr.FLOAT.eps_x
        assert approx.lo - slack <= exact.lo and exact.hi <= approx.hi + slack, (approx, exact)

    def test_exact_refraction_edges_keep_small_denominators(self):
        # refraction is not affine in mu; secant points snapped to the
        # simplest rational within tol**2 keep the edge denominators near
        # 1/tol, where raw secant points grow to hundreds of digits
        mli = pr.mode_lock_interval(pr.refraction(2, 1), 5, 6, (Fr(1, 10), Fr(1, 5)))
        assert max(mli.lo.denominator, mli.hi.denominator) < 10**12
        assert Fr(1, 10) < mli.lo < mli.hi < Fr(1, 5) and mli.width > Fr(1, 100)
        # fewer probes than bisection's 30 per edge over this bracket
        assert all(c["probes"] < 30 for c in mli.certificates.values())

    def test_each_bracket_end_powered_once(self, monkeypatch):
        calls = []

        def counting_power(f, k, *rest):
            calls.append(k)
            return pr.power(f, k, *rest)

        monkeypatch.setattr(rotation, "power", counting_power)
        mli = pr.mode_lock_interval(rigid_family, 1, 2, (Fr(2, 5), Fr(3, 5)))
        assert mli.lo == mli.hi == Fr(1, 2)
        # a and b once each, then one midpoint per edge: 1/2 is the exact
        # edge, so both bisections stop at their first probe
        assert calls == [2, 2, 2, 2]

    def test_one_lift_per_power(self, monkeypatch):
        # every lift the family builds is powered once: none is built only
        # to read the backend
        lifts, powers = [], []

        def counting_family(mu):
            lifts.append(mu)
            return pr.rigid(mu)

        def counting_power(f, k, *rest):
            powers.append(k)
            return pr.power(f, k, *rest)

        monkeypatch.setattr(rotation, "power", counting_power)
        mli = pr.mode_lock_interval(SimpleNamespace(lift=counting_family), 1, 3,
                                    (Fr(1, 4), Fr(1, 2)), tol=Fr(1, 1000))
        assert abs(mli.lo - Fr(1, 3)) <= Fr(1, 1000)
        assert len(powers) > 2
        assert len(lifts) == len(powers)

    @pytest.mark.parametrize("family, bracket, tol", [
        (pr.herman_offset(Fr(1, 2), Fr(1, 50)), (Fr(-1, 20), Fr(1, 20)), 0),
        (pr.herman_offset(0.5, 0.02), (-0.05, 0.05), -1.0),
        (pr.herman_offset(0.5, 0.02), (-0.05, 0.05), Fr(1, 10**400)),
    ], ids=["exact zero", "float negative", "float underflow"])
    def test_non_positive_tol_is_refused(self, family, bracket, tol):
        # an exact bisection to a width <= 0 would never end
        with pytest.raises(ValueError, match="tol must be positive"):
            pr.mode_lock_interval(bounded(family), 1, 2, bracket, tol=tol)

    def test_tol_below_float_resolution_still_returns(self):
        # Near mu = 0.05 adjacent floats are 7e-18 apart: the bracket stops
        # shrinking there instead of halving forever.
        fam = pr.herman_offset(1.4142135623730951, 0.013)
        mli = pr.mode_lock_interval(bounded(fam), 1, 2, (-0.0437, 0.0513), tol=1e-30)
        left, right = mli.certificates["lo"]["bracket"]
        assert math.nextafter(left, math.inf) == right  # adjacent floats, far wider than tol
        coarse = pr.mode_lock_interval(fam, 1, 2, (-0.0437, 0.0513), tol=1e-12)
        assert abs(mli.lo - coarse.lo) <= 1e-12 and abs(mli.hi - coarse.hi) <= 1e-12

    def test_decreasing_family_measured_identically(self):
        # refraction moves rho downward in mu; edges must still come out ordered
        fam = pr.refraction(2.0, pr.gmm_critical_beta(2.0))
        mli = pr.mode_lock_interval(fam, 4, 5, (-0.05, 0.05), tol=1e-9)
        assert mli.lo <= mli.hi
        assert mli.width < 1e-6


class TestCoelhoRho:
    def test_symmetric_parameters_give_one_half(self):
        for a in (0.2, 0.3, 0.45):
            assert abs(pr.coelho_rho(a, a) - 0.5) < 1e-12

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.coelho_rho(0.0, 0.5)
        with pytest.raises(errors.OutOfDomain):
            pr.coelho_rho(0.5, 1.0)

    def test_agrees_with_orbit_average(self):
        rho = pr.coelho_rho(0.3, 0.55)
        f = pr.coelho(0.3, 0.55).lift(0.0)
        r = pr.birkhoff_enclosure(f, 10**6)
        assert r.lo <= rho <= r.hi

    def test_rigid_line_a_plus_b_equals_one(self):
        # both slopes are 1 there, so the lift is x + a and the log-ratio
        # closed form degenerates; the value must come out as a exactly
        assert pr.coelho_rho(0.8, 0.2) == 0.8
        assert pr.canonicalize(pr.coelho(Fr(4, 5), Fr(1, 5)).lift(0)).is_rigid
        r = pr.birkhoff_enclosure(pr.coelho(0.8, 0.2).lift(0.0), 1000)
        assert r.lo <= 0.8 <= r.hi
