"""Lift algebra: construction, evaluation, composition, canonical form.

The property layer drives randomly generated exact lifts through the
identities every degree-one increasing PWL lift must satisfy; the exact
backend turns each of them into a decidable equality.
"""
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import pwlrotor as pr
from pwlrotor import errors, lift
from pwlrotor.backend import FloatBackend
from pwlrotor.lift import piece

from conftest import float_copy, rational_grid, rational_lifts


points = st.fractions(min_value=-3, max_value=3, max_denominator=997)
circle_points = st.fractions(min_value=0, max_value=1, max_denominator=997).filter(lambda r: r < 1)


def reference_compose(outer, inner):
    """Marked points and values of ``outer o inner`` by sorting and searching.

    The algorithm the merge sweep in ``compose`` replaced, kept as its
    reference: sort ``inner.breaks`` with ``frac(invert(inner)(c))`` for
    every outer break ``c``, collapse duplicates (float: cluster within
    ``eps_x`` to the first member, then drop a last point within ``eps_x``
    of the first plus one), and evaluate ``outer(inner(x))`` at each point.
    """
    back = pr.invert(inner)
    pts = sorted(list(inner.breaks) + [pr.frac(back(c)) for c in outer.breaks])
    backend = inner.backend
    marked = [pts[0]]
    if isinstance(backend, FloatBackend):
        for x in pts[1:]:
            if x - marked[-1] > backend.eps_x:
                marked.append(x)
        if len(marked) > 1 and (marked[0] + 1) - marked[-1] <= backend.eps_x:
            marked.pop()
    else:
        for x in pts[1:]:
            if x != marked[-1]:
                marked.append(x)
    return tuple(marked), tuple(outer(inner(x)) for x in marked)


def assert_agree_on_circle(h, marked, values, eps):
    """``h`` carries the reference points within ``eps`` on the circle.

    A point may sit on the other side of 0 (``0.9999999999999999`` for
    ``0.0``); its value then differs by the same whole turn.
    """
    assert h.n == len(marked)
    matched = set()
    for x, v in zip(marked, values):
        j = min(range(h.n), key=lambda j: abs(pr.frac(h.breaks[j] - x + 0.5) - 0.5))
        turn = round(h.breaks[j] - x)
        assert abs(h.breaks[j] - turn - x) <= eps
        assert abs(h.values[j] - turn - v) <= eps
        matched.add(j)
    assert len(matched) == h.n


class TestConstruction:
    def test_empty_input(self):
        with pytest.raises(errors.EmptyInput):
            pr.make_lift([], [])

    def test_length_mismatch(self):
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(0), Fr(1, 2)], [Fr(1, 4)])

    def test_breaks_out_of_order(self):
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(1, 2), Fr(1, 4)], [Fr(0), Fr(1, 2)])

    def test_duplicate_break(self):
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(1, 4), Fr(1, 4)], [Fr(0), Fr(1, 2)])

    def test_break_outside_fundamental_domain(self):
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(1)], [Fr(3, 2)])
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(-1, 4)], [Fr(0)])

    def test_non_increasing_values(self):
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(0), Fr(1, 2)], [Fr(1, 2), Fr(1, 2)])

    def test_wrap_slope_must_be_positive(self):
        # values[-1] >= values[0] + 1 makes the wrap piece non-increasing
        with pytest.raises(errors.NonMonotone):
            pr.make_lift([Fr(0), Fr(1, 2)], [Fr(0), Fr(3, 2)])

    def test_rational_backend_refuses_floats(self):
        with pytest.raises(errors.BackendMismatch):
            pr.make_lift([0.0], [0.5], backend=pr.RATIONAL)

    def test_backend_inference(self):
        assert pr.make_lift([Fr(0)], [Fr(1, 2)]).backend is pr.RATIONAL
        assert pr.make_lift([0.0], [0.5]).backend is pr.FLOAT

    def test_slopes_derived_not_supplied(self):
        f = pr.make_lift([Fr(0), Fr(1, 3)], [Fr(1, 7), Fr(3, 7)])
        assert f.slopes == (Fr(6, 7), Fr(15, 14))

    def test_rigid(self):
        r = pr.rigid(Fr(2, 5))
        assert r.is_rigid
        assert r.rigid_shift == Fr(2, 5)
        assert r(Fr(1, 10)) == Fr(1, 2)

    @staticmethod
    def _from_json(obj):
        backend = pr.backend_from_tag(obj["backend"])
        dec = backend.coerce
        return pr.make_lift([dec(x) for x in obj["breaks"]], [dec(x) for x in obj["values"]],
                            backend)

    def test_json_round_trip_exact(self):
        f = pr.make_lift([Fr(0), Fr(3, 7)], [Fr(1, 7), Fr(1)])
        g = self._from_json(f.to_json())
        assert g.breaks == f.breaks and g.values == f.values
        assert g.backend is pr.RATIONAL

    def test_json_round_trip_float(self):
        f = pr.make_lift([0.0, 0.3], [0.1, 0.9])
        g = self._from_json(f.to_json())
        assert g.breaks == f.breaks and g.values == f.values


class TestEvaluation:
    def test_inverse_round_trip_at_1000_points(self, coelho_q3):
        f, g = coelho_q3, pr.invert(coelho_q3)
        for x in rational_grid(1000):
            assert g(f(x)) == x

    def test_inverse_round_trip_float(self):
        f = pr.herman_shifted(math.sqrt(2.0)).lift(0.013)
        g = pr.invert(f)
        for i in range(1000):
            x = (i * 0.7391) % 1.0
            assert abs(g(f(x)) - x) <= 1e-12

    def test_degree_one_at_1000_points(self, coelho_q2):
        for x in rational_grid(1000):
            assert coelho_q2(x + 1) - coelho_q2(x) == 1

    def test_float_just_below_an_integer(self):
        # -1e-17 - floor(-1e-17) rounds up to 1.0; the winding split carries
        # it to 0.0 one turn up, so nothing reads a point at the top of [0, 1)
        assert pr.frac(-1e-17) == 0.0
        f = pr.make_lift([0.0, 0.3], [0.1, 0.7])
        assert f(-1e-17) == 0.1  # the last piece one turn down gives 0.1 + 9e-17
        g = pr.invert(pr.make_lift([0.0, 0.5], [-1e-17, 0.75]))
        assert g.breaks == (0.0, 0.75) and g.values == (0.0, 0.5)

    def test_evaluation_below_first_break(self):
        # b_1 need not be 0; the wrap piece covers [0, b_1)
        f = pr.make_lift([Fr(1, 4), Fr(1, 2)], [Fr(1, 2), Fr(7, 8)])
        # wrap piece has slope 5/6: f(0) = (7/8 - 1) + (5/6)(1/2) = 7/24
        assert f(Fr(0)) == Fr(7, 24)
        assert pr.invert(f)(f(Fr(1, 8))) == Fr(1, 8)

    @settings(max_examples=120, deadline=None)
    @given(rational_lifts(), circle_points)
    def test_piece_holds_the_point_and_its_affine_form(self, f, r):
        k = piece(f.breaks, r)
        assert -1 <= k < f.n
        if k < 0:  # the wrap piece [b_n - 1, b_1)
            assert f.breaks[-1] - 1 <= r < f.breaks[0]
            assert f(r) == (f.values[-1] - 1) + f.slopes[-1] * (r - (f.breaks[-1] - 1))
        else:
            right = f.breaks[k + 1] if k + 1 < f.n else f.breaks[0] + 1
            assert f.breaks[k] <= r < right
            assert f(r) == f.values[k] + f.slopes[k] * (r - f.breaks[k])

    def test_circle_wraps(self, coelho_q2):
        x = Fr(9, 10)
        assert coelho_q2(x) == 1 + Fr(17, 60)
        assert pr.frac(coelho_q2(x)) == Fr(17, 60)


class TestAlgebraProperties:
    @settings(max_examples=120, deadline=None)
    @given(rational_lifts(), points)
    def test_round_trip(self, f, x):
        g = pr.invert(f)
        assert g(f(x)) == x
        assert f(g(x)) == x

    @settings(max_examples=120, deadline=None)
    @given(rational_lifts(), points)
    def test_degree_one(self, f, x):
        assert f(x + 1) - f(x) == 1

    @settings(max_examples=60, deadline=None)
    @given(rational_lifts(3), rational_lifts(3), rational_lifts(3), points)
    def test_compose_associative_on_evaluation(self, f, g, h, x):
        left = pr.compose(pr.compose(f, g), h)
        right = pr.compose(f, pr.compose(g, h))
        assert left(x) == right(x) == f(g(h(x)))

    @settings(max_examples=60, deadline=None)
    @given(rational_lifts(3), st.integers(1, 3), st.integers(1, 3), points)
    def test_power_additivity(self, f, j, k, x):
        assert pr.power(f, j + k)(x) == pr.compose(pr.power(f, j), pr.power(f, k))(x)

    @settings(max_examples=80, deadline=None)
    @given(rational_lifts(), rational_lifts())
    def test_invert_undoes_compose(self, f, g):
        back = pr.canonicalize(pr.compose(pr.invert(f), pr.compose(f, g)))
        c = pr.canonicalize(g)
        if c.is_rigid:
            assert back.is_rigid and back.rigid_shift == c.rigid_shift
        else:
            assert (back.breaks, back.values) == (c.breaks, c.values)

    @settings(max_examples=120, deadline=None)
    @given(rational_lifts())
    def test_jump_product_telescopes_to_one(self, f):
        assert pr.jump_product(f) == 1

    @settings(max_examples=120, deadline=None)
    @given(rational_lifts(), points)
    def test_canonicalize_idempotent_and_evaluation_preserving(self, f, x):
        c = pr.canonicalize(f)
        assert c(x) == f(x)
        cc = pr.canonicalize(c)
        assert cc.breaks == c.breaks and cc.values == c.values

    @settings(max_examples=80, deadline=None)
    @given(rational_lifts(), points)
    def test_invert_matches_pointwise_inverse(self, f, x):
        g = pr.invert(f)
        assert g(f(x)) == x
        assert pr.invert(g)(x) == f(x)

    @settings(max_examples=80, deadline=None)
    @given(rational_lifts(3), rational_lifts(3))
    def test_sup_difference_symmetric_and_dominating(self, f, g):
        d = pr.sup_difference(f, g)
        assert d == pr.sup_difference(g, f)
        for x in rational_grid(40):
            assert abs(f(x) - g(x)) <= d

    @settings(max_examples=80, deadline=None)
    @given(rational_lifts())
    def test_sup_difference_to_self_is_zero(self, f):
        assert pr.sup_difference(f, f) == 0


class TestComposeSweep:
    """``compose`` against the sort-and-search reference it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(rational_lifts(), rational_lifts())
    def test_exact_identical_to_reference(self, f, g):
        h = pr.compose(f, g)
        assert (h.breaks, h.values) == reference_compose(f, g)

    @settings(max_examples=300, deadline=None)
    @given(rational_lifts(), rational_lifts())
    def test_float_agrees_with_reference_on_circle(self, f, g):
        ff, gf = float_copy(f), float_copy(g)
        assert_agree_on_circle(pr.compose(ff, gf), *reference_compose(ff, gf), pr.FLOAT.eps_x)

    # inner: breaks 0 and 1/2, values 1/10 and 7/20 (slopes 1/2, 3/2)
    INNER = pr.make_lift([Fr(0), Fr(1, 2)], [Fr(1, 10), Fr(7, 20)])

    @pytest.mark.parametrize(
        "outer, inner, expected",
        [
            # the preimage of outer break 7/20 is the inner break 1/2
            (pr.make_lift([Fr(1, 5), Fr(7, 20)], [Fr(0), Fr(1, 2)]), INNER,
             (Fr(0), Fr(1, 5), Fr(1, 2))),
            # inner is x + 1/3 marked at 1/4 and 3/4; outer break 1/3 pulls
            # back to 1, which rotates to the front as 0
            (pr.make_lift([Fr(1, 3), Fr(2, 3)], [Fr(1, 2), Fr(3, 4)]),
             pr.make_lift([Fr(1, 4), Fr(3, 4)], [Fr(7, 12), Fr(13, 12)]),
             (Fr(0), Fr(1, 4), Fr(1, 3), Fr(3, 4))),
            # outer break 2/5 equals v_0 = 7/5 one turn down: its preimage is b_0
            (pr.make_lift([Fr(2, 5), Fr(4, 5)], [Fr(0), Fr(3, 5)]),
             pr.make_lift([Fr(1, 10), Fr(3, 5)], [Fr(7, 5), Fr(17, 10)]),
             (Fr(1, 10), Fr(3, 5), Fr(47, 70))),
        ],
        ids=["preimage-on-inner-break", "preimage-on-zero", "outer-break-at-v0"],
    )
    def test_coinciding_points(self, outer, inner, expected):
        h = pr.compose(outer, inner)
        assert h.breaks == expected
        assert (h.breaks, h.values) == reference_compose(outer, inner)
        of, inf = float_copy(outer), float_copy(inner)
        assert_agree_on_circle(pr.compose(of, inf), *reference_compose(of, inf), pr.FLOAT.eps_x)


class TestCarriedSlopes:
    """Exact ``compose``, ``power``, ``invert`` and ``canonicalize`` carry the
    slopes their algebra derives and check no order; ``make_lift`` derives
    the slopes as rise over run and checks the order, so it is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(rational_lifts(), rational_lifts(), st.integers(1, 6))
    def test_equal_to_make_lift(self, f, g, k):
        for r in (
            pr.compose(f, g),
            pr.power(f, k),
            pr.invert(f),
            pr.canonicalize(pr.compose(f, g)),
            pr.canonicalize(pr.compose(pr.invert(f), f)),  # the identity, rigid
        ):
            assert r == pr.make_lift(r.breaks, r.values)

    def test_only_float_results_are_checked(self, monkeypatch, coelho_q2, coelho_q3):
        floats = float_copy(coelho_q3)
        calls = []
        checked = lift._checked_lift
        monkeypatch.setattr(lift, "_checked_lift", lambda *a: calls.append(a) or checked(*a))
        square = pr.power(coelho_q2, 2)  # the rigid x + 1 with two marked points
        assert pr.canonicalize(square).is_rigid
        pr.invert(pr.compose(coelho_q3, coelho_q2))
        assert not calls
        pr.compose(floats, floats)
        assert calls


class TestCanonicalForm:
    def test_collapses_fake_breaks(self):
        # middle marked point has equal one-sided slopes: not a real break
        f = pr.make_lift([Fr(0), Fr(1, 4), Fr(1, 2)], [Fr(0), Fr(1, 4), Fr(1, 2)])
        c = pr.canonicalize(f)
        assert c.is_rigid
        assert c.rigid_shift == 0

    def test_power_of_exact_involution_is_rigid(self, coelho_q2):
        sq = pr.canonicalize(pr.power(coelho_q2, 2))
        assert sq.is_rigid
        assert sq.rigid_shift == 1

    def test_genuine_break_indices(self, coelho_q3):
        assert coelho_q3.genuine_break_indices() == [0, 1]

    def test_jump_values(self):
        f = pr.make_lift([Fr(0), Fr(3, 7)], [Fr(1, 7), Fr(1)])
        # slopes (2, 1/4): jump at break k is right/left slope
        assert pr.jump(f, 0) == Fr(2) / Fr(1, 4)
        assert pr.jump(f, 1) == Fr(1, 4) / Fr(2)
        assert pr.jump_product(f) == 1

    def test_jump_product_takes_genuine_breaks_only(self):
        # slopes (2, 2, 1/4): marked point 1 is no break
        f = pr.make_lift([Fr(0), Fr(1, 7), Fr(3, 7)], [Fr(1, 7), Fr(3, 7), Fr(1)])
        assert pr.jump_product(f) == pr.jump_product(f, [0, 2]) == 1
        with pytest.raises(errors.NotABreak):
            pr.jump_product(f, [0, 1])
        with pytest.raises(IndexError):
            pr.jump_product(f, [-1])


class TestArguments:
    def test_compose_refuses_mixed_backends(self, coelho_q3):
        with pytest.raises(errors.BackendMismatch, match="rational-backend with float-backend"):
            pr.compose(coelho_q3, float_copy(coelho_q3))

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_needs_a_positive_exponent(self, coelho_q3, k):
        with pytest.raises(ValueError, match="k >= 1"):
            pr.power(coelho_q3, k)


class TestPieceCap:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr("pwlrotor.lift.PIECE_CAP", 40)
        f = pr.refraction(2.0, 1.14).lift(0.0)
        with pytest.raises(errors.Overflow):
            pr.power(f, 50)

    def test_cap_roomy_enough_passes(self, monkeypatch):
        monkeypatch.setattr("pwlrotor.lift.PIECE_CAP", 10**4)
        f = pr.refraction(2.0, 1.14).lift(0.0)
        assert pr.power(f, 50).n <= 104


class TestPrecisionLoss:
    """Float powers of a strongly locked map lose monotonicity to rounding."""

    LOCKED = pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(-0.1)  # rho = 5/6

    def test_power_512(self):
        with pytest.raises(errors.PrecisionLoss):
            pr.power(self.LOCKED, 512)

    def test_compose_284_with_f(self):
        with pytest.raises(errors.PrecisionLoss):
            pr.compose(pr.power(self.LOCKED, 284), self.LOCKED)

    def test_not_reported_as_bad_data(self):
        assert not issubclass(errors.PrecisionLoss, errors.NonMonotone)
        assert pr.power(self.LOCKED, 256).n > 256


class TestNoRecoercion:
    """Composition builds its result from backend scalars as they are."""

    def test_float_compose_coerces_nothing(self, monkeypatch):
        f = pr.refraction(2.0, 1.14).lift(0.0)
        calls = []
        coerce = FloatBackend.coerce
        monkeypatch.setattr(FloatBackend, "coerce", lambda self, x: calls.append(x) or coerce(self, x))
        h = pr.power(f, 16)
        assert not calls
        assert h == pr.make_lift(h.breaks, h.values)
        assert calls

    def test_exact_compose_keeps_fractions(self, coelho_q3):
        h = pr.compose(coelho_q3, coelho_q3)
        assert all(type(x) is Fr for x in h.breaks + h.values + h.slopes)
