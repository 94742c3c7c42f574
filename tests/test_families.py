"""Built-in families: tables, derivatives, domains, JSON round trips."""
import json
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

import pwlrotor as pr
from pwlrotor import errors

SQRT2 = math.sqrt(2.0)


def fd_derivatives(family, mu, h=1e-6):
    """Central-difference oracle for the analytic derivative callbacks."""
    b_hi, v_hi = family.table(mu + h)
    b_lo, v_lo = family.table(mu - h)
    db = [(x - y) / (2 * h) for x, y in zip(b_hi, b_lo)]
    dv = [(x - y) / (2 * h) for x, y in zip(v_hi, v_lo)]
    return db, dv


class TestHerman:
    def test_slopes(self):
        f = pr.herman(SQRT2, beta=1.3).lift(0.0)
        assert abs(f.slopes[0] - SQRT2) < 1e-12
        assert abs(f.slopes[1] - SQRT2 ** -1.3) < 1e-12

    def test_break_solves_continuity_equation(self):
        for lam, beta in ((SQRT2, 1.0), (1.7, 0.6), (3.0, 2.5)):
            c = pr.herman(lam, beta).lift(0.0).breaks[1]
            assert abs(lam * c - (1 + lam ** -beta * (c - 1))) < 1e-12

    def test_beta_one_break_is_classic(self):
        c = pr.herman(Fr(3, 2)).lift(0).breaks[1]
        assert c == Fr(2, 5)  # 1/(1+lam)

    def test_rational_backend_integer_beta_only(self):
        assert pr.herman(Fr(3, 2), beta=2).lift(0).slopes[1] == Fr(4, 9)
        with pytest.raises(errors.BackendMismatch):
            pr.herman(Fr(3, 2), beta=Fr(1, 2))

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.herman(1)
        with pytest.raises(errors.OutOfDomain):
            pr.herman(2, beta=0)

    def test_analytic_derivatives_match_finite_differences(self):
        fam = pr.herman(SQRT2, beta=1.3)
        db, dv = fam.derivatives(0.05)
        db_fd, dv_fd = fd_derivatives(fam, 0.05)
        assert max(abs(a - b) for a, b in zip(db, db_fd)) < 1e-8
        assert max(abs(a - b) for a, b in zip(dv, dv_fd)) < 1e-8


class TestHermanShifted:
    def test_closure_at_mu_zero(self, herman_32):
        f = herman_32.lift(0)
        assert f(Fr(0)) == Fr(2, 5)      # F(0) = c
        assert f(Fr(2, 5)) == 1          # F(c) = 1: period-2 closure
        sq = pr.canonicalize(pr.power(f, 2))
        assert sq.is_rigid and sq.rigid_shift == 1

    def test_slopes(self, herman_32):
        assert herman_32.lift(0).slopes == (Fr(3, 2), Fr(2, 3))

    def test_pure_translation_in_mu(self, herman_32):
        f0, f1 = herman_32.lift(0), herman_32.lift(Fr(1, 8))
        for x in (Fr(0), Fr(1, 3), Fr(7, 10)):
            assert f1(x) - f0(x) == Fr(1, 8)

    def test_domain_names_the_family(self):
        with pytest.raises(errors.OutOfDomain, match="herman_shifted needs lam > 0"):
            pr.herman_shifted(Fr(-1, 2))
        with pytest.raises(errors.OutOfDomain, match="herman_offset needs lam > 0"):
            pr.herman_offset(Fr(-1, 2), Fr(0))


#: Float tables away from mu = 0, as the value expressions of each family
#: round them.  Writing a value as ``mu + (c0 + lam*c)`` instead of
#: ``mu + c0 + lam*c`` moves the second value by 1 ulp at some of these mu.
PINNED_FLOAT_TABLES = [
    ("herman_shifted", (SQRT2,), -0.0071,
     "((0.0, 0.4142135623730951), (0.4071135623730951, 0.9929000000000001))"),
    ("herman_shifted", (SQRT2,), 0.1,
     "((0.0, 0.4142135623730951), (0.5142135623730951, 1.1))"),
    ("herman_shifted", (SQRT2,), 0.013,
     "((0.0, 0.4142135623730951), (0.4272135623730951, 1.0130000000000001))"),
    ("herman_offset", (1.5, 0.01), -0.137,
     "((0.0, 0.41000000000000003), (0.263, 0.878))"),
    ("herman_offset", (1.5, 0.01), 0.07,
     "((0.0, 0.41000000000000003), (0.47000000000000003, 1.085))"),
    ("herman_offset", (1.5, 0.01), -0.3,
     "((0.0, 0.41000000000000003), (0.10000000000000003, 0.7150000000000001))"),
    ("coelho", (0.3, 0.6), -0.137, "((0.0, 0.6), (0.16299999999999998, 0.863))"),
    ("coelho", (0.3, 0.6), 0.1, "((0.0, 0.6), (0.4, 1.1))"),
]


@pytest.mark.parametrize(
    "name, args, mu, expected", PINNED_FLOAT_TABLES,
    ids=["%s@%s" % (row[0], row[2]) for row in PINNED_FLOAT_TABLES],
)
def test_float_shift_tables_are_pinned(name, args, mu, expected):
    fam = getattr(pr, name)(*args)
    assert repr(fam.table(mu)) == expected
    assert fam.derivatives(mu) == ((0.0, 0.0), (1.0, 1.0))


class TestCoelho:
    def test_value_at_second_break_is_one(self):
        # the defining normalisation G(b) = 1, exactly
        for a, b in ((Fr(1, 3), Fr(1, 3)), (Fr(1, 7), Fr(3, 7)), (Fr(2, 5), Fr(1, 2))):
            f = pr.coelho(a, b).lift(0)
            assert f(b) == 1

    def test_slopes_closed_form(self):
        a, b = Fr(1, 7), Fr(3, 7)
        f = pr.coelho(a, b).lift(0)
        assert f.slopes == ((1 - a) / b, a / (1 - b))

    def test_tuned_instances_have_finite_order(self, coelho_q2, coelho_q3):
        two = pr.canonicalize(pr.power(coelho_q2, 2))
        three = pr.canonicalize(pr.power(coelho_q3, 3))
        assert two.is_rigid and two.rigid_shift == 1
        assert three.is_rigid and three.rigid_shift == 1

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.coelho(Fr(0), Fr(1, 2))
        with pytest.raises(errors.OutOfDomain):
            pr.coelho(Fr(1, 2), Fr(1))


class TestRefraction:
    def test_slope_tuple(self):
        alpha, beta = 2.0, 1.1
        f = pr.refraction(alpha, beta).lift(0.0)
        expected = (1 / alpha, beta / alpha, beta, alpha / beta)
        assert max(abs(s - e) for s, e in zip(f.slopes, expected)) < 1e-12

    def test_fixed_values_do_not_move_with_mu(self):
        fam = pr.refraction(2.0, 1.2)
        f0, f1 = fam.lift(0.0), fam.lift(0.03)
        assert f0.values[1] == f1.values[1] == 1.0
        assert f0.values[3] == f1.values[3] == 1.5

    @pytest.mark.parametrize("alpha", [1.5, 2, 3, 5])
    def test_critical_beta_closes_a_period_5_orbit(self, alpha):
        beta_c = pr.gmm_critical_beta(alpha)
        f = pr.refraction(alpha, beta_c).lift(0.0)
        b = f.breaks
        assert abs(pr.frac(f(b[2])) - b[1]) < 1e-12  # f(b3) = b2
        orbit = [0.0]
        for _ in range(5):
            orbit.append(pr.frac(f(orbit[-1])))
        d_close = abs(orbit[5] - orbit[0])
        assert min(d_close, 1 - d_close) < 1e-10
        for bb in b:
            d = min(min(abs(bb - o), 1 - abs(bb - o)) for o in orbit[:5])
            assert d < 1e-9

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.refraction(1.0, 1.5)
        with pytest.raises(errors.OutOfDomain):
            pr.refraction(2.0, 1.2).lift(-0.3)   # beta + mu < 1
        with pytest.raises(errors.OutOfDomain):
            pr.refraction(2.0, 1.2).lift(0.9)    # 1/alpha + 1/(beta+mu) < 1

    def test_decreasing_direction_flag(self):
        assert pr.refraction(2.0, 1.2).direction_sign == -1
        assert pr.herman_shifted(1.5).direction_sign == 1

    def test_analytic_derivatives_match_finite_differences(self):
        fam = pr.refraction(2.0, 1.2)
        db, dv = fam.derivatives(0.01)
        db_fd, dv_fd = fd_derivatives(fam, 0.01)
        assert max(abs(a - b) for a, b in zip(db, db_fd)) < 1e-8
        assert max(abs(a - b) for a, b in zip(dv, dv_fd)) < 1e-8

    def test_sandwiched_parameter_increments(self):
        # C1*(mu - nu) < sigma*(F_mu - F_nu) < C2*(mu - nu) pointwise
        fam = pr.refraction(2.0, 1.2)
        xs = [i / 23 for i in range(23)]
        rates = {}
        for mu in (0.01, 0.005):
            f0, f1 = fam.lift(0.0), fam.lift(mu)
            diffs = [-(f1(x) - f0(x)) / mu for x in xs]  # sigma = -1
            rates[mu] = (min(diffs), max(diffs))
            assert rates[mu][0] > 0
        # the per-unit rates are mu-stable, so a single (C1, C2) works
        assert rates[0.005][0] > 0.5 * rates[0.01][0]
        assert rates[0.005][1] < 2.0 * rates[0.01][1]


class TestCriticalBeta:
    def test_alpha_two_is_sqrt5_minus_one(self):
        assert abs(pr.gmm_critical_beta(2) - (math.sqrt(5) - 1)) < 1e-15

    def test_alpha_three_halves(self):
        # the quadratic collapses to beta = 3/2 exactly at alpha = 3/2
        assert abs(pr.gmm_critical_beta(1.5) - 1.5) < 1e-15

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.gmm_critical_beta(1.0)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_slice_alpha_inverts_the_critical_curve(self, m):
        # beta = alpha/m collapses the critical quadratic to
        # (alpha - 1)(1/m^2 + 1/m) = 1, i.e. alpha = 1 + m^2/(1 + m)
        alpha = 1 + m * m / (1 + m)
        assert abs(pr.gmm_critical_beta(alpha) - alpha / m) < 1e-12


class TestHermanOffset:
    def test_d_zero_is_exactly_the_shifted_family(self):
        base = pr.herman_shifted(Fr(1, 2))
        off = pr.herman_offset(Fr(1, 2), Fr(0))
        for mu in (Fr(0), Fr(1, 8), Fr(-1, 10)):
            assert off.table(mu) == base.table(mu)

    def test_continuity_is_exact_not_first_order(self):
        fam = pr.herman_offset(Fr(1, 2), Fr(1, 20))
        f = fam.lift(Fr(1, 16))
        c = f.breaks[1]
        # approaching the break from the left hits the stored value exactly
        left = f.values[0] + f.slopes[0] * (c - f.breaks[0])
        assert left == f.values[1]

    def test_domain(self):
        with pytest.raises(errors.OutOfDomain):
            pr.herman_offset(Fr(1, 2), Fr(2, 5))   # break pushed to 1+1/15
        with pytest.raises(errors.OutOfDomain):
            pr.herman_offset(Fr(3), Fr(1, 10))     # second slope would be <= 0

    def test_two_parameter_wrapper(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        assert plane.reference_slopes == (0.0, 0.5)
        assert plane.at(Fr(1, 50)).table(Fr(0)) == pr.herman_offset(
            Fr(1, 2), Fr(1, 50)
        ).table(Fr(0))

    def test_slices_keep_the_plane_backend(self):
        exact = pr.herman_offset_family(Fr(1, 2))
        assert exact.at(Fr(1, 50)).backend is pr.RATIONAL
        with pytest.raises(errors.BackendMismatch):
            exact.at(0.01)
        floated = pr.herman_offset_family(Fr(1, 2), backend="float")
        assert floated.at(Fr(1, 50)).backend is pr.FLOAT


class TestCustomFamily:
    NODES = [Fr(-1), Fr(1)]
    BREAKS = [[Fr(0)], [Fr(0)]]
    VALUES = [[Fr(-1, 2)], [Fr(3, 2)]]  # x + 1/2 + mu

    def family(self):
        return pr.custom_family(self.NODES, self.BREAKS, self.VALUES)

    def test_linear_interpolation(self):
        fam = self.family()
        f = fam.lift(Fr(1, 4))
        assert f.is_rigid and f.rigid_shift == Fr(3, 4)

    def test_outside_table_range(self):
        with pytest.raises(errors.OutOfDomain):
            self.family().lift(Fr(3, 2))

    def test_only_linear_interpolation(self):
        j = self.family().to_json()
        assert "interpolation" not in j["params"]
        j["params"]["interpolation"] = "linear"
        with pytest.raises(ValueError, match=r"unknown params: \['interpolation'\]"):
            pr.family_from_json(j)

    def test_table_shape_validation(self):
        with pytest.raises(errors.OutOfDomain):
            pr.custom_family([Fr(0)], [[Fr(0)]], [[Fr(1, 2)]])
        with pytest.raises(errors.OutOfDomain):
            pr.custom_family(self.NODES, [[Fr(0)], [Fr(0), Fr(1, 2)]], self.VALUES)
        with pytest.raises(errors.OutOfDomain):
            pr.custom_family([Fr(1), Fr(0)], self.BREAKS, self.VALUES)
        with pytest.raises(errors.OutOfDomain, match="one row per mu node"):
            pr.custom_family(self.NODES, self.BREAKS[:1], self.VALUES)

    def test_derivatives_are_segment_slopes(self):
        fam = pr.custom_family(
            [Fr(0), Fr(1, 2), Fr(1)],
            [[Fr(0), Fr(1, 4)], [Fr(0), Fr(1, 3)], [Fr(0), Fr(1, 2)]],
            [[Fr(1, 8), Fr(1, 2)], [Fr(1, 4), Fr(3, 4)], [Fr(1, 2), Fr(1)]],
        )
        lower = ((Fr(0), Fr(1, 6)), (Fr(1, 4), Fr(1, 2)))  # slopes on [0, 1/2]
        upper = ((Fr(0), Fr(1, 3)), (Fr(1, 2), Fr(1, 2)))  # slopes on [1/2, 1]
        got = fam.derivatives(Fr(1, 4))
        assert got == lower and all(type(x) is Fr for row in got for x in row)
        # the table is affine on a segment, so its difference quotient is exact
        (b0, v0), (b1, v1) = fam.table(Fr(1, 4)), fam.table(Fr(3, 8))
        assert lower == (
            tuple((y - x) * 8 for x, y in zip(b0, b1)),
            tuple((y - x) * 8 for x, y in zip(v0, v1)),
        )
        assert fam.derivatives(Fr(3, 4)) == upper
        with pytest.raises(errors.OutOfDomain):
            fam.derivatives(Fr(5, 4))

    def test_derivatives_at_nodes(self):
        fam = pr.custom_family(
            [Fr(0), Fr(1, 2), Fr(1)],
            [[Fr(0)], [Fr(0)], [Fr(0)]],
            [[Fr(0)], [Fr(1, 4)], [Fr(3, 4)]],
        )
        rates = {mu: fam.derivatives(mu)[1][0] for mu in (Fr(0), Fr(1, 2), Fr(1))}
        # a node takes the segment above it, and the top node the last one
        assert rates == {Fr(0): Fr(1, 2), Fr(1, 2): Fr(1), Fr(1): Fr(1)}


class TestJsonRoundTrips:
    FAMILIES = [
        pr.herman(SQRT2, beta=1.3),
        pr.herman_shifted(Fr(3, 2)),
        pr.coelho(Fr(1, 7), Fr(3, 7)),
        pr.refraction(2.0, 1.2),
        pr.herman_offset(Fr(1, 2), Fr(1, 50)),
        pr.custom_family([Fr(-1), Fr(1)], [[Fr(0)], [Fr(0)]], [[Fr(-1, 2)], [Fr(3, 2)]]),
    ]

    @pytest.mark.parametrize("idx", range(len(FAMILIES)))
    def test_round_trip_preserves_tables(self, idx):
        exact = self.FAMILIES[idx]
        # the family as built, and its float copy
        for fam in (exact, pr.family_from_json(exact.to_json(), backend="float")):
            clone = pr.family_from_json(fam.to_json())
            assert clone.name == fam.name
            assert clone.backend.tag == fam.backend.tag
            for mu in (Fr(0), Fr(1, 8), Fr(-1, 10)):
                mu = fam.backend.coerce(mu)
                assert clone.table(mu) == fam.table(mu)
                assert clone.derivatives(mu) == fam.derivatives(mu)

    def test_integer_parameters_stay_integers(self):
        # ints must not become floats, or the round trip would pick the
        # float backend when the backend tag is absent
        j = pr.herman(2, 1).to_json()
        assert j["params"]["lam"] == 2 and type(j["params"]["lam"]) is int
        assert pr.family_from_json(j).backend is pr.RATIONAL
        untagged = {k: v for k, v in j.items() if k != "backend"}
        assert pr.family_from_json(untagged).backend is pr.RATIONAL

    def test_numpy_parameters_round_trip(self):
        # numpy scalars encode as plain JSON numbers of their own kind
        for lam, backend in ((np.int64(2), pr.RATIONAL), (np.float32(1.5), pr.FLOAT)):
            fam = pr.herman(lam)
            assert fam.backend is backend
            j = json.loads(json.dumps(fam.to_json()))
            untagged = {k: v for k, v in j.items() if k != "backend"}
            for clone in (pr.family_from_json(j), pr.family_from_json(untagged)):
                assert clone.backend is backend
                assert clone.lift(0) == fam.lift(0)

    def test_exact_string_parameters_select_rational(self):
        fam = pr.family_from_json({"family": "coelho", "params": {"a": "1/7", "b": "3/7"}})
        assert fam.backend is pr.RATIONAL
        assert fam.lift(0).breaks == (Fr(0), Fr(3, 7))

    def test_backend_override(self):
        fam = pr.family_from_json(
            {"family": "coelho", "params": {"a": "1/7", "b": "3/7"}}, backend="float"
        )
        assert fam.backend is pr.FLOAT

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            pr.family_from_json({"family": "arnold", "params": {}})

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError):
            pr.family_from_json({"family": "coelho", "params": {"a": "1/7"}})
        with pytest.raises(ValueError):
            pr.family_from_json(
                {"family": "coelho", "params": {"a": "1/7", "b": "3/7", "c": 1}}
            )

    @pytest.mark.parametrize("name, params", [
        ("herman_shifted", {"lam": None}),
        ("coelho", {"a": [1, 2], "b": "1/3"}),
        ("custom", {"mu": "1/2", "breaks": [["0"], ["0"]], "values": [["1/2"], ["3/2"]]}),
        ("custom", {"mu": ["0", "1"], "breaks": ["0", "0"], "values": [["1/2"], ["3/2"]]}),
    ])
    def test_ill_typed_params(self, name, params):
        with pytest.raises(ValueError):
            pr.family_from_json({"family": name, "params": params})

    @pytest.mark.parametrize("obj, match", [
        ({"family": "coelho", "params": {"a": "1/0", "b": "3/7"}}, "zero denominator"),
        ([{"family": "coelho"}], "description must be an object"),
        ({"family": "coelho", "params": [["a", "1/7"]]}, "params must be an object"),
    ], ids=["zero denominator", "description", "params"])
    def test_malformed_description(self, obj, match):
        with pytest.raises(ValueError, match=match):
            pr.family_from_json(obj)

    @pytest.mark.parametrize("backend", [5, ["float"], {"tag": "float"}, True])
    def test_backend_must_be_a_tag(self, backend):
        obj = {"family": "herman_shifted", "params": {"lam": 1.5}, "backend": backend}
        with pytest.raises(ValueError, match="unknown backend tag"):
            pr.family_from_json(obj)

    @pytest.mark.parametrize("backend, want", [(None, pr.RATIONAL), ("float", pr.FLOAT),
                                               (pr.FLOAT, pr.FLOAT)])
    def test_backend_tag_object_or_null(self, backend, want):
        # null infers the backend from the exact param
        obj = {"family": "herman_shifted", "params": {"lam": "3/2"}, "backend": backend}
        assert pr.family_from_json(obj).backend is want

    ROWS = {"breaks": [["0"], ["0"]], "values": [["1/2"], ["1/2"]]}

    @pytest.mark.parametrize("name, params, param", [
        ("herman_shifted", {"lam": True}, "lam"),
        ("herman", {"lam": 1.5, "beta": True}, "beta"),
        ("coelho", {"a": "1/3", "b": False}, "b"),
        ("custom", {"mu": [False, True], **ROWS}, "mu"),
        ("custom", {"mu": [0, 1], "breaks": [[0], [True]], "values": [[0.5], [0.5]]}, "breaks"),
        ("custom", {"mu": [0, 1], **ROWS, "increasing": "yes"}, "increasing"),
        ("custom", {"mu": [0, 1], **ROWS, "increasing": 1}, "increasing"),
        ("custom", {"mu": [0, 1], **ROWS, "increasing": None}, "increasing"),
    ])
    def test_booleans_only_where_a_flag_is_read(self, name, params, param):
        with pytest.raises(ValueError, match="^param '%s' must be a" % param):
            pr.family_from_json({"family": name, "params": params})

    def test_increasing_takes_a_json_boolean(self):
        for flag in (True, False):
            params = {"mu": [0, 1], **self.ROWS, "increasing": flag}
            assert pr.family_from_json({"family": "custom", "params": params}).increasing is flag

    def test_unknown_top_level_keys(self):
        with pytest.raises(ValueError):
            pr.family_from_json({"family": "coelho", "params": {"a": "1/7", "b": "3/7"},
                                 "extra": True})
