"""Backend behavior: coercion, tolerance policy, JSON encoding."""
import dataclasses
import inspect
import json
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pwlrotor as pr
from pwlrotor import FLOAT, RATIONAL, backend_from_tag, errors, infer_backend
from pwlrotor import kernel
from pwlrotor.backend import LOCKSTEP_LANES, FloatBackend, Record, to_json

#: Settings that are module or class constants, not parameters, anywhere.
FIXED = {"cap", "eps_x", "eps_s", "decision_band", "b_threshold", "trials", "seed", "tolerances"}

#: Parameters that some public functions keep and these ones do not take.
FIXED_IN = {
    "break_orbit_partition": {"q_cap", "q_hint"},
    "build_conjugacy": {"q_cap"},
    "invariant_density": {"q_cap"},
    "verify_invariance": {"q"},
    "custom_family": {"interpolation"},
    "scaling_residual": {"mu_c"},  # read from the r1 report
}

#: Parameters that a job key, an internal caller or the benchmark sets.
KEPT = {
    "exact_rotation": {"q_max"},
    "is_conjugate_to_rigid": {"q_cap"},
    "r1": {"h_fit", "m_fit", "q_cap"},
    "scaling_residual": {"window", "samples", "m", "report"},
    "mode_lock_interval": {"family", "tol"},
    "pinch_boundaries": {"tol"},
    "birkhoff_enclosure": {"x0"},
    "birkhoff_enclosures": {"x0"},
    "invariant_density": {"q", "partition"},
    "build_conjugacy": {"partition"},
}


def parameters(fn) -> set:
    return set(inspect.signature(fn).parameters)


class TestRationalBackend:
    def test_coerce_int_fraction_string(self):
        assert RATIONAL.coerce(3) == Fr(3)
        assert RATIONAL.coerce(Fr(2, 7)) == Fr(2, 7)
        assert RATIONAL.coerce("2/7") == Fr(2, 7)

    def test_refuses_floats(self):
        with pytest.raises(errors.BackendMismatch):
            RATIONAL.coerce(0.5)

    def test_refuses_other_types(self):
        with pytest.raises(TypeError):
            RATIONAL.coerce(object())

    def test_equality_is_exact(self):
        assert RATIONAL.eq_point(Fr(1, 3), Fr(1, 3))
        assert not RATIONAL.eq_point(Fr(1, 3), Fr(1, 3) + Fr(1, 10**30))
        assert not RATIONAL.eq_slope(Fr(2), Fr(2) + Fr(1, 10**30))

    def test_sign_is_exact(self):
        assert RATIONAL.sign(Fr(1, 10**20)) == 1
        assert RATIONAL.sign(Fr(-1, 10**20)) == -1
        assert RATIONAL.sign(Fr(0)) == 0

    def test_json_round_trip(self):
        assert to_json(Fr(-5, 3)) == "-5/3"
        assert RATIONAL.coerce(to_json(Fr(-5, 3))) == Fr(-5, 3)
        assert RATIONAL.coerce(4) == Fr(4)

    def test_json_refuses_float_payload(self):
        with pytest.raises(errors.BackendMismatch):
            RATIONAL.coerce(json.loads("0.25"))

    def test_describes_itself(self):
        assert RATIONAL.describe() == {"backend": "rational"}

    def test_never_runs_lock_step(self, monkeypatch):
        f = pr.make_lift([Fr(0), Fr(1, 2)], [Fr(1, 3), Fr(2, 3)])
        lanes = [(f.breaks, f.values, f.slopes)] * LOCKSTEP_LANES
        want = kernel.iterate(f.breaks, f.values, f.slopes, Fr(1, 5), 7)
        monkeypatch.setattr(kernel, "iterate_lanes", None)
        assert RATIONAL.orbits(lanes, [Fr(1, 5)] * LOCKSTEP_LANES, 7) == [want] * LOCKSTEP_LANES


def simplest_by_search(lo, hi):
    """The rational of least denominator in ``[lo, hi]``, denominator by denominator."""
    q = 1
    while -(-lo.numerator * q // lo.denominator) * hi.denominator > hi.numerator * q:
        q += 1
    return Fr(-(-lo.numerator * q // lo.denominator), q)


class TestSnap:
    @settings(max_examples=200, deadline=None)
    @given(x=st.fractions(min_value=-3, max_value=3, max_denominator=500),
           width=st.integers(1, 5000).map(lambda k: Fr(1, k)))
    def test_rational_snap_is_the_simplest_rational_nearby(self, x, width):
        assert RATIONAL.snap(x, width) == simplest_by_search(x - width, x + width)

    def test_a_small_denominator_survives_snapping(self):
        # two rationals of denominator below 1/tol lie more than tol**2 apart
        assert RATIONAL.snap(Fr(-6, 35) + Fr(1, 10**25), Fr(1, 10**20)) == Fr(-6, 35)

    def test_floats_are_not_snapped(self):
        assert FLOAT.snap(0.1, 1e-20) == 0.1


class TestFloatBackend:
    def test_coerce_accepts_everything_numeric(self):
        assert FLOAT.coerce(3) == 3.0
        assert FLOAT.coerce(0.5) == 0.5
        assert FLOAT.coerce(Fr(1, 4)) == 0.25
        assert FLOAT.coerce("1/4") == 0.25

    def test_point_equality_band(self):
        assert FLOAT.eq_point(0.3, 0.3 + 1e-13)
        assert not FLOAT.eq_point(0.3, 0.3 + 1e-11)

    def test_slope_equality_band(self):
        assert FLOAT.eq_slope(2.0, 2.0 + 1e-11)
        assert not FLOAT.eq_slope(2.0, 2.0 + 1e-9)

    def test_sign_declines_inside_decision_band(self):
        assert FLOAT.sign(1e-9) == 1
        assert FLOAT.sign(-1e-9) == -1
        assert FLOAT.sign(1e-11) is None
        assert FLOAT.sign(-1e-11) is None

    def test_sign_with_explicit_band(self):
        assert FLOAT.sign(1e-11, band=1e-12) == 1
        assert FLOAT.sign(1e-9, band=1e-8) is None

    def test_json_round_trip(self):
        assert to_json(0.25) == 0.25
        assert FLOAT.coerce(to_json(0.25)) == 0.25

    def test_describes_itself(self):
        # the header of every float sweep and pinch CSV
        assert FLOAT.describe() == {"backend": "float", "eps_x": "1e-12", "eps_s": "1e-10",
                                    "decision_band": "1e-10"}

    @pytest.mark.parametrize("q, lanes_needed", [(1, 49), (64, 98), (128, None)],
                             ids=["4 points", "F^64", "F^128"])
    def test_lock_step_when_cheaper(self, q, lanes_needed, monkeypatch):
        # The lanes needed grow with the marked points per lane; an F^128
        # (258 points) never runs in lock-step.
        f = pr.power(pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(-0.1), q)
        calls = []
        original = kernel.iterate_lanes

        def counting(lanes, x0s, m):
            calls.append(len(lanes))
            return original(lanes, x0s, m)

        monkeypatch.setattr(kernel, "iterate_lanes", counting)
        want = kernel.iterate(f.breaks, f.values, f.slopes, 0.25, 5)
        for n in (lanes_needed - 1, lanes_needed) if lanes_needed else (401,):
            lanes = [(f.breaks, f.values, f.slopes)] * n
            assert FLOAT.orbits(lanes, [0.25] * n, 5) == [want] * n
        assert calls == ([lanes_needed] if lanes_needed else [])


class TestNumpyIntegers:
    """numpy integers are ``numbers.Integral`` but not ``int``: both
    backends read them, as Python ints."""

    @pytest.mark.parametrize("np_int", [np.int64, np.int32], ids=["int64", "int32"])
    def test_exact_family_and_lift(self, np_int):
        fam = pr.herman(np_int(2))
        assert fam.backend is RATIONAL
        assert fam.lift(np_int(0)) == pr.herman(2).lift(0)
        f = pr.make_lift([np_int(0)], [np_int(1)])
        assert f == pr.make_lift([0], [1])
        assert all(type(v.numerator) is int and type(v.denominator) is int
                   for v in f.breaks + f.values + f.slopes)

    @pytest.mark.parametrize("np_int", [np.int64, np.int32], ids=["int64", "int32"])
    def test_float_family_and_lift(self, np_int):
        fam = pr.herman(np_int(2), backend=FLOAT)
        assert fam.lift(0.25) == pr.herman(2.0).lift(0.25)
        f = pr.make_lift([np_int(0)], [np_int(1)], FLOAT)
        assert f == pr.make_lift([0.0], [1.0])
        assert all(type(v) is float for v in f.breaks + f.values + f.slopes)

    def test_exact_coerce_does_not_wrap(self):
        big = RATIONAL.coerce(np.int64(2**62))
        assert type(big.numerator) is int
        assert big * 4 == 2**64


class TestSelection:
    def test_backend_from_tag(self):
        assert backend_from_tag("rational") is RATIONAL
        assert backend_from_tag("float") is FLOAT

    def test_tolerances_are_class_constants(self):
        assert dataclasses.fields(FloatBackend) == ()
        assert (FLOAT.eps_x, FLOAT.eps_s, FLOAT.decision_band) == (1e-12, 1e-10, 1e-10)
        with pytest.raises(TypeError):
            backend_from_tag("float", eps_x=1e-9)

    def test_fixed_settings_are_no_parameters(self):
        for name in pr.__all__:
            obj = getattr(pr, name)
            if callable(obj):
                taken = parameters(obj) & (FIXED | FIXED_IN.get(name, set()))
                assert not taken, "%s still takes %s" % (name, sorted(taken))
        for name, kept in KEPT.items():
            assert kept <= parameters(getattr(pr, name)), name
        assert "band" in parameters(FLOAT.sign)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            backend_from_tag("decimal")

    def test_infer_backend(self):
        assert infer_backend([1, Fr(1, 2), "3/4"]) is RATIONAL
        assert infer_backend([1, 0.5]) is FLOAT
        assert infer_backend([]) is RATIONAL

    def test_numpy_floats_are_float_data(self):
        assert infer_backend([np.int64(1), np.float32(0.5)]) is FLOAT
        f = pr.make_lift([np.float32(0)], [np.float32(0.5)])
        assert f.backend is FLOAT and f == pr.make_lift([0.0], [0.5])
        fam = pr.herman(np.float32(1.5))
        assert fam.backend is FLOAT and fam.lift(0.25) == pr.herman(1.5).lift(0.25)

    def test_float_backend_refuses_non_numbers(self):
        for x in (None, [0.5], 1j):
            with pytest.raises(TypeError, match="cannot coerce"):
                FLOAT.coerce(x)


class TestScalarJson:
    """``to_json``, the one encoder every result type uses, independent of
    any backend."""

    def test_none_stays_none(self):
        assert to_json(None) is None

    def test_fraction_becomes_p_over_q(self):
        assert to_json(Fr(-5, 3)) == "-5/3"
        assert to_json(Fr(4)) == "4"

    def test_int_stays_int(self):
        for x in (3, np.int64(3)):
            out = to_json(x)
            assert out == 3 and type(out) is int
        assert to_json(True) is True

    def test_nested_record(self):
        @dataclasses.dataclass(frozen=True)
        class Pair(Record):
            name: str
            ends: tuple
            inner: object = None
            hidden: int = dataclasses.field(default=0, metadata={"json": False})

        inner = Pair("inner", (Fr(1, 2), 0.25), hidden=1)
        rec = Pair("outer", [Fr(-1, 3), np.float64(2.0)], {"in": inner, "tag": FLOAT})
        assert rec.to_json() == to_json(rec) == {
            "name": "outer",
            "ends": ["-1/3", 2.0],
            "inner": {"in": {"name": "inner", "ends": ["1/2", 0.25], "inner": None},
                      "tag": "float"},
        }

    def test_numpy_float_becomes_plain_float(self):
        out = to_json(np.float64(0.25))
        assert out == 0.25 and type(out) is float

    def test_fraction_too_long_to_print_is_an_overflow(self):
        with pytest.raises(errors.Overflow, match="14950-bit denominator"):
            to_json(Fr(1, 3**9432))
