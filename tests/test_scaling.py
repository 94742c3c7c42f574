"""Passage-time coefficients, R1, residual diagnostics, pinch measurement."""
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

import pwlrotor as pr
from pwlrotor import errors, scaling

SQRT2 = math.sqrt(2.0)


def rigid_offset_family():
    """x + 1/2 + mu as a tabulated family: the exactly-solvable baseline."""
    return pr.custom_family([Fr(-1), Fr(1)], [[Fr(0)], [Fr(0)]], [[Fr(-1, 2)], [Fr(3, 2)]])


def record_float_lifts(monkeypatch) -> list:
    """The mus at which scaling's float clone of a family is lifted from now on."""
    mus = []
    real = scaling._float_spec

    class Recording:
        def __init__(self, fam):
            self.fam = fam

        def lift(self, mu):
            mus.append(mu)
            return self.fam.lift(mu)

    monkeypatch.setattr(scaling, "_float_spec", lambda fam: Recording(real(fam)))
    return mus


class TestKappa:
    def test_linear_branch_closed_form(self):
        # B = 0: kappa is just gap/A
        assert pr.kappa(Fr(2), Fr(0), Fr(0), Fr(1, 2)) == Fr(1, 4)

    def test_log_branch_closed_form(self):
        # A = B = 1 over a unit gap: kappa = ln 2
        assert abs(pr.kappa(1.0, 1.0, 0.0, 1.0) - math.log(2.0)) < 1e-15

    def test_branches_agree_at_the_threshold(self):
        # |B|*gap/A at 1e-8 must agree with the B = 0 formula to 1e-7 relative
        a, lo, hi = 2.0, 0.0, 0.5
        b = 1e-8 * a / (hi - lo)
        linear = pr.kappa(a, 0.0, lo, hi)
        for sign in (+1, -1):
            close = pr.kappa(a, sign * 1.001 * b, lo, hi)
            assert abs(close - linear) / linear < 1e-7

    def test_non_positive_A_rejected(self):
        with pytest.raises(errors.LogDomain):
            pr.kappa(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(errors.LogDomain):
            pr.kappa(-2.0, 0.0, 0.0, 1.0)

    def test_empty_segment_is_a_collision(self):
        with pytest.raises(errors.SegmentCollision, match="no interior"):
            pr.kappa(Fr(1), Fr(0), Fr(1, 2), Fr(1, 2))

    def test_log_argument_must_stay_positive(self):
        # 1 + gap*B/A = -2 here
        with pytest.raises(errors.LogDomain):
            pr.kappa(1.0, -3.0, 0.0, 1.0)


class TestLandmarks:
    def test_break_orbit_landmarks(self, herman_sqrt2):
        marks = pr.r1(herman_sqrt2, 0.0, m_fit=10**4).landmarks
        assert len(marks) == 2
        assert marks[0] == 0.0
        assert abs(marks[1] - 1 / (1 + SQRT2)) < 1e-12

    def test_rigid_map_falls_back_to_the_orbit_of_zero(self):
        marks = pr.r1(rigid_offset_family(), Fr(0), m_fit=10**4).landmarks
        assert marks == (Fr(0), Fr(1, 2))

    def test_nearby_breaks_stay_near_the_landmarks(self, herman_sqrt2):
        # genuine breaks of F_mu^q sit within gamma*|mu| of the landmarks
        marks = pr.r1(herman_sqrt2, 0.0, m_fit=10**4).landmarks

        def worst(mu):
            P = pr.canonicalize(pr.power(herman_sqrt2.lift(mu), 2))
            out = 0.0
            for b in (P.breaks[k] for k in P.genuine_break_indices()):
                d = min(min(abs(b - l), 1 - abs(b - l)) for l in marks)
                out = max(out, d)
            return out

        gamma = worst(1e-3) / 1e-3
        assert gamma < 50
        for mu in (5e-4, 2.5e-4, -1e-3):
            assert worst(mu) <= 1.5 * gamma * abs(mu) + 1e-12


class TestLaminarCoefficients:
    def test_herman_closed_form(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**4)
        (a1, a2), (b1, b2) = rep.A, rep.B
        assert abs(a1 - (1 + 1 / SQRT2)) < 1e-12
        assert abs(a2 - (1 + SQRT2)) < 1e-12
        assert b1 == b2 == 0.0  # slopes of this family do not move with mu

    def test_rigid_family_coefficients(self):
        rep = pr.r1(rigid_offset_family(), Fr(0), m_fit=10**4)
        assert rep.A == (Fr(2), Fr(2))
        assert rep.B == (Fr(0), Fr(0))

    def test_refraction_coefficients_are_direction_corrected(self, refr_critical):
        rep = pr.r1(refr_critical, 0.0, m_fit=10**4)
        assert len(rep.A) == len(rep.B) == 5
        assert all(a > 0 for a in rep.A)  # sigma-corrected, despite sigma = -1
        assert all(abs(b) < 1e-12 for b in rep.B)


class TestR1:
    def test_rigid_family_is_exactly_one(self):
        rep = pr.r1(rigid_offset_family(), Fr(0), m_fit=10**5)
        assert rep.R1 == 1
        assert isinstance(rep.R1, Fr)
        assert sum(rep.kappas) == Fr(1, 2)
        assert (rep.p, rep.q, rep.K) == (1, 2, 0)

    def test_herman_closed_form(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**5)
        assert abs(rep.R1 - (1 + SQRT2) ** 2 / (4 * SQRT2)) < 1e-14
        assert rep.direction == 1
        expected_kappa = SQRT2 / (1 + SQRT2) ** 2
        assert all(abs(k - expected_kappa) < 1e-12 for k in rep.kappas)

    def test_refraction_value_and_sign(self, refr_critical):
        rep = pr.r1(refr_critical, 0.0, m_fit=10**5)
        assert abs(rep.R1 - (-0.3065247584)) < 1e-6
        assert rep.direction == -1
        assert sum(rep.kappas) > 0  # kappas stay positive; the sign lives in R1

    def test_empirical_fit_tracks_the_closed_form(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**6)
        assert abs(rep.R1 - rep.R1_emp) < 1e-2  # coarse m; the tight check is end-to-end

    def test_requires_a_conjugacy_point(self, herman_sqrt2):
        with pytest.raises(errors.NotConjugateError):
            pr.r1(herman_sqrt2, 0.05, m_fit=10**4)

    def test_certifies_rho_once(self, herman_sqrt2, monkeypatch):
        calls = []
        real = pr.conjugacy._pair_search  # the search behind every verdict

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pr.conjugacy, "_pair_search", counting)
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**4)
        assert len(calls) == 1
        assert len(rep.landmarks) == 2

    def test_transversality_is_read_at_mu_c(self):
        # x + 1/2 + mu tabulated only down to mu = -1/20000: transversality
        # at mu_c = 0 reads the family's derivatives at mu_c, never the
        # table 1e-4 away, which lies outside it.
        fam = pr.custom_family([Fr(-1, 20000), Fr(1)], [[Fr(0)], [Fr(0)]],
                               [[Fr(1, 2) - Fr(1, 20000)], [Fr(3, 2)]])
        rep = pr.r1(fam, Fr(0), h_fit=1e-5, m_fit=10**3)
        assert rep.R1 == 1
        assert rep.transversality == 1

    def test_float_tabulation_matches_closed_form(self):
        # herman_shifted(sqrt 2) tabulated at mu = -0.1 and 0.1: the segment
        # slopes are the family's own derivatives, so R1 is Herman's closed form
        fam = pr.herman_shifted(SQRT2)
        (b_lo, v_lo), (b_hi, v_hi) = fam.table(-0.1), fam.table(0.1)
        tab = pr.custom_family([-0.1, 0.1], [b_lo, b_hi], [v_lo, v_hi])
        rep = pr.r1(tab, 0.0, m_fit=10**4)
        assert abs(rep.R1 / ((1 + SQRT2) ** 2 / (4 * SQRT2)) - 1) < 1e-13
        assert max(abs(b) for b in rep.B) < 1e-14

    def test_translated_family_keeps_the_closed_form(self, herman_32):
        # G = F(x + 1/10) - 1/10 for F in exact herman_shifted(3/2): breaks at
        # 3/10 and 9/10, so an orbit point below 3/10 lies on the wrap piece
        fam = pr.custom_family(
            [Fr(-1, 10), Fr(1, 10)], [[Fr(3, 10), Fr(9, 10)]] * 2,
            [[Fr(4, 5), Fr(6, 5)], [Fr(1), Fr(7, 5)]],
        )
        rep = pr.r1(fam, Fr(0), m_fit=10**3)
        assert rep.landmarks == (Fr(3, 10), Fr(9, 10))
        assert rep.R1 == pr.r1(herman_32, Fr(0), m_fit=10**3).R1 == Fr(25, 24)

    def test_exact_shift_family_is_transverse_with_margin_one(self, herman_32):
        # every value moves at rate 1 and no break moves
        margin = pr.r1(herman_32, Fr(0), m_fit=10**4).transversality
        assert margin == 1 and isinstance(margin, Fr)

    def test_refraction_transversality_is_zero(self, refr_critical):
        # F(b2) = 1 and F(b4) = 3/2 do not move with mu, and b2 moves against
        # the increasing orientation: those two values are exactly zero
        assert pr.r1(refr_critical, 0.0, m_fit=10**4).transversality == 0

    def test_report_fields_and_json(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**5)
        assert rep.transversality == 1.0
        assert len(rep.S_sample) == len(rep.landmarks) == 2
        j = rep.to_json()
        assert j["p"] == 1 and j["q"] == 2 and j["direction"] == 1
        assert len(j["kappas"]) == 2


class TestScalingResidual:
    def test_needs_the_r1_report(self, herman_sqrt2):
        with pytest.raises(TypeError, match="report"):
            pr.scaling_residual(herman_sqrt2, window=1e-2, samples=4, m=10**3)

    def test_report_shape(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**5)
        res = pr.scaling_residual(herman_sqrt2, rep, window=1e-2, samples=8, m=10**5)
        assert res.window == 1e-2
        assert res.n_samples >= 8
        assert 0 < res.r2 < 10
        assert (res.p, res.q) == (1, 2)

    def test_symmetry_constant_herman_is_tiny(self, herman_sqrt2):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**5)
        res = pr.scaling_residual(herman_sqrt2, rep, window=1e-2, samples=6, m=10**5)
        # off the break strips this family's return maps match to machine noise
        assert res.symmetry_c < 1e-6

    def test_symmetry_constant_refraction_frozen(self, refr_critical):
        rep = pr.r1(refr_critical, 0.0, m_fit=10**5)
        res = pr.scaling_residual(refr_critical, rep, window=1e-2, samples=6, m=10**5)
        assert abs(res.symmetry_c - 7.2587) < 0.5

    def test_symmetry_constant_none_when_every_probe_is_skipped(self, refr_critical):
        # at window 0.08 the landmark strips cover the circle at both probes
        rep = pr.r1(refr_critical, 0.0, m_fit=10**5)
        res = pr.scaling_residual(refr_critical, rep, window=0.08, samples=4, m=10**5)
        assert res.symmetry_c is None
        assert res.to_json()["symmetry_c"] is None
        assert res.r2 > 0

    def test_symmetry_constant_stable_under_halving(self, refr_critical):
        rep = pr.r1(refr_critical, 0.0, m_fit=10**5)
        cs = [
            pr.scaling_residual(refr_critical, rep, window=w, samples=6, m=10**5).symmetry_c
            for w in (1e-2, 5e-3)
        ]
        assert max(cs) / min(cs) < 1.5


class TestNumpyFreeArithmetic:
    """The fit and the offsets are plain float arithmetic; numpy is only
    the oracle here."""

    @pytest.mark.parametrize("m_fit", [10**5, 10**7])
    @pytest.mark.parametrize("name", ["herman_sqrt2", "refr_critical"])
    def test_r1_fit_matches_polyfit(self, request, monkeypatch, name, m_fit):
        family = request.getfixturevalue(name)
        rhos = []
        real = scaling.birkhoff_enclosure

        def recording(f, m):
            enc = real(f, m)
            rhos.append(float(enc.midpoint))
            return enc

        monkeypatch.setattr(scaling, "birkhoff_enclosure", recording)
        rep = pr.r1(family, 0.0, m_fit=m_fit)
        h = rep.fit_window
        deltas = sorted(s * k * h for k in (1, 2, 4) for s in (1, -1))
        assert len(rhos) == len(deltas) == 6
        slope, icept = np.polyfit(deltas, rhos, 1)
        assert rep.R1_emp == pytest.approx(slope, rel=1e-12, abs=0)
        resid = max(abs(r - (slope * d + icept)) for d, r in zip(deltas, rhos))
        assert abs(rep.fit_residual - resid) <= 1e-15  # a few ulps of rho

    @pytest.mark.parametrize("m, window, samples", [
        (10**7, 1e-2, 40), (10**7, 5e-3, 40), (10**7, 2.5e-3, 40), (10**7, 1e-2, 16),
        (10**7, 0.08, 8), (10**7, 0.04, 8), (10**5, 0.08, 6), (10**5, 1e-2, 8),
    ])
    def test_residual_offsets_match_geomspace(self, herman_sqrt2, monkeypatch, m, window, samples):
        rep = pr.r1(herman_sqrt2, 0.0, m_fit=10**4)
        mus = record_float_lifts(monkeypatch)
        pr.scaling_residual(herman_sqrt2, rep, window=window, samples=samples, m=m)
        k = max(2, samples // 2)
        offsets = mus[0:2 * k:2]  # mu_c = 0: the residual lifts at +off, then -off
        assert mus[1:2 * k:2] == [-off for off in offsets]
        floor = min(math.sqrt(12.5 / m), window / 2)
        want = [float(x) for x in np.geomspace(floor, window, k)]
        assert offsets[0] == want[0] == floor and offsets[-1] == want[-1] == window
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(offsets, want)), (offsets, want)

    def test_residual_lifts_around_the_reports_mu_c(self, monkeypatch):
        # x + 1/4 + mu is the rigid rotation by 1/2 at mu_c = 1/4
        fam = pr.custom_family([Fr(-1), Fr(1)], [[Fr(0)], [Fr(0)]], [[Fr(-3, 4)], [Fr(5, 4)]])
        rep = pr.r1(fam, Fr(1, 4), m_fit=10**4)
        assert (rep.mu_c, rep.p, rep.q, rep.R1) == (Fr(1, 4), 1, 2, 1)
        mus = record_float_lifts(monkeypatch)
        window, samples, m = 0.08, 6, 10**5
        pr.scaling_residual(fam, rep, window=window, samples=samples, m=m)
        k = samples // 2
        want = np.geomspace(math.sqrt(12.5 / m), window, k)
        assert len(mus) == 2 * k + 5
        assert all(abs(mu - 0.25 - off) <= 1e-15 for mu, off in zip(mus[0:2 * k:2], want))
        assert all(abs(mu - 0.25 + off) <= 1e-15 for mu, off in zip(mus[1:2 * k:2], want))
        # then the symmetry probes: F at mu_c, and mu_c +- window/4, +- window/8
        assert mus[2 * k:] == [0.25, 0.25 + window / 4, 0.25 - window / 4,
                               0.25 + window / 8, 0.25 - window / 8]


class TestPinchBoundaries:
    def test_wedge_edges_and_fitted_slopes(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        ds = [Fr(-1, 50), Fr(-1, 100), Fr(0), Fr(1, 100), Fr(1, 50)]
        rep = pr.pinch_boundaries(plane, (1, 2), ds, (Fr(-1, 10), Fr(1, 10)))
        assert rep.width_at_zero is not None and rep.width_at_zero <= 1e-8
        for row in rep.rows:
            lo_ref = min(0, Fr(1, 2) * row.d)
            hi_ref = max(0, Fr(1, 2) * row.d)
            assert abs(row.lo - lo_ref) <= 3 * row.d**2 + 1e-9
            assert abs(row.hi - hi_ref) <= 3 * row.d**2 + 1e-9
        # for d > 0 the edges are exactly 0 and d/2, and secant probes land on them
        assert rep.fitted_slopes["pos"] == (0, Fr(1, 2))
        assert rep.reference_slopes == (0.0, 0.5)

    def test_reversed_mu_bracket_names_the_same_interval(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        ds = [Fr(-1, 50), Fr(0), Fr(1, 50)]
        forward = pr.pinch_boundaries(plane, (1, 2), ds, (Fr(-1, 10), Fr(1, 10)))
        assert pr.pinch_boundaries(plane, (1, 2), ds, (Fr(1, 10), Fr(-1, 10))) == forward
        assert [(r.lo, r.hi) for r in forward.rows][1:] == [(0, 0), (0, Fr(1, 100))]

    def test_unbracketed_rows_are_recorded_not_fatal(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        rep = pr.pinch_boundaries(
            plane, (1, 2), [Fr(1, 100), Fr(1, 5)], (Fr(-1, 20), Fr(1, 20))
        )
        good = [r for r in rep.rows if r.lo is not None]
        bad = [r for r in rep.rows if r.lo is None]
        assert len(good) == 1 and len(bad) == 1
        assert bad[0].d == Fr(1, 5) and bad[0].note

    def test_exact_tol_when_no_row_is_bracketed(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        rep = pr.pinch_boundaries(plane, (1, 3), [Fr(0)], (Fr(-1, 100), Fr(1, 100)))
        assert rep.rows[0].lo is None and rep.rows[0].note
        assert rep.tol == Fr(1, 10**10)
        assert rep.to_json()["tol"] == "1/10000000000"

    def test_underflowing_fit_is_none(self):
        # d*d is 0.0 for d = 1e-200: no slope through the origin, and no error
        plane = pr.herman_offset_family(SQRT2)
        rep = pr.pinch_boundaries(plane, (1, 2), [1e-200], (-0.1, 0.1))
        assert rep.rows[0].lo is not None
        assert rep.fitted_slopes == {"pos": (None, None), "neg": None}
        assert rep.to_json()["fitted_slopes"] == {"pos": [None, None], "neg": None}

    def test_report_serialisation(self):
        plane = pr.herman_offset_family(Fr(1, 2))
        rep = pr.pinch_boundaries(plane, (1, 2), [Fr(0), Fr(1, 100)], (Fr(-1, 20), Fr(1, 20)))
        j = rep.to_json()
        assert j["p"] == 1 and j["q"] == 2 and len(j["rows"]) == 2
