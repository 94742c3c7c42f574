"""Tests of the benchmark itself.

Each workload runs at its smallest size and must pass every check.  Each
kind of check is then fed a wrong answer and must fail, which shows the
checks are not vacuous.  The traced run must see the same counts on every
round and leave the program unpatched afterwards.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""
import math
from fractions import Fraction

import pytest

import pwlrotor as pr
import pwlrotor.cli  # noqa: F401

from perfbench import checks, oracles, tracing, workloads


def run_jobs(jobs):
    for job in jobs:
        job.check(job.run())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_at_smallest_size(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.generate(3, small=True)
    assert inputs == wl.generate(3, small=True)  # the seed fixes the inputs
    run_jobs(wl.build(pr, inputs, tmp_path))


def test_traced_counts_repeat_and_tracing_is_removed(tmp_path):
    originals = (pr.lift.compose, pr.rotation.compose, pr.families.FamilySpec.lift,
                 pr.kernel.iterate, pr.cli.main)
    jobs = workloads.certify_build(pr, workloads.certify_generate(4, small=True), tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            run_jobs(jobs)
        finally:
            restore()
        m = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in m.items() if k.endswith(".calls")})
        assert m["kernel.iterate.calls"] == 0  # certify never runs the orbit kernel
        assert m["lift.compose.calls"] > 0 and m["rotation.exact_rotation.depth"] > 0
    assert counts[0] == counts[1]
    assert originals == (pr.lift.compose, pr.rotation.compose, pr.families.FamilySpec.lift,
                         pr.kernel.iterate, pr.cli.main)


def test_tracing_reaches_names_bound_by_import():
    """``power`` calls ``compose`` through ``lift``'s globals; both are seen."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        pr.power(pr.herman_shifted(1.5).lift(0.01), 4)
    finally:
        restore()
    assert tracer.stats["lift.power"].calls == 1
    assert tracer.stats["lift.power"].direct["lift.compose"] == 2
    assert tracer.stats["families.lift"].calls == 1


# ------------------------------------------------------------ oracles

def test_generated_map_is_conjugate_to_the_rotation():
    import random

    rng = random.Random(5)
    h = oracles.random_homeomorphism(rng, 3, 97)
    f = oracles.Lift(*oracles.conjugate_to_rotation(h, 3, 8))
    for k in range(20):
        x = Fraction(k, 20)
        assert f.iterate(x, 8) == x + 3
        assert h(f(x)) - h(x) == Fraction(3, 8)


def test_closed_forms():
    assert oracles.coelho_rho(Fraction(1, 3), Fraction(1, 3)) == pytest.approx(0.5)
    assert oracles.herman_r1(1.0) == 1.0
    assert oracles.stern_brocot_depth(0.5, 64) == 1
    assert oracles.stern_brocot_depth((math.sqrt(5) - 1) / 2, 64) == 8  # 1/2 ... 34/55


# -------------------------------------------------- checks catch errors

def _sweep_rows(m=1000, n=11):
    rows = []
    for i in range(n):
        mu = (i - 5) * 0.01
        mid = 0.5 + mu
        rows.append((mu, mid - 1.0 / m, mid + 1.0 / m))
    return rows


def test_sweep_check():
    rows = _sweep_rows()
    checks.check_sweep(rows, 1000, True, 0.0, Fraction(1, 2), 11)
    bad = list(rows)
    bad[3], bad[4] = (rows[3][0],) + rows[4][1:], (rows[4][0],) + rows[3][1:]
    with pytest.raises(checks.CheckFailed, match="monotone"):
        checks.check_sweep(bad, 1000, True, 0.0, Fraction(1, 2), 11)
    with pytest.raises(checks.CheckFailed, match="monotone"):
        checks.check_sweep(rows, 1000, False, 0.0, Fraction(1, 2), 11)
    with pytest.raises(checks.CheckFailed, match="width"):
        checks.check_sweep(rows, 999, True, 0.0, Fraction(1, 2), 11)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_sweep(rows, 1000, True, 0.0, Fraction(4, 5), 11)
    with pytest.raises(checks.CheckFailed, match="blank"):
        checks.check_sweep(rows[:-1] + [(0.05, None, None)], 1000, True, 0.0, 0.5, 11)


def test_coelho_enclosure_check():
    a, b, m = 0.3, 0.6, 1000
    rho = oracles.coelho_rho(a, b)
    checks.check_coelho_enclosure(a, b, rho - 0.5 / m, rho + 1.5 / m, m)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_coelho_enclosure(a, b, rho + 0.5 / m, rho + 2.5 / m, m)


def _scaling_runs(R1, R1_emp, r2s=(0.3, 0.25), windows=(0.08, 0.04)):
    return [{"R1": R1, "R1_emp": R1_emp, "h_fit": 1e-3, "m_fit": 200_000, "r2": r2, "window": w}
            for r2, w in zip(r2s, windows)]


def test_scaling_checks():
    lam = math.sqrt(2.0)
    ref = oracles.herman_r1(lam)
    checks.check_scaling_runs(_scaling_runs(ref, ref + 1e-4), "herman", lam=lam)
    checks.check_scaling_runs(_scaling_runs(-0.3065, -0.3066), "refraction")
    with pytest.raises(checks.CheckFailed, match="Herman"):
        checks.check_scaling_runs(_scaling_runs(ref * (1 + 1e-9), ref), "herman", lam=lam)
    with pytest.raises(checks.CheckFailed, match="-0.312"):
        checks.check_scaling_runs(_scaling_runs(-0.34, -0.34), "refraction")
    with pytest.raises(checks.CheckFailed, match="fit bound"):
        checks.check_scaling_runs(_scaling_runs(ref, ref + 0.01), "herman", lam=lam)
    with pytest.raises(checks.CheckFailed, match="ratio"):
        checks.check_scaling_runs(_scaling_runs(ref, ref, r2s=(0.6, 0.25)), "herman", lam=lam)
    with pytest.raises(checks.CheckFailed, match="floor"):
        checks.check_scaling_runs(_scaling_runs(ref, ref, windows=(0.08, 0.01)), "herman",
                                  lam=lam)


def test_rigid_and_lock_checks():
    checks.check_rigid_r1(Fraction(1), 1.0 + 1e-6, 1e-3, 200_000)
    with pytest.raises(checks.CheckFailed, match="exactly 1"):
        checks.check_rigid_r1(Fraction(999, 1000), 1.0, 1e-3, 200_000)
    with pytest.raises(checks.CheckFailed, match="exactly 1"):
        checks.check_rigid_r1(1.0, 1.0, 1e-3, 200_000)
    checks.check_tight_lock(-2e-11, 3e-11, 0.0, 1e-10)
    with pytest.raises(checks.CheckFailed, match="width"):
        checks.check_tight_lock(-1e-7, 1e-7, 0.0, 1e-10)
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check_tight_lock(1e-9, 2e-9, 0.0, 1e-10)
    checks.check_wide_lock(-0.11, -0.10)
    with pytest.raises(checks.CheckFailed, match="width"):
        checks.check_wide_lock(-0.11, -0.1095)


def test_rho_offset_check():
    checks.check_rho_offset((0.50, 0.51), (0.505, 0.5051), 1, 2, 1)
    with pytest.raises(checks.CheckFailed, match="disjoint"):
        checks.check_rho_offset((0.50, 0.501), (0.505, 0.5051), 1, 2, 1)
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_rho_offset((0.50, 0.51), (0.505, 0.5051), 1, 2, -1)


def _conjugate_case():
    import random

    rng = random.Random(7)
    h = oracles.random_homeomorphism(rng, 3, 97)
    breaks, values = oracles.conjugate_to_rotation(h, 3, 8)
    f = pr.make_lift(breaks, values)
    v = pr.is_conjugate_to_rigid(f)
    H = pr.build_conjugacy(f, partition=v.partition)
    defect = pr.verify_invariance(f, pr.invariant_density(f, q=v.q))
    samples = [Fraction(k, 16) + Fraction(1, 101) for k in range(16)]
    return oracles.Lift(breaks, values), ("Conjugate", v.p, v.q), H, v.partition.orbits, \
        defect, samples


def test_conjugate_check():
    f, verdict, H, orbits, defect, samples = _conjugate_case()
    checks.check_conjugate(f, 3, 8, verdict, H.breaks, H.values, orbits, defect, samples)
    with pytest.raises(checks.CheckFailed, match="verdict"):
        checks.check_conjugate(f, 3, 8, ("Conjugate", 4, 8), H.breaks, H.values, orbits,
                               defect, samples)
    shifted = list(H.values)
    shifted[1] += Fraction(1, 997)
    with pytest.raises(checks.CheckFailed, match="not an integer"):
        checks.check_conjugate(f, 3, 8, verdict, H.breaks, shifted, orbits, defect, samples)
    with pytest.raises(checks.CheckFailed, match="jump product"):
        checks.check_conjugate(f, 3, 8, verdict, H.breaks, H.values, [orbits[0][:1]],
                               defect, samples)
    with pytest.raises(checks.CheckFailed, match="invariance"):
        checks.check_conjugate(f, 3, 8, verdict, H.breaks, H.values, orbits,
                               Fraction(1, 10**6), samples)


def test_coelho_exact_check():
    a, b = Fraction(1, 3), Fraction(1, 3)
    f = oracles.Lift([Fraction(0), b], [a, Fraction(1)])
    r = pr.exact_rotation(pr.coelho(a, b).lift(0))
    checks.check_coelho_exact(f, a, b, r.kind, r.p, r.q, r.witness, r.lo, r.hi)
    with pytest.raises(checks.CheckFailed, match="witness"):
        checks.check_coelho_exact(f, a, b, "exact", r.p + 1, r.q, r.witness, r.lo, r.hi)
    a, b = Fraction(2, 13), Fraction(5, 13)
    checks.check_coelho_exact(f, a, b, "enclosure", None, None, None,
                              Fraction(21, 58), Fraction(4, 11))
    with pytest.raises(checks.CheckFailed, match="Farey"):
        checks.check_coelho_exact(f, a, b, "enclosure", None, None, None,
                                  Fraction(4, 11), Fraction(3, 8))


def test_pinch_check():
    d = 0.01
    checks.check_pinch([(d, 0.0, d / 2 + d * d), (-d, -d / 2, 0.0), (0.0, 0.0, 0.0)], 1e-10)
    with pytest.raises(checks.CheckFailed, match="wedge"):
        checks.check_pinch([(d, 0.0, d / 2 + 4 * d * d)], 1e-10)
    with pytest.raises(checks.CheckFailed, match="no interval"):
        checks.check_pinch([(d, None, None)], 1e-10)
