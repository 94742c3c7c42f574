"""The orbit kernel, and the power-lift orbits built on it."""
import logging
import math
import re
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import pwlrotor as pr
from pwlrotor import kernel
from pwlrotor.backend import LOCKSTEP_LANES
from pwlrotor.rotation import _orbit_power


def _pieces(f):
    return f.breaks, f.values, f.slopes


MAPS = [
    pr.herman_shifted(math.sqrt(2.0)).lift(0.013),
    pr.herman_shifted(math.sqrt(2.0)).lift(-0.2),
    pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(0.0),
    pr.refraction(2.0, 1.14).lift(0.0),
    pr.rigid(0.7309),
]

#: rho = 5/6, strongly attracting: F^256 builds in floats, F^512 does not.
LOCKED = pr.refraction(2.0, pr.gmm_critical_beta(2.0)).lift(-0.1)


def test_implementation_tag():
    assert pr.KERNEL_IMPLEMENTATION == "python"
    assert kernel.IMPLEMENTATION == "python"


def test_pure_kernel_matches_direct_iteration():
    f = MAPS[0]
    b, v, s = _pieces(f)
    x = 0.389
    wind = 0
    for _ in range(500):
        y = float(f(x))
        w = math.floor(y)
        x_new = y - w
        if x_new >= 1.0:
            x_new -= 1.0
            w += 1
        x, wind = x_new, wind + w
    kw, kx = kernel.iterate(b, v, s, 0.389, 500)
    assert (kw, kx) == (wind, x)


def test_winding_of_rigid_rotation():
    f = pr.rigid(0.25)
    b, v, s = _pieces(f)
    wind, x = kernel.iterate(b, v, s, 0.1, 8)
    assert wind == 2
    assert abs(x - 0.1) < 1e-15


@pytest.mark.parametrize("m, q", [(1, 1), (63, 1), (64, 2), (1000, 4), (4095, 8), (4096, 16),
                                  (10**4, 16), (10**5, 64), (10**7, 512)])
def test_orbit_power_grows_like_sqrt_m(m, q):
    f = MAPS[-1]
    P, Q = _orbit_power(f, m)
    assert Q == q and P == pr.power(f, q)


@pytest.mark.parametrize("idx", range(len(MAPS)))
@pytest.mark.parametrize("m", [1000, 10**5, 2**20 + 37])
@pytest.mark.parametrize("x0", [0.0, 0.1234567])
def test_power_lift_matches_direct_iteration(idx, m, x0):
    f = MAPS[idx]
    enc = pr.birkhoff_enclosure(f, m, x0)
    wind, x = kernel.iterate(*_pieces(f), x0, m)
    direct = (wind + (x - x0)) / m
    assert abs(enc.midpoint - direct) <= 1e-12
    assert enc.width == pytest.approx(2.0 / m, rel=1e-12)


def test_locked_map_falls_back_to_last_square(caplog):
    with pytest.raises(pr.errors.PrecisionLoss):
        pr.power(LOCKED, 512)
    with caplog.at_level(logging.DEBUG, logger="pwlrotor.rotation"):
        enc = pr.birkhoff_enclosure(LOCKED, 10**7)
    assert enc.lo <= 5 / 6 <= enc.hi
    assert "falling back to Q=256" in caplog.text
    assert "Q=256" in caplog.messages[-1]


# ------------------------------------------------------- lock-step lanes

#: F(0) = -1e-20: y - floor(y) rounds to 1.0, so every step renormalises.
RENORMALISES = pr.make_lift([0.0, 0.5], [-1e-20, 0.7])


@st.composite
def float_lanes(draw):
    """``(lift, x0)``: 1-8 marked points with generic float values, and a
    start that is a break or any point of [0, 1)."""
    n = draw(st.integers(1, 8))
    ks = draw(st.lists(st.integers(0, 9999), min_size=n, max_size=n, unique=True))
    breaks = sorted(k / 10000 for k in ks)
    rises = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(rises) * 1.0000001
    values = [draw(st.floats(-2.0, 2.0))]
    for r in rises[:-1]:
        values.append(values[-1] + r / total)
    f = pr.make_lift(breaks, values)
    x0 = draw(st.sampled_from(breaks) | st.floats(0.0, 1.0, exclude_max=True))
    return f, x0


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for (w1, x1), (w2, x2) in zip(got, want):
        assert type(w1) is int and type(x1) is float
        assert (w1, x1.hex()) == (w2, x2.hex())


@settings(max_examples=150, deadline=None)
@given(st.lists(float_lanes(), min_size=1, max_size=12),
       st.integers(0, 60) | st.sampled_from([200, 1000]))
def test_lanes_are_bit_identical_to_the_scalar_kernel(lanes, m):
    lanes = lanes + [(RENORMALISES, 0.0)]
    triples = [(f.breaks, f.values, f.slopes) for f, _ in lanes]
    x0s = [x0 for _, x0 in lanes]
    assert_bit_identical(kernel.iterate_lanes(triples, x0s, m),
                         [kernel.iterate(*t, x0, m) for t, x0 in zip(triples, x0s)])


def test_renormalising_lane_is_exercised():
    y = RENORMALISES(0.0)
    assert y < 0 and y - math.floor(y) == 1.0
    assert kernel.iterate_lanes([_pieces(RENORMALISES)], [0.0], 5) == [(0, 0.0)]


def test_signed_zero_keeps_the_scalar_sign():
    # F(-0.0) = -0.0: the scalar loop's x stays -0.0, numpy's floor alone
    # would turn it into 0.0.
    f = pr.make_lift([0.0, 0.5], [-0.0, 0.6])
    want = kernel.iterate(*_pieces(f), -0.0, 3)
    assert want[1].hex() == "-0x0.0p+0"
    assert_bit_identical(kernel.iterate_lanes([_pieces(f)], [-0.0], 3), [want])


def _count_lockstep_calls(monkeypatch):
    calls = []
    original = kernel.iterate_lanes

    def counting(lanes, x0s, m):
        calls.append((len(lanes), m))
        return original(lanes, x0s, m)

    monkeypatch.setattr(kernel, "iterate_lanes", counting)
    return calls


REFRACTION_GRID = [-0.15 + 0.18 * i / 63 for i in range(64)]


@pytest.mark.parametrize("m", [1000, 5000], ids=["F", "F^16"])
def test_float_batch_equals_lone_enclosures(m, monkeypatch):
    fam = pr.refraction(2.0, pr.gmm_critical_beta(2.0))
    lifts = [fam.lift(mu) for mu in REFRACTION_GRID]
    assert len(lifts) >= LOCKSTEP_LANES
    calls = _count_lockstep_calls(monkeypatch)
    batch = pr.birkhoff_enclosures(lifts, m, x0=0.25)
    assert calls and calls[0][0] >= LOCKSTEP_LANES
    del calls[:]
    assert batch == [pr.birkhoff_enclosure(f, m, x0=0.25) for f in lifts]
    assert not calls


def test_lanes_group_by_the_power_they_reached(monkeypatch):
    # With the piece cap at 40, refraction lifts stop at F^16 (34 marked
    # points) while rotations by j/8 reach F^64 (at most 8): two lock-step
    # groups, each running m//Q steps of F^Q and m%Q (0 and 32) of F.
    monkeypatch.setattr("pwlrotor.lift.PIECE_CAP", 40)
    fam = pr.refraction(2.0, 1.14)
    lifts = []
    for i in range(64):
        lifts += [fam.lift(-0.05 + 0.1 * i / 64), pr.rigid((i % 7 + 1) / 8)]
    calls = _count_lockstep_calls(monkeypatch)
    batch = pr.birkhoff_enclosures(lifts, 10**5)
    assert calls == [(64, 6250), (64, 0), (64, 1562), (64, 32)]
    assert batch == [pr.birkhoff_enclosure(f, 10**5) for f in lifts]


@pytest.mark.parametrize("lanes, lockstep", [(64, False), (100, True)])
def test_wide_powers_need_more_lanes(lanes, lockstep, monkeypatch, caplog):
    # At m = 10^5 every lift's F^64 has about 130 marked points: 64 such
    # lanes run one by one, 100 in lock-step.  The 32 closing steps of F
    # (four marked points) run in lock-step either way, and every lane
    # gets its lone orbit.
    fam = pr.refraction(2.0, pr.gmm_critical_beta(2.0))
    lifts = [fam.lift(-0.15 + 0.18 * i / (lanes - 1)) for i in range(lanes)]
    calls = _count_lockstep_calls(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="pwlrotor.rotation"):
        batch = pr.birkhoff_enclosures(lifts, 10**5)
    runs = re.findall(r"Q=64, (\d+) marked", caplog.text)
    assert len(runs) == lanes and min(int(n) for n in runs) > 64
    assert calls == [(lanes, 1562)] * lockstep + [(lanes, 32)]
    del calls[:]
    assert batch == [pr.birkhoff_enclosure(f, 10**5) for f in lifts]
    assert not calls


@pytest.mark.parametrize("m", [300, 5000])
def test_exact_batch_equals_lone_enclosures(m):
    fam = pr.herman_shifted(Fr(3, 2))
    lifts = [fam.lift(Fr(i, 50)) for i in range(-5, 5)]
    assert pr.birkhoff_enclosures(lifts, m) == [pr.birkhoff_enclosure(f, m) for f in lifts]


def test_empty_batch():
    assert pr.birkhoff_enclosures([], 100) == []
