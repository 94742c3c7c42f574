"""The orbit kernel, and the power-lift orbits built on it."""
import logging
import math

import pytest

import pwlrotor as pr
from pwlrotor import kernel
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


@pytest.mark.parametrize("m, q", [(1, 1), (1000, 1), (4095, 1), (4096, 16), (10**4, 16),
                                  (10**5, 64), (10**7, 512)])
def test_orbit_power_grows_like_sqrt_m(m, q):
    assert _orbit_power(m) == q


@pytest.mark.parametrize("idx", range(len(MAPS)))
@pytest.mark.parametrize("m", [10**5, 2**20 + 37])
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
    assert enc.contains(5 / 6)
    assert "falling back to Q=256" in caplog.text
    assert "Q=256" in caplog.messages[-1]
