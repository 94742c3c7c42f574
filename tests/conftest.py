"""Shared fixtures: the handful of maps the suite keeps coming back to."""
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import strategies as st

import pwlrotor as pr

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def herman_sqrt2():
    """Two-slope family at lam = sqrt(2); mu = 0 is its rho = 1/2 closure."""
    return pr.herman_shifted(SQRT2)


@pytest.fixture(scope="session")
def herman_32():
    """Rational twin (lam = 3/2) for exact-backend assertions."""
    return pr.herman_shifted(Fr(3, 2))


@pytest.fixture(scope="session")
def refr_critical():
    """Refraction family at alpha = 2, beta at the period-5 closure."""
    return pr.refraction(2.0, pr.gmm_critical_beta(2.0))


@pytest.fixture(scope="session")
def coelho_q2():
    """Tuned coelho map with f^2 = Id exactly (rho = 1/2)."""
    return pr.coelho(Fr(1, 3), Fr(1, 3)).lift(0)


@pytest.fixture(scope="session")
def coelho_q3():
    """Tuned coelho map with f^3 = Id exactly (rho = 1/3)."""
    return pr.coelho(Fr(1, 7), Fr(3, 7)).lift(0)


def float_copy(f):
    """Float-backend copy of the marked points of ``f``, e.g. to compare a
    float computation against its exact oracle."""
    return pr.make_lift(f.breaks, f.values, pr.FLOAT)


def rational_grid(n, denom=9973):
    """n distinct rationals in [0, 1) with a fixed prime denominator."""
    step = max(1, denom // n)
    return [Fr((i * step) % denom, denom) for i in range(n)]


@st.composite
def rational_lifts(draw, max_pieces=5):
    """A random exact lift: distinct breaks, positive slopes, degree one.

    Slopes come from positive weights normalised so the total rise over
    one period is exactly 1; the cyclic closure is then automatic.
    """
    n = draw(st.integers(1, max_pieces))
    denom = draw(st.integers(7, 60))
    ks = draw(st.lists(st.integers(0, denom - 1), min_size=n, max_size=n, unique=True))
    breaks = sorted(Fr(k, denom) for k in ks)
    weights = [draw(st.integers(1, 9)) for _ in range(n)]
    gaps = [
        (breaks[k + 1] if k + 1 < n else breaks[0] + 1) - breaks[k] for k in range(n)
    ]
    total = sum(w * g for w, g in zip(weights, gaps))
    slopes = [Fr(w) / total for w in weights]
    phi0 = Fr(draw(st.integers(-2, 2))) + Fr(draw(st.integers(0, 9)), 10)
    values = [phi0]
    for k in range(n - 1):
        values.append(values[-1] + slopes[k] * gaps[k])
    return pr.make_lift(breaks, values)


@st.composite
def conjugate_maps(draw, q_max=6):
    """``(f, p, q)`` with ``f = h^{-1} o R_{p/q} o h`` and ``p/q`` in lowest terms."""
    q = draw(st.integers(2, q_max))
    rho = Fr(draw(st.integers(1, q - 1)), q)
    h = draw(rational_lifts())
    f = pr.compose(pr.invert(h), pr.compose(pr.rigid(rho), h))
    return f, rho.numerator, rho.denominator
