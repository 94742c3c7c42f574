"""Reference computations written apart from ``pwlrotor``.

Nothing here imports the package under test.  The workload checks compare
the program's answers against these, or against a property the method
must have; none of them compares against a stored copy of an earlier run.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction


class Lift:
    """Degree-one PWL lift given by its marked points.

    ``breaks`` are increasing points of [0, 1) and ``values`` are the lift's
    values there; the data close cyclically with ``F(b + 1) = F(b) + 1``.
    With ``Fraction`` data every evaluation is exact.
    """

    def __init__(self, breaks, values):
        self.breaks = list(breaks)
        self.values = list(values)
        n = len(self.breaks)
        ends_b = self.breaks[1:] + [self.breaks[0] + 1]
        ends_v = self.values[1:] + [self.values[0] + 1]
        self.slopes = [
            (ends_v[k] - self.values[k]) / (ends_b[k] - self.breaks[k]) for k in range(n)
        ]
        if any(s <= 0 for s in self.slopes):
            raise ValueError("marked points do not describe an increasing lift")

    def __call__(self, x):
        w = math.floor(x)
        r = x - w
        k = bisect_right(self.breaks, r) - 1
        if k < 0:  # left of the first break: the last piece, one period down
            return self.values[-1] - 1 + self.slopes[-1] * (r - self.breaks[-1] + 1) + w
        return self.values[k] + self.slopes[k] * (r - self.breaks[k]) + w

    def inverse(self, y):
        w = math.floor(y - self.values[0])
        r = y - w  # in [values[0], values[0] + 1)
        k = bisect_right(self.values, r) - 1
        return self.breaks[k] + (r - self.values[k]) / self.slopes[k] + w

    def jump(self, i):
        """Right slope over left slope at marked point ``i``."""
        return self.slopes[i] / self.slopes[i - 1]

    def iterate(self, x, k):
        for _ in range(k):
            x = self(x)
        return x


def _frac(x):
    return x - math.floor(x)


def random_homeomorphism(rng, pieces, denom):
    """A random rational PWL lift with ``pieces`` genuine breaks.

    Breaks and value increments are multiples of ``1/denom``; resampled
    until adjacent slopes all differ, so every marked point is a break.
    """
    while True:
        breaks = [Fraction(k, denom) for k in sorted(rng.sample(range(denom), pieces))]
        cuts = sorted(rng.sample(range(1, denom), pieces - 1))
        v0 = Fraction(rng.randrange(denom), denom)
        values = [v0] + [v0 + Fraction(c, denom) for c in cuts]
        h = Lift(breaks, values)
        if all(h.slopes[k] != h.slopes[k - 1] for k in range(pieces)):
            return h


def conjugate_to_rotation(h, p, q):
    """Marked points of ``f = h^-1 o R_{p/q} o h``, which has rho = p/q.

    ``f`` can only break where ``h`` does or where ``R_{p/q} o h`` lands on
    a break of ``h^-1``, i.e. at the breaks of ``h`` and at the points
    ``h^-1(h(b) - p/q)``.  Returns ``(breaks, values)``.
    """
    shift = Fraction(p, q)
    marked = set(h.breaks)
    marked.update(_frac(h.inverse(h(b) - shift)) for b in h.breaks)
    breaks = sorted(marked)
    return breaks, [h.inverse(h(x) + shift) for x in breaks]


def coelho_rho(a, b):
    """Coelho's closed form for the lift through (0, a) and (b, 1).

    With slopes ``alpha = (1-a)/b`` and ``beta = a/(1-b)``,
    ``rho = log(alpha) / (log(alpha) - log(beta))``.
    """
    la = math.log((1 - float(a)) / float(b))
    lb = math.log(float(a) / (1 - float(b)))
    return la / (la - lb)


def herman_r1(lam):
    """Herman's scaling coefficient at the rho = 1/2 closure: (1+lam)^2/(4 lam)."""
    return (1 + lam) ** 2 / (4 * lam)


def r1_fit_bound(h, m, r2):
    """Bound on |R1_fit - R1| for the six-point fit at offsets +-h, +-2h, +-4h.

    Each measured rho is an enclosure midpoint, within 1/m of the truth.
    The least-squares slope through symmetric offsets d_i is
    sum(d_i y_i) / sum(d_i^2), with sum(d_i^2) = 42 h^2 and
    sum(|d_i|) = 14 h, so the measurement error moves it by at most
    14h / (42 h^2 m) = 1/(3 h m).  A remainder |r(d)| <= r2 d^2 moves it by
    at most r2 sum(|d_i|^3) / (42 h^2) = (73/21) r2 h.
    """
    return 1.0 / (3.0 * h * m) + 73.0 / 21.0 * r2 * h


def residual_floor(m):
    """Smallest offset the residual method trusts at orbit length m."""
    return math.sqrt(12.5 / m)


def stern_brocot_depth(x, q_max):
    """Mediants with denominator <= q_max that a search for ``x`` tests.

    Starts from ``[floor(x), floor(x) + 1]`` and stops at the first mediant
    beyond ``q_max`` or on hitting ``x`` exactly.
    """
    pl, ql = math.floor(x), 1
    pr, qr = pl + 1, 1
    depth = 0
    while ql + qr <= q_max:
        p, q = pl + pr, ql + qr
        depth += 1
        if p / q == x:
            break
        if p / q < x:
            pl, ql = p, q
        else:
            pr, qr = p, q
    return depth
