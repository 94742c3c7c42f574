"""The orbit kernel: iterate a lift given by its marked points.

The loop runs on whatever scalars it is given: floats for float lifts,
``Fraction`` values (exactly) for exact ones.  Long orbits reach it only
through the explicit lift of ``F^Q`` (see
:func:`pwlrotor.rotation.birkhoff_enclosure`), so each step here stands
for up to ``Q`` steps of ``F`` and plain Python is fast enough.
"""
from __future__ import annotations

from bisect import bisect_right
from math import floor

IMPLEMENTATION = "python"


def iterate(breaks, values, slopes, x0, m):
    """Apply the circle map ``m`` times starting from ``x0`` in [0, 1).

    The lift is given by its marked points in [0, 1), as floats or as
    Fractions; ``x0`` has the same kind.  Returns the pair
    ``(winding, x)``: the accumulated integer part of the displacement and
    the final fractional position.  Tracking the winding separately keeps
    full double resolution on the orbit position no matter how large the
    total displacement grows.
    """
    b = list(breaks)
    ph = list(values)
    s = list(slopes)
    n = len(b)
    b0 = b[0]
    bw = b[n - 1] - 1
    pw = ph[n - 1] - 1
    sw = s[n - 1]
    x = x0
    wind = 0
    for _ in range(m):
        if x < b0:
            y = pw + sw * (x - bw)
        else:
            k = bisect_right(b, x) - 1
            y = ph[k] + s[k] * (x - b[k])
        fy = floor(y)
        x = y - fy
        if x >= 1.0:
            # y can round to an integer from below; renormalise.
            x -= 1.0
            fy += 1
        wind += fy
    return wind, x
