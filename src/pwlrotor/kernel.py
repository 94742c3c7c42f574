"""The orbit kernel: iterate a lift given by its marked points.

:func:`iterate` runs one orbit on whatever scalars it is given: floats
for float lifts, ``Fraction`` values (exactly) for exact ones.
:func:`iterate_lanes` runs many float orbits in lock-step, one set of
numpy array operations per step for every lane, and gives each lane the
same bits as :func:`iterate`.  The backend picks between them (see
:meth:`pwlrotor.backend.FloatBackend.orbits`).  Long orbits reach either
only through the explicit lift of ``F^Q`` (see
:func:`pwlrotor.rotation.birkhoff_enclosures`), so each step here stands
for up to ``Q`` steps of ``F``.
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


def iterate_lanes(lanes, x0s, m):
    """:func:`iterate` for many float lifts at once, bit for bit.

    ``lanes`` holds one ``(breaks, values, slopes)`` triple per orbit (the
    piece counts may differ) and ``x0s`` one start in [0, 1) per lane.
    Returns one ``(winding, x)`` pair per lane, as :func:`iterate` would.

    Row ``j`` of the ``(n + 1, lanes)`` tables holds marked point ``j - 1``
    of every lane; row 0 is the wrap piece (``b[-1] - 1``, ``v[-1] - 1``,
    ``s[-1]``) and breaks past a lane's last are ``+inf``.  The piece under
    ``x`` is then the number of a lane's breaks ``<= x``, and each step does
    the scalar loop's float operations in its order.  The winding is summed
    in doubles, exact below 2^53.
    """
    if m == 0:
        return [(0, x) for x in x0s]
    # Imported here: only lock-step sweeps load numpy.
    import numpy as np

    lanes_n = len(lanes)
    rows = 1 + max(len(b) for b, _, _ in lanes)
    b_tab = np.full((rows, lanes_n), np.inf)
    v_tab = np.zeros((rows, lanes_n))
    s_tab = np.zeros((rows, lanes_n))
    for i, (b, v, s) in enumerate(lanes):
        n = len(b)
        b_tab[0, i], v_tab[0, i], s_tab[0, i] = b[-1] - 1, v[-1] - 1, s[-1]
        b_tab[1:n + 1, i], v_tab[1:n + 1, i], s_tab[1:n + 1, i] = b, v, s
    cuts = b_tab[1:]
    lane = np.arange(lanes_n)
    b_flat, v_flat, s_flat = b_tab.ravel(), v_tab.ravel(), s_tab.ravel()
    x = np.array(x0s, dtype=float)
    wind = np.zeros(lanes_n)
    for _ in range(m):
        k = (cuts <= x).sum(0)
        k *= lanes_n
        k += lane
        y = v_flat.take(k) + s_flat.take(k) * (x - b_flat.take(k))
        fy = np.floor(y)
        fy += 0.0  # floor(-0.0) is int 0 in Python: x = -0.0 - 0.0 keeps its sign
        x = y - fy
        if x.max() >= 1.0:
            # y can round to an integer from below; renormalise.
            up = x >= 1.0
            x[up] -= 1.0
            fy[up] += 1.0
        wind += fy
    return [(int(w), xi) for w, xi in zip(wind.tolist(), x.tolist())]
