"""Checks of the program's answers against the oracles and method properties.

Every check raises :class:`CheckFailed` with a one-line reason on a wrong
answer and returns ``None`` otherwise.  The checks take plain data (numbers,
rows, marked points), so the tests can feed them deliberately wrong answers.
"""
from __future__ import annotations

from fractions import Fraction

from . import oracles


class CheckFailed(AssertionError):
    """A program answer contradicts an oracle or a property of the method."""


def _require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# ------------------------------------------------------------- staircase

def parse_csv_rows(text):
    """``(x, lo, hi)`` float rows of a ``sweep`` or ``pinch`` CSV; None for a blank."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        cells = line.split(",")
        rows.append(tuple(None if c == "" else float(c) for c in cells))
    return rows


def check_sweep(rows, m, increasing, mu_c, rho_c, points):
    """Enclosures of width 2/m, ``lo`` monotone in mu, and rho(mu_c) inside."""
    _require(len(rows) == points, "sweep has %d rows, expected %d" % (len(rows), points))
    _require(all(r[1] is not None for r in rows), "sweep has a failed (blank) row")
    width = 2.0 / m
    for mu, lo, hi in rows:
        _require(abs((hi - lo) - width) <= 1e-9 * width,
                 "enclosure at mu=%r has width %r, not 2/m" % (mu, hi - lo))
    sign = 1 if increasing else -1
    for (mu0, lo0, _), (mu1, lo1, _) in zip(rows, rows[1:]):
        _require(sign * (lo1 - lo0) >= 0,
                 "lo not monotone between mu=%r and mu=%r" % (mu0, mu1))
    at_c = [r for r in rows if abs(r[0] - mu_c) <= 1e-12]
    _require(len(at_c) == 1, "the grid has no single point at mu_c")
    _require(at_c[0][1] <= rho_c <= at_c[0][2],
             "rho(mu_c) = %s outside [%r, %r]" % (rho_c, at_c[0][1], at_c[0][2]))


def check_coelho_enclosure(a, b, lo, hi, m):
    """Coelho's closed form lies in the width-2/m Birkhoff enclosure."""
    rho = oracles.coelho_rho(a, b)
    _require(abs((hi - lo) - 2.0 / m) <= 1e-9 * (2.0 / m), "enclosure width is not 2/m")
    _require(lo <= rho <= hi,
             "closed form %r outside [%r, %r] for coelho(%r, %r)" % (rho, lo, hi, a, b))


# --------------------------------------------------------------- scaling

def check_scaling_runs(runs, kind, lam=None):
    """R1 and R2 of the ``scaling`` jobs of one family at several windows.

    ``runs`` holds one dict per window with keys ``R1``, ``R1_emp``,
    ``h_fit``, ``m_fit``, ``r2`` and ``window``.  ``kind`` selects the R1
    reference: ``"herman"`` (closed form at ``lam``, 1e-12 relative) or
    ``"refraction"`` (within 0.02 of -0.312).
    """
    for run in runs:
        R1 = run["R1"]
        if kind == "herman":
            ref = oracles.herman_r1(lam)
            _require(abs(R1 - ref) <= 1e-12 * abs(ref),
                     "R1 = %r differs from Herman's %r" % (R1, ref))
        else:
            _require(abs(R1 + 0.312) <= 0.02, "refraction R1 = %r not within 0.02 of -0.312" % R1)
        bound = oracles.r1_fit_bound(run["h_fit"], run["m_fit"], run["r2"])
        _require(abs(R1 - run["R1_emp"]) <= bound,
                 "|R1 - R1_emp| = %.3g exceeds the fit bound %.3g"
                 % (abs(R1 - run["R1_emp"]), bound))
        _require(run["window"] / 2 > oracles.residual_floor(run["m_fit"]),
                 "window %r is not above the residual floor" % run["window"])
    r2s = [run["r2"] for run in runs]
    _require(len(r2s) >= 2 and min(r2s) > 0, "need two positive R2 values, got %r" % r2s)
    _require(max(r2s) / min(r2s) < 2, "R2 ratio across windows %.3f >= 2" % (max(r2s) / min(r2s)))


def check_rigid_r1(R1, R1_emp, h, m):
    """The rigid family has R1 = 1 exactly and a fit within its bound."""
    _require(isinstance(R1, (int, Fraction)) and R1 == 1, "rigid R1 = %r, not exactly 1" % (R1,))
    bound = oracles.r1_fit_bound(h, m, 0.0)
    _require(abs(1 - R1_emp) <= bound, "rigid |1 - R1_emp| = %.3g > %.3g" % (abs(1 - R1_emp), bound))


def check_tight_lock(lo, hi, mu_c, tol):
    """At the conjugacy point the lock is narrower than 1e-8 and holds mu_c.

    Each edge is bisected to within ``tol``, so "holds" means up to ``tol``.
    """
    _require(hi - lo < 1e-8, "lock width %.3g is not below 1e-8" % (hi - lo))
    _require(lo - tol <= mu_c <= hi + tol, "lock [%r, %r] misses mu_c = %r" % (lo, hi, mu_c))


def check_wide_lock(lo, hi):
    _require(hi - lo > 1e-3, "lock width %.3g is not above 1e-3" % (hi - lo))


def check_rho_offset(rotation, birkhoff, p, q, side):
    """rho off a conjugacy point: the two answers agree and sit on ``side``.

    ``rotation`` and ``birkhoff`` are ``(lo, hi)`` pairs; ``side`` is +1 when
    rho must exceed p/q (the family moves up across mu_c) and -1 otherwise.
    """
    r_lo, r_hi = rotation
    b_lo, b_hi = birkhoff
    _require(max(r_lo, b_lo) <= min(r_hi, b_hi),
             "rotation [%r, %r] and Birkhoff [%r, %r] are disjoint" % (r_lo, r_hi, b_lo, b_hi))
    c = p / q
    mid = (b_lo + b_hi) / 2
    if side > 0:
        _require(r_lo >= c and mid > c, "rho should exceed %d/%d" % (p, q))
    else:
        _require(r_hi <= c and mid < c, "rho should be below %d/%d" % (p, q))


# --------------------------------------------------------------- certify

def check_conjugate(f, p, q, verdict, h_breaks, h_values, orbits, defect, samples):
    """A certified conjugacy of ``f = h^-1 o R_{p/q} o h``.

    ``f`` is the oracle lift of the generated map.  ``verdict`` is the
    ``(name, p, q)`` the program returned, ``h_breaks``/``h_values`` its
    conjugacy, ``orbits`` its break classes (indices into ``f``), and
    ``defect`` its invariance defect.
    """
    _require(verdict == ("Conjugate", p, q), "verdict %r, expected Conjugate(%d, %d)" % (verdict, p, q))
    h = oracles.Lift(h_breaks, h_values)
    shift = Fraction(p, q)
    for x in samples:
        d = h(f(x)) - h(x) - shift
        _require(d.denominator == 1, "h(F(x)) - h(x) - p/q = %s is not an integer at %s" % (d, x))
    for cls in orbits:
        prod = Fraction(1)
        for i in cls:
            prod *= f.jump(i)
        _require(prod == 1, "jump product of orbit class %r is %s" % (tuple(cls), prod))
    _require(defect == 0, "invariance defect %s is not exactly 0" % (defect,))


def check_coelho_exact(f, a, b, kind, p, q, witness, lo, hi):
    """An exact witness is periodic; otherwise the closed form is enclosed."""
    rho = oracles.coelho_rho(a, b)
    if kind == "exact":
        _require(f.iterate(witness, q) == witness + p,
                 "witness %s does not satisfy F^%d(x) = x + %d" % (witness, q, p))
        _require(abs(rho - p / q) <= 1e-9, "closed form %r is not %d/%d" % (rho, p, q))
        return
    _require(float(lo) - 1e-12 <= rho <= float(hi) + 1e-12,
             "closed form %r outside the Farey enclosure [%s, %s]" % (rho, lo, hi))


def check_pinch(rows, tol):
    """Offset-family lock edges within 3 d^2 of {min(0, d/2), max(0, d/2)}."""
    for d, lo, hi in rows:
        _require(lo is not None and hi is not None, "pinch row d=%r has no interval" % d)
        slack = 3 * d * d + tol
        _require(abs(lo - min(0.0, d / 2)) <= slack and abs(hi - max(0.0, d / 2)) <= slack,
                 "pinch edges [%r, %r] at d=%r are off the wedge" % (lo, hi, d))
