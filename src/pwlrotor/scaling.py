"""Linear scaling of the rotation number at a conjugacy parameter.

At a parameter ``mu_c`` where the family is conjugate to the rigid
rotation by ``p/q``, the rotation number leaves ``p/q`` *linearly*:
``rho(mu_c + delta) = p/q + R1*delta + O(delta^2)``.  The coefficient has
a closed form.  The break orbits cut the circle into ``q*K`` laminar
segments on which ``F^q`` is affine with slope near 1; an orbit spends
``~ q*kappa_i/delta`` iterates crawling through segment ``i``, where
``kappa_i`` depends only on the segment length, the parameter-derivative
``A_i`` of ``F^q`` there, and the slope-derivative ``B_i``.  Summing the
passage times gives ``R1 = 1/(q * sum kappa_i)``, signed by the family
direction.

:func:`r1` assembles the whole report and cross-checks the closed form
against an independent finite-difference slope of the measured rotation
number; :func:`scaling_residual` reads that report to measure the quadratic
remainder and the inverse symmetry ``G_{-mu} = G_mu^{-1} + O(mu^2)``; and
:func:`pinch_boundaries` traces how a mode-locked wedge in a second
parameter collapses onto such a conjugacy point.

The landmarks are the break orbits of the :class:`conjugacy.Conjugate`
verdict at ``mu_c``, which already lie apart, and that verdict is certified
with the default search depth of :mod:`pwlrotor.conjugacy` unless ``r1`` is
given ``q_cap``.  The branch switch of the passage-time formula,
:data:`B_THRESHOLD`, is a module constant.
"""
from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import errors
from .backend import FLOAT, LOCK_TOL, Num, Record, to_json
from .conjugacy import Q_CAP, Conjugate, is_conjugate_to_rigid
from .families import FamilySpec, TwoParamFamilySpec, family_from_json
from .lift import PwlLift, cell_ends, drift, frac, invert, make_lift, orbit_points, piece, power
from .rotation import birkhoff_enclosure, mode_lock_interval

log = logging.getLogger(__name__)

#: Below this value of |B|*gap/A the linear passage-time formula is used;
#: the log formula loses all its digits to cancellation there.
B_THRESHOLD = 1e-8

#: Default iterate count for empirical rotation-number slopes.
M_FIT = 10**7

#: Defaults of ``scaling_residual``: the largest offset from mu_c, and the
#: number of offsets sampled (half on each side of mu_c).
WINDOW = 1e-2
SAMPLES = 16


def _float_spec(family: FamilySpec) -> FamilySpec:
    """A float-backend clone of ``family`` for long iteration runs."""
    return family_from_json(family.to_json(), backend=FLOAT)


def _partition_landmarks(f: PwlLift, part) -> list:
    """The break-orbit points of ``part``, or the orbit of 0 when ``K = 0``."""
    if part.K == 0:
        return sorted(orbit_points(f, f.backend.coerce(0), part.q))
    return part.landmarks()


def _slope_derivatives(f: PwlLift, db, dphi):
    """Per-piece ``d(slope)/dmu`` from the marked-point derivative tables.

    The derivative tables close up without the turn: ``b_0 + 1`` moves as
    ``b_0`` does."""
    return tuple(
        ((dv1 - dv0) - s * (db1 - db0)) / (b1 - b0)
        for b0, b1, s, db0, db1, dv0, dv1 in zip(
            f.breaks, cell_ends(f.breaks), f.slopes,
            db, (*db[1:], db[0]), dphi, (*dphi[1:], dphi[0]),
        )
    )


def _transversality(f: PwlLift, db, dphi, sigma: int) -> tuple:
    """Local transversality of a family at the lift ``f`` it takes at
    ``mu_c``, one value per marked point ``b_k``:

        d(value_k)/dmu - max(0, s_{k-1} * d(b_k)/dmu, s_k * d(b_k)/dmu),

    ``s_{k-1}`` and ``s_k`` the slopes on either side of ``b_k``, with the
    family's derivative tables ``db``, ``dphi`` at ``mu_c`` taken in the
    increasing orientation (times its direction sign ``sigma``).  That is
    the slower of the rates at which ``F`` rises at a fixed point just
    left and just right of ``b_k``, capped at ``d(value_k)/dmu``;
    all-positive values make the family transverse at ``mu_c``.
    Non-positive values are data, not errors: :func:`r1` reports the
    minimum."""
    zero = f.backend.coerce(0)
    vals = []
    for k in range(f.n):
        bd = sigma * db[k]
        vals.append(sigma * dphi[k] - max(zero, f.slopes[k - 1] * bd, f.slopes[k] * bd))
    return tuple(vals)


def _dF_dmu(f: PwlLift, ds, db, dphi, x, k):
    """Parameter-derivative of the lift at the circle point ``x``, which
    lies on piece ``k = piece(f.breaks, x)``."""
    delta = x - f.breaks[k]
    if delta < 0:
        delta = delta + 1
    return dphi[k] + ds[k] * delta - f.slopes[k] * db[k]


def _segment_data(f: PwlLift, db, dphi, sigma: int, landmarks, q: int) -> dict:
    """Midpoints and ``(A_i, B_i)`` of the segments between ``landmarks``.

    ``A_i`` is the parameter-derivative of ``F^q`` at the midpoint of
    segment ``i`` (chain rule over the composition, from the family's
    derivative tables ``db``, ``dphi`` at ``f``'s parameter); ``B_i`` is the
    parameter-derivative of the segment's ``F^q`` slope.  Both are corrected
    by the family direction ``sigma`` so that ``A_i > 0`` on every segment.
    """
    backend = f.backend
    ds = _slope_derivatives(f, db, dphi)
    two = backend.coerce(2)
    mids = [frac((lo + hi) / two) for lo, hi in zip(landmarks, cell_ends(landmarks))]

    A_list, B_list = [], []
    for y in mids:
        orbit = orbit_points(f, y, q)
        ks = [piece(f.breaks, x) for x in orbit]
        # suffix products of the traversed slopes
        W = [backend.coerce(1)] * q
        for j in range(q - 2, -1, -1):
            W[j] = W[j + 1] * f.slopes[ks[j + 1]]
        A = backend.coerce(0)
        B = backend.coerce(0)
        for j in range(q):
            A = A + _dF_dmu(f, ds, db, dphi, orbit[j], ks[j]) * W[j]
            B = B + ds[ks[j]] / f.slopes[ks[j]]
        A_list.append(sigma * A)
        B_list.append(sigma * B)
    return {"mids": mids, "A": A_list, "B": B_list}


def kappa(A, B, lo, hi) -> Num:
    """Passage-time coefficient of one laminar segment ``(lo, hi)``.

    ``kappa = gap/A`` when the slope perturbation ``B`` is negligible
    (``|B|*gap/A`` below :data:`B_THRESHOLD`), else ``log(1 + gap*B/A)/B``.
    The two branches agree to ~1e-8 relative at the threshold.
    """
    gap = hi - lo
    if gap <= 0:
        raise errors.SegmentCollision("segment (%s, %s) has no interior" % (lo, hi))
    if A <= 0:
        raise errors.LogDomain(
            "segment coefficient A = %s is not positive; the passage-time "
            "formula needs a transverse family" % (A,)
        )
    if abs(B) * gap / A < B_THRESHOLD:
        return gap / A
    arg = 1 + gap * B / A
    if arg <= 0:
        raise errors.LogDomain(
            "log argument 1 + gap*B/A = %s <= 0: F^q acquires a fixed point "
            "inside the segment" % (arg,)
        )
    return math.log(float(arg)) / float(B)


@dataclass(frozen=True)
class ScalingReport(Record):
    """Everything behind one R1 value, closed-form and empirical."""

    mu_c: Num
    p: int
    q: int
    K: int
    direction: int
    landmarks: tuple
    A: tuple
    B: tuple
    S_sample: tuple
    sample_mu: float
    kappas: tuple
    R1: Num
    R1_emp: float
    fit_window: float
    fit_residual: float
    transversality: Num


def r1(
    family: FamilySpec,
    mu_c,
    h_fit: Optional[float] = None,
    m_fit: int = M_FIT,
    q_cap: int = Q_CAP,
) -> ScalingReport:
    """Scaling report at a conjugacy parameter: closed-form R1 + cross-check.

    The closed form runs entirely through the family's derivative tables
    (exact when the backend is rational); the empirical slope refits the
    measured rotation number at ``mu_c +- {1,2,4}*h_fit`` with long
    Birkhoff sums on a float clone of the family, an independent path.
    """
    backend = family.backend
    mu_c = backend.coerce(mu_c)
    f_c = family.lift(mu_c)
    verdict = is_conjugate_to_rigid(f_c, q_cap=q_cap)
    if not isinstance(verdict, Conjugate):
        raise errors.NotConjugateError(
            "scaling needs a conjugacy parameter; got %s: %s"
            % (verdict.verdict, verdict.reason)
        )
    p, q = verdict.p, verdict.q
    part = verdict.partition
    landmarks = _partition_landmarks(f_c, part)
    db, dphi = family.derivatives(mu_c)
    sigma = family.direction_sign
    data = _segment_data(f_c, db, dphi, sigma, landmarks, q)

    kappas = [
        kappa(A, B, lo, hi)
        for A, B, lo, hi in zip(data["A"], data["B"], landmarks, cell_ends(landmarks))
    ]
    total = sum(kappas[1:], kappas[0])
    R1 = sigma / (q * total)

    mu_f = float(mu_c)
    h = h_fit if h_fit is not None else 1e-4 * (1.0 + abs(mu_f))

    # Transversality at mu_c (informational: a zero margin means some break
    # moves exactly with its image; the closed form may still be fine).
    transversality = min(_transversality(f_c, db, dphi, sigma))
    if transversality <= 0:
        log.warning(
            "transversality margin %s at mu_c = %s is not positive",
            transversality,
            mu_c,
        )

    fam_f = _float_spec(family)
    sample_mu = mu_f + sigma * h
    f_s = fam_f.lift(sample_mu)
    P_s = power(f_s, q)
    S_sample = tuple(P_s.slopes[piece(P_s.breaks, frac(float(y)))] for y in data["mids"])

    deltas = [s * k * h for k in (1, 2, 4) for s in (1, -1)]
    deltas.sort()
    rhos = []
    for d in deltas:
        enc = birkhoff_enclosure(fam_f.lift(mu_f + d), m_fit)
        rhos.append(float(enc.midpoint))
    slope, icept = statistics.linear_regression(deltas, rhos)
    fit_residual = float(
        max(abs(r - (slope * d + icept)) for d, r in zip(deltas, rhos))
    )

    return ScalingReport(
        mu_c=mu_c,
        p=p,
        q=q,
        K=part.K,
        direction=sigma,
        landmarks=tuple(landmarks),
        A=tuple(data["A"]),
        B=tuple(data["B"]),
        S_sample=S_sample,
        sample_mu=sample_mu,
        kappas=tuple(kappas),
        R1=R1,
        R1_emp=float(slope),
        fit_window=h,
        fit_residual=fit_residual,
        transversality=transversality,
    )


@dataclass(frozen=True)
class ResidualReport(Record):
    """Quadratic-remainder and inverse-symmetry estimates near ``mu_c``."""

    r2: float
    window: float
    n_samples: int
    symmetry_c: Optional[float]
    p: int
    q: int
    R1: float


def scaling_residual(
    family: FamilySpec,
    report: ScalingReport,
    window: float = WINDOW,
    samples: int = SAMPLES,
    m: int = M_FIT,
) -> ResidualReport:
    """Empirical ``R2``: max of ``|rho - p/q - R1*delta| / delta^2``.

    ``report`` is the :func:`r1` report of ``family``, whose ``mu_c``,
    ``R1``, ``p/q`` and landmarks this reads.

    The remainder divided by delta^2 is bounded but oscillates at every
    scale (it inherits the staircase's self-similar wobble), so a stable
    estimate has to sample many offsets per window.  Offsets are
    log-spaced over ``[delta_floor, w]`` with a *window-independent*
    floor, the smallest offset at which the ``O(1/m)`` rotation-number
    measurement error stays below ~8% of delta^2; nesting the sample
    ranges this way is what makes the estimate comparable across windows.

    Also estimates the constant in the inverse symmetry
    ``|G_{-mu} - G_mu^{-1}| <= C mu^2``, measured away from the
    landmarks: within ``O(mu)`` of a break-orbit point the two return
    maps traverse a shifted break through mismatched pieces and their
    difference is genuinely first order there, so the sup is taken
    outside those strips (radius proportional to ``mu``).  When the strips
    cover the whole circle at every probe, ``symmetry_c`` is None: nothing
    was measured.
    """
    R1f = float(report.R1)
    p, q = report.p, report.q
    rho0 = p / q
    fam_f = _float_spec(family)
    mu_f = float(report.mu_c)

    floor = math.sqrt(12.5 / m)
    if floor >= window / 2:
        log.warning(
            "window %g is close to the measurement floor %g; residual is noisy",
            window,
            floor,
        )
        floor = window / 2
    k = max(2, samples // 2)
    lo, step = math.log10(floor), (math.log10(window) - math.log10(floor)) / (k - 1)
    offsets = [floor] + [10.0 ** (i * step + lo) for i in range(1, k - 1)] + [window]
    worst = 0.0
    for off in offsets:
        for d in (off, -off):
            enc = birkhoff_enclosure(fam_f.lift(mu_f + d), m)
            resid = abs(float(enc.midpoint) - rho0 - R1f * d) / (d * d)
            if resid > worst:
                worst = resid

    sym = None
    f_c = fam_f.lift(mu_f)
    s_M = max(float(s) for s in f_c.slopes)
    strip_factor = 2.0 * (1.0 + s_M ** max(1, q - 1))
    centers = [float(x) for x in report.landmarks]
    for mu_t in (window / 4, window / 8):
        Gp = _normalized_power(fam_f, mu_f + mu_t, p, q)
        Gm = _normalized_power(fam_f, mu_f - mu_t, p, q)
        diff = _sup_outside_strips(Gm, invert(Gp), centers, strip_factor * mu_t)
        if diff is None:
            log.warning("symmetry check skipped at mu~=%s: strips cover the circle", mu_t)
            continue
        c = diff / (mu_t * mu_t)
        if sym is None or c > sym:
            sym = c

    return ResidualReport(
        r2=float(worst),
        window=window,
        n_samples=2 * k,
        symmetry_c=sym,
        p=p,
        q=q,
        R1=R1f,
    )


def _normalized_power(fam: FamilySpec, mu: float, p: int, q: int) -> PwlLift:
    """``G_mu = F_mu^q - p``, the near-identity return map."""
    P = power(fam.lift(mu), q)
    return make_lift(list(P.breaks), [v - p for v in P.values], P.backend)


def _sup_outside_strips(f: PwlLift, g: PwlLift, centers, radius: float):
    """Max of ``|f - g|`` over circle points at distance > radius from centers.

    Both arguments are PWL lifts, so on the allowed region the max sits at
    a break of either map or at a strip edge; those points are exactly the
    candidates evaluated.  Returns None when the strips cover everything.
    """
    pts = set(float(b) for b in f.breaks)
    pts.update(float(b) for b in g.breaks)
    for c in centers:
        pts.add((c + radius) % 1.0)
        pts.add((c - radius) % 1.0)
    best = None
    for x in pts:
        if any(abs(drift(x, c)) < radius for c in centers):
            continue
        d = abs(float(f(x)) - float(g(x)))
        if best is None or d > best:
            best = d
    return best


@dataclass(frozen=True)
class PinchRow:
    d: Num
    lo: Optional[Num]
    hi: Optional[Num]
    note: Optional[str] = None

    @property
    def width(self) -> Optional[Num]:
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def to_json(self) -> dict:
        return to_json({"d": self.d, "mu_lo": self.lo, "mu_hi": self.hi, "note": self.note})


@dataclass(frozen=True)
class PinchReport(Record):
    """Mode-locked boundary pairs along a pinch-transverse parameter."""

    p: int
    q: int
    rows: tuple
    bracket: tuple
    tol: Num
    width_at_zero: Optional[Num]
    fitted_slopes: dict
    reference_slopes: Optional[tuple]


def _origin_slope(pairs):
    """Least-squares slope through the origin for (d, boundary) data."""
    num = None
    den = None
    for d, y in pairs:
        term_n = d * y
        term_d = d * d
        num = term_n if num is None else num + term_n
        den = term_d if den is None else den + term_d
    if den is None or den == 0:
        return None
    return num / den


def pinch_boundaries(
    two_param: TwoParamFamilySpec,
    pq: Tuple[int, int],
    d_grid: Sequence,
    mu_bracket: Tuple,
    tol=None,
) -> PinchReport:
    """Trace the ``p/q`` locked interval across a grid of ``d`` values.

    Each ``d`` is independent: the slice family is handed to
    :func:`rotation.mode_lock_interval` over ``mu_bracket``; a bracket
    failure is recorded on that row and the sweep continues.  Boundary
    slopes in ``d`` are fitted per sign of ``d`` (the wedge is generally
    not symmetric) through the origin, for comparison against the
    family's first-order reference slopes.  ``d_grid``, ``mu_bracket``
    (its ends in order) and ``tol`` (default :data:`backend.LOCK_TOL`) are
    taken, and reported, in the family's backend.
    """
    p, q = pq
    coerce = two_param.backend.coerce
    tol = coerce(Fraction(LOCK_TOL if tol is None else tol))
    d_grid = [coerce(d) for d in d_grid]
    mu_bracket = tuple(sorted(map(coerce, mu_bracket)))
    rows = []
    for d in d_grid:
        fam_d = two_param.at(d)
        try:
            mli = mode_lock_interval(fam_d, p, q, mu_bracket, tol=tol)
            rows.append(PinchRow(d=d, lo=mli.lo, hi=mli.hi))
        except errors.NotBracketed as exc:
            log.warning("d = %s: %s", d, exc)
            rows.append(PinchRow(d=d, lo=None, hi=None, note=str(exc)))

    width_at_zero = None
    for row in rows:
        if row.d == 0 and row.width is not None:
            width_at_zero = row.width

    fitted = {}
    for side, keep in (("pos", lambda d: d > 0), ("neg", lambda d: d < 0)):
        ok = [r for r in rows if keep(r.d) and r.lo is not None]
        if ok:
            fitted[side] = (
                _origin_slope([(r.d, r.lo) for r in ok]),
                _origin_slope([(r.d, r.hi) for r in ok]),
            )
        else:
            fitted[side] = None

    return PinchReport(
        p=p,
        q=q,
        rows=tuple(rows),
        bracket=mu_bracket,
        tol=tol,
        width_at_zero=width_at_zero,
        fitted_slopes=fitted,
        reference_slopes=two_param.reference_slopes,
    )
