"""One- and two-parameter families of PWL circle lifts.

A :class:`FamilySpec` wraps a parametrised marked-point table
``mu -> (breaks, values)`` together with its closed-form mu-derivatives,
a monotonicity direction flag, and a domain guard.

Four built-ins are shift families: no break moves with ``mu`` and every
value moves at rate 1, so one builder gives them their constant
derivative table ``((0, ...), (1, ...))``:

``herman(lam, beta)``
    Slope ``lam`` on ``[0, c]`` and ``lam**-beta`` on ``[c, 1]``, shifted
    by ``mu``.  The break ``c`` solves the continuity condition
    ``lam*c = 1 + lam**-beta * (c - 1)``, which for ``beta = 1`` gives
    ``c = 1/(1 + lam)``.

``herman_offset(lam, d)``
    The ``beta = 1`` family re-centred on the rho = 1/2 closure, with the
    break moved to ``c = 1/(1+lam) + d`` while the second branch is
    re-solved exactly for continuity.  The ``d``-indexed collection
    :func:`herman_offset_family` is the standard two-parameter input for
    pinch measurements.

``herman_shifted(lam)``
    ``herman_offset`` at ``d = 0``: ``mu = 0`` is the map whose break
    orbit ``{0, c}`` closes with rotation number 1/2.

``coelho(a, b)``
    Two-piece lift through ``(0, a)`` and ``(b, 1)``, shifted by ``mu``;
    slopes ``alpha = (1-a)/b`` and ``beta = a/(1-b)``, with the closed
    rotation-number form in :func:`coelho_rho`.

The other two move their breaks:

``refraction(alpha, beta)``
    Four-piece map with breaks ``0 < alpha*(beta-1)/(2*beta) < 1/2 <
    1 - 1/(2*alpha)`` and slopes ``1/alpha, beta/alpha, beta, alpha/beta``,
    parametrised by ``mu`` through ``beta + mu``.  Its rotation number
    *decreases* in ``beta``, so the family carries ``increasing=False``.
    At ``beta = gmm_critical_beta(alpha)`` the break orbit closes into a
    single period-5 cycle with rotation number 4/5.

``custom_family(mu, breaks, values)``
    Rows of marked points tabulated at ``mu`` nodes, interpolated
    linearly between them; the derivatives are the slopes of the node
    segment that carries ``mu``.

:func:`family_from_json` reads every one of them from one registry,
``name -> (constructor, required params, optional params)``.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import log, sqrt
from typing import Callable, Optional, Sequence, Tuple

from . import errors
from .backend import Backend, backend_from_tag, infer_backend, to_json
from .lift import PwlLift, make_lift


def _pick_backend(backend, *values) -> Backend:
    """The given backend or tag (ValueError for any other value), else
    float when any value is a float."""
    if backend is None:
        return infer_backend(values)
    return backend if isinstance(backend, Backend) else backend_from_tag(backend)


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family ``mu -> PwlLift`` with derivative data."""

    name: str
    params: dict = field(compare=False)
    backend: Backend = field(compare=False)
    increasing: bool = True
    _table: Callable = field(repr=False, compare=False, default=None)
    _derivs: Callable = field(repr=False, compare=False, default=None)
    _domain: Optional[Callable] = field(repr=False, compare=False, default=None)

    @property
    def direction_sign(self) -> int:
        return 1 if self.increasing else -1

    def check_domain(self, mu) -> None:
        if self._domain is not None:
            self._domain(mu)

    def table(self, mu) -> Tuple[tuple, tuple]:
        mu = self.backend.coerce(mu)
        self.check_domain(mu)
        return self._table(mu)

    def lift(self, mu) -> PwlLift:
        breaks, values = self.table(mu)
        return make_lift(breaks, values, self.backend)

    def derivatives(self, mu) -> Tuple[tuple, tuple]:
        """d(breaks)/dmu and d(values)/dmu at ``mu``, in closed form."""
        mu = self.backend.coerce(mu)
        self.check_domain(mu)
        return self._derivs(mu)

    def to_json(self) -> dict:
        return to_json({"family": self.name, "params": self.params, "backend": self.backend})


@dataclass(frozen=True)
class TwoParamFamilySpec:
    """A ``d``-indexed collection of one-parameter families in ``mu``."""

    name: str
    params: dict = field(compare=False)
    backend: Backend = field(compare=False)
    _at: Callable = field(repr=False, compare=False, default=None)
    #: Expected d-slopes of the two locked-interval boundaries near the
    #: pinch, when the family has a first-order reference; report-level.
    reference_slopes: Optional[tuple] = None

    def at(self, d) -> FamilySpec:
        return self._at(d)


def _shift_family(name, params, backend, breaks, values) -> FamilySpec:
    """A shift family: fixed ``breaks``, ``values(mu)`` moving at rate 1.

    Its derivative table is the constant ``((0, ...), (1, ...))``.
    """
    derivs = ((backend.coerce(0),) * len(breaks), (backend.coerce(1),) * len(breaks))
    return FamilySpec(
        name=name,
        params=params,
        backend=backend,
        _table=lambda mu: (breaks, values(mu)),
        _derivs=lambda mu: derivs,
    )


def herman(lam, beta=1, backend=None) -> FamilySpec:
    """Two-slope family: ``lam`` then ``lam**-beta``, plus the shift mu."""
    backend = _pick_backend(backend, lam, beta)
    lam_b = backend.coerce(lam)
    beta_b = backend.coerce(beta)
    if not (lam_b > 1 and beta_b > 0):
        raise errors.OutOfDomain("herman needs lam > 1 and beta > 0")
    # An exact non-integer beta gives a float power, which the exact
    # backend refuses (BackendMismatch).
    t = backend.coerce(lam_b ** -beta_b)
    c = (1 - t) / (lam_b - t)
    return _shift_family(
        "herman", {"lam": lam, "beta": beta}, backend,
        (backend.coerce(0), c), lambda mu: (mu, mu + lam_b * c),
    )


def herman_shifted(lam, backend=None) -> FamilySpec:
    """:func:`herman_offset` at ``d = 0``: mu = 0 is the rho = 1/2 closure."""
    return _herman_offset("herman_shifted", {"lam": lam}, _pick_backend(backend, lam), lam, 0)


def coelho(a, b, backend=None) -> FamilySpec:
    """Two-piece lift through ``(0, a)`` and ``(b, 1)``, shifted by mu."""
    backend = _pick_backend(backend, a, b)
    a_b = backend.coerce(a)
    b_b = backend.coerce(b)
    if not (0 < a_b < 1 and 0 < b_b < 1):
        raise errors.OutOfDomain("coelho needs a and b strictly inside (0, 1)")
    one = backend.coerce(1)
    return _shift_family(
        "coelho", {"a": a, "b": b}, backend,
        (backend.coerce(0), b_b), lambda mu: (mu + a_b, mu + one),
    )


def coelho_rho(a, b) -> float:
    """Closed-form rotation number of the mu = 0 coelho lift.

    With slopes ``alpha = (1-a)/b`` and ``beta = a/(1-b)``,

        rho = log(alpha) / (log(alpha) - log(beta)).

    Returns a float; the value is irrational unless log(alpha) and
    log(beta) are rationally dependent.
    """
    a = float(a)
    b = float(b)
    if not (0 < a < 1 and 0 < b < 1):
        raise errors.OutOfDomain("coelho_rho needs a and b strictly inside (0, 1)")
    if abs(a + b - 1) < 1e-14:
        # Both slopes are 1 there: the lift is x + a and the log ratio
        # below degenerates to 0/0.
        return a
    la = log((1 - a) / b)
    lb = log(a / (1 - b))
    return la / (la - lb)


def refraction(alpha, beta, backend=None) -> FamilySpec:
    """Four-piece refraction family, parametrised by ``beta + mu``.

    Admissibility: ``alpha > 1``, ``beta + mu > 1`` and
    ``1/alpha + 1/(beta + mu) > 1`` (the last keeps the second break left
    of 1/2).  Slopes are ``1/alpha, beta/alpha, beta, alpha/beta``; the
    values ``F(b2) = 1`` and ``F(b4) = 3/2`` are parameter-independent,
    which is why the rotation number moves against ``beta`` and why the
    transversality at ``b2`` and ``b4`` is exactly zero.
    """
    backend = _pick_backend(backend, alpha, beta)
    alpha_b = backend.coerce(alpha)
    beta_b = backend.coerce(beta)
    if not alpha_b > 1:
        raise errors.OutOfDomain("refraction needs alpha > 1")
    zero = backend.coerce(0)
    half = backend.coerce(1) / 2

    def domain(mu):
        bm = beta_b + mu
        if not bm > 1:
            raise errors.OutOfDomain("refraction needs beta + mu > 1 (got %s)" % (bm,))
        if not (1 / alpha_b + 1 / bm > 1):
            raise errors.OutOfDomain(
                "refraction needs 1/alpha + 1/(beta+mu) > 1 (got alpha=%s, beta+mu=%s)"
                % (alpha_b, bm)
            )

    def table(mu):
        bm = beta_b + mu
        b2 = (alpha_b / (2 * bm)) * (bm - 1)
        b4 = 1 - 1 / (2 * alpha_b)
        phi1 = (bm + 1) / (2 * bm)
        phi3 = 1 + bm / (2 * alpha_b) + (1 - bm) / 2
        return (zero, b2, half, b4), (phi1, backend.coerce(1), phi3, 3 * half)

    def derivs(mu):
        bm = beta_b + mu
        db = (zero, alpha_b / (2 * bm * bm), zero, zero)
        dphi = (-1 / (2 * bm * bm), zero, (1 - alpha_b) / (2 * alpha_b), zero)
        return db, dphi

    return FamilySpec(
        name="refraction",
        params={"alpha": alpha, "beta": beta},
        backend=backend,
        increasing=False,
        _table=table,
        _derivs=derivs,
        _domain=domain,
    )


def gmm_critical_beta(alpha) -> float:
    """The beta at which the refraction break orbit closes into one cycle.

    Positive root of ``(alpha-1) beta^2 + alpha (alpha-1) beta - alpha^2``:

        beta = (-alpha + sqrt(alpha^2 (alpha+3) / (alpha-1))) / 2.

    At ``alpha = 2`` this is ``sqrt(5) - 1``.
    """
    a = float(alpha)
    if not a > 1:
        raise errors.OutOfDomain("critical beta needs alpha > 1")
    return (-a + sqrt(a * a * (a + 3) / (a - 1))) / 2


def herman_offset(lam, d, backend=None) -> FamilySpec:
    """Shifted family with the break displaced to ``c = 1/(1+lam) + d``.

    Only the break moves; the second-branch coefficients are implied
    exactly by continuity and degree one (no first-order approximation),
    so ``d = 0`` reduces to :func:`herman_shifted` identically.
    """
    backend = _pick_backend(backend, lam, d)
    return _herman_offset("herman_offset", {"lam": lam, "d": d}, backend, lam, d)


def _herman_offset(name, params, backend, lam, d) -> FamilySpec:
    """The offset family, named ``name``; ``herman_shifted`` is ``d = 0``."""
    lam_b = backend.coerce(lam)
    d_b = backend.coerce(d)
    if not lam_b > 0:
        raise errors.OutOfDomain("%s needs lam > 0" % name)
    c0 = 1 / (1 + lam_b)
    c = c0 + d_b
    if not (0 < c < 1):
        raise errors.OutOfDomain("offset pushes the break out of (0, 1): c=%s" % (c,))
    if not lam_b * c < 1:
        raise errors.OutOfDomain(
            "offset makes the second slope non-positive (lam*c=%s)" % (lam_b * c,)
        )
    return _shift_family(
        name, params, backend,
        (backend.coerce(0), c), lambda mu: (mu + c0, mu + c0 + lam_b * c),
    )


def herman_offset_family(lam, backend=None) -> TwoParamFamilySpec:
    """The ``(mu, d)`` plane of offset families, for pinch measurements.

    Every slice ``at(d)`` is built in the plane's backend, so a float
    ``d`` on an exact plane raises :class:`errors.BackendMismatch`.
    """
    picked = _pick_backend(backend, lam)
    return TwoParamFamilySpec(
        name="herman_offset",
        params={"lam": lam},
        backend=picked,
        _at=lambda d: herman_offset(lam, d, backend=picked),
        reference_slopes=(0.0, 1.0 - float(picked.coerce(lam))),
    )


def custom_family(
    mu_nodes: Sequence,
    breaks_table: Sequence[Sequence],
    values_table: Sequence[Sequence],
    increasing: bool = True,
    backend=None,
) -> FamilySpec:
    """Tabulated family: componentwise linear interpolation between mu nodes.

    The derivatives are the slopes of the node segment that carries
    ``mu``: the segment above an interior node, the last one at the top
    node.  They are exact in the rational backend.
    """
    if len(mu_nodes) < 2:
        raise errors.OutOfDomain("need at least two mu nodes")
    if len(breaks_table) != len(mu_nodes) or len(values_table) != len(mu_nodes):
        raise errors.OutOfDomain("tables must list one row per mu node")
    rows = [*breaks_table, *values_table]
    backend = _pick_backend(backend, *mu_nodes, *(x for row in rows for x in row))
    nodes = [backend.coerce(x) for x in mu_nodes]
    for i in range(1, len(nodes)):
        if not nodes[i - 1] < nodes[i]:
            raise errors.OutOfDomain("mu nodes must increase strictly")
    n = len(breaks_table[0])
    if any(len(row) != n for row in breaks_table) or any(
        len(row) != n for row in values_table
    ):
        raise errors.OutOfDomain("all rows must have the same number of marked points")
    btab = [[backend.coerce(x) for x in row] for row in breaks_table]
    vtab = [[backend.coerce(x) for x in row] for row in values_table]

    def domain(mu):
        if not (nodes[0] <= mu <= nodes[-1]):
            raise errors.OutOfDomain(
                "mu=%s outside the tabulated range [%s, %s]" % (mu, nodes[0], nodes[-1])
            )

    def segment(mu):
        """``j`` of the node segment ``[nodes[j], nodes[j + 1]]`` carrying ``mu``."""
        return min(bisect_right(nodes, mu), len(nodes) - 1) - 1

    def table(mu):
        j = segment(mu)
        t = (mu - nodes[j]) / (nodes[j + 1] - nodes[j])
        b = tuple(x + t * (y - x) for x, y in zip(btab[j], btab[j + 1]))
        v = tuple(x + t * (y - x) for x, y in zip(vtab[j], vtab[j + 1]))
        return b, v

    def derivs(mu):
        j = segment(mu)
        h = nodes[j + 1] - nodes[j]
        db = tuple((y - x) / h for x, y in zip(btab[j], btab[j + 1]))
        dv = tuple((y - x) / h for x, y in zip(vtab[j], vtab[j + 1]))
        return db, dv

    return FamilySpec(
        name="custom",
        params={
            "mu": list(mu_nodes),
            "breaks": [list(r) for r in breaks_table],
            "values": [list(r) for r in values_table],
            "increasing": increasing,
        },
        backend=backend,
        increasing=increasing,
        _table=table,
        _derivs=derivs,
        _domain=domain,
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
    Non-positive values are data, not errors: :func:`scaling.r1` reports
    the minimum."""
    zero = f.backend.coerce(0)
    vals = []
    for k in range(f.n):
        bd = sigma * db[k]
        vals.append(sigma * dphi[k] - max(zero, f.slopes[k - 1] * bd, f.slopes[k] * bd))
    return tuple(vals)


#: name -> (constructor, required params in positional order, optional params)
_FAMILIES = {
    "herman": (herman, ("lam",), ("beta",)),
    "herman_shifted": (herman_shifted, ("lam",), ()),
    "coelho": (coelho, ("a", "b"), ()),
    "refraction": (refraction, ("alpha", "beta"), ()),
    "herman_offset": (herman_offset, ("lam", "d"), ()),
    "custom": (custom_family, ("mu", "breaks", "values"), ("increasing",)),
}


def _decode_param(name, v):
    """Param ``name``'s JSON value, ``"p/q"`` strings read as Fractions, lists
    entrywise.  ValueError for a string that is no fraction (``"1/0"`` too),
    a boolean where a number is read, or anything but a boolean for ``increasing``."""
    flag = name == "increasing"
    if flag != isinstance(v, bool):
        raise ValueError("param %r must be %s, got %r"
                         % (name, "a boolean" if flag else "a number or a 'p/q' string", v))
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError("%r has a zero denominator" % (v,)) from None
    if isinstance(v, list):
        return [_decode_param(name, x) for x in v]
    return v


def family_from_json(obj: dict, backend=None) -> FamilySpec:
    """Build a family from its JSON description.

    Expects ``{"family": name, "params": {...}}``; scalar parameters may
    be JSON numbers or exact ``"p/q"`` strings, and ``increasing`` a JSON
    boolean.  An optional ``backend`` key (a tag or null; the ``backend``
    argument wins) forces the scalar representation.  Anything else raises
    ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("family description must be an object")
    unknown = set(obj) - {"family", "params", "backend"}
    if unknown:
        raise ValueError("unknown keys in family description: %s" % sorted(unknown))
    name = obj.get("family")
    if name not in _FAMILIES:
        raise ValueError(
            "unknown family %r (expected one of %s)" % (name, sorted(_FAMILIES))
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    build, required, optional = _FAMILIES[name]
    missing = [k for k in required if k not in params]
    extra = [k for k in params if k not in required and k not in optional]
    if missing:
        raise ValueError("family %r missing params: %s" % (name, sorted(missing)))
    if extra:
        raise ValueError("family %r got unknown params: %s" % (name, sorted(extra)))
    if backend is None:
        backend = obj.get("backend")
    args = [_decode_param(k, params[k]) for k in required]
    kwargs = {k: _decode_param(k, params[k]) for k in optional if k in params}
    try:
        return build(*args, backend=backend, **kwargs)
    except TypeError as exc:
        raise ValueError("family %r has ill-typed params: %s" % (name, exc)) from exc
