"""Piecewise-linear circle homeomorphisms: rotation numbers, conjugacy, scaling.

The package works with degree-one lifts of orientation-preserving PWL
circle maps, in either exact rational or float arithmetic:

- :mod:`pwlrotor.lift` — the :class:`PwlLift` value type and its algebra
  (composition, powers, inversion, canonical form, jump ratios).
- :mod:`pwlrotor.rotation` — Birkhoff rotation-number enclosures, exact
  rational rotation numbers via mediant search with certificates,
  periodic-point scans, and mode-locked interval measurement.
- :mod:`pwlrotor.conjugacy` — the periodic-break-orbit criterion for
  conjugacy to a rigid rotation, the conjugacy itself, invariant
  densities, and growth diagnostics.
- :mod:`pwlrotor.families` — built-in parametrised families and custom
  tabulated ones, with derivative data.
- :mod:`pwlrotor.scaling` — the linear scaling coefficient R1 at a
  conjugacy parameter, quadratic residuals, and pinch measurements.
- :mod:`pwlrotor.cli` — the ``pwl-rotor`` batch command.

Long orbits, exact or float, iterate the explicit lift of a power ``F^Q``
in the kernel :mod:`pwlrotor.kernel`, which runs a large batch of float
orbits (a sweep) in lock-step on numpy arrays; nothing is compiled.  Those
lock-step sweeps are the only code that loads numpy.
"""

from . import errors
from .backend import (
    FLOAT,
    RATIONAL,
    FloatBackend,
    RationalBackend,
    backend_from_tag,
    infer_backend,
)
from .conjugacy import (
    CancellationCheck,
    Conjugate,
    NotConjugate,
    NotPeriodic,
    OrbitPartition,
    PiecewiseConstantDensity,
    Undecided,
    break_count_growth,
    break_orbit_partition,
    build_conjugacy,
    check_trivial_cancellations,
    derivative_growth,
    invariant_density,
    is_conjugate_to_rigid,
    verify_invariance,
)
from .families import (
    FamilySpec,
    TwoParamFamilySpec,
    coelho,
    coelho_rho,
    custom_family,
    family_from_json,
    gmm_critical_beta,
    herman,
    herman_offset,
    herman_offset_family,
    herman_shifted,
    refraction,
)
from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .lift import (
    PwlLift,
    canonicalize,
    compose,
    frac,
    invert,
    jump,
    jump_product,
    make_lift,
    power,
    rigid,
    sup_difference,
)
from .rotation import (
    ModeLockInterval,
    PeriodicPoint,
    PeriodicScan,
    RotationResult,
    birkhoff_enclosure,
    birkhoff_enclosures,
    exact_rotation,
    mode_lock_interval,
    periodic_points,
)
from .scaling import (
    PinchReport,
    ResidualReport,
    ScalingReport,
    kappa,
    pinch_boundaries,
    r1,
    scaling_residual,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FLOAT",
    "RATIONAL",
    "FloatBackend",
    "RationalBackend",
    "backend_from_tag",
    "infer_backend",
    "KERNEL_IMPLEMENTATION",
    "PwlLift",
    "make_lift",
    "rigid",
    "frac",
    "compose",
    "power",
    "invert",
    "canonicalize",
    "jump",
    "jump_product",
    "sup_difference",
    "RotationResult",
    "birkhoff_enclosure",
    "birkhoff_enclosures",
    "exact_rotation",
    "PeriodicPoint",
    "PeriodicScan",
    "periodic_points",
    "ModeLockInterval",
    "mode_lock_interval",
    "OrbitPartition",
    "NotPeriodic",
    "Conjugate",
    "NotConjugate",
    "Undecided",
    "CancellationCheck",
    "break_orbit_partition",
    "is_conjugate_to_rigid",
    "check_trivial_cancellations",
    "build_conjugacy",
    "PiecewiseConstantDensity",
    "invariant_density",
    "verify_invariance",
    "break_count_growth",
    "derivative_growth",
    "FamilySpec",
    "TwoParamFamilySpec",
    "herman",
    "herman_shifted",
    "coelho",
    "coelho_rho",
    "refraction",
    "gmm_critical_beta",
    "herman_offset",
    "herman_offset_family",
    "custom_family",
    "family_from_json",
    "ScalingReport",
    "ResidualReport",
    "PinchReport",
    "kappa",
    "r1",
    "scaling_residual",
    "pinch_boundaries",
    "__version__",
]
