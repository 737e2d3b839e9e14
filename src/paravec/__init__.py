"""Paravector algebra: pairs of a complex scalar and a complex 3-vector.

The package provides the non-commutative ring of paravectors with its
involutions, determinant and vigor, oriented integrated products,
geometric predicates and angles, rotations and symmetries, the 4x4 and
Pauli matrix representations, a JSON wire format, and a deterministic
property-fuzz engine (also reachable through the ``pv`` command line
tool).  The fuzz engine's names (``SUITES``, ``FuzzReport``,
``SplitMix64``, ``run_fuzz``) are imported on first access, so that
``import paravec`` does not build its property registry.
"""

from .core import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Classification,
    Paravector,
    Tolerance,
    approx_eq,
    classify,
    component_scale,
    format_complex,
    is_orthogonal_transform,
    mul,
    vcross,
    vdot,
)
from .errors import (
    ArityError,
    BadUnitVector,
    DegenerateComposition,
    ImproperParavector,
    InvariantViolation,
    IsotropicNormal,
    NotAParavectorMatrix,
    OrientationMismatch,
    ParavectorError,
    ParseError,
    SingularParavector,
    ValidationError,
)
from .geometry import (
    Angle,
    angle,
    compose_angles,
    explement,
    is_parallel,
    is_perpendicular,
    is_singularly_parallel,
    is_spatially_parallel,
    parallel_ratio,
)
from .matrices import (
    Matrix2,
    Matrix4,
    format_matrix,
    from_matrix4,
    to_matrix4,
    to_pauli,
)
from .products import (
    Orientation,
    integrated,
    scalar_product,
    vector_product,
)
from .transforms import (
    RotationAxis,
    SpatialRotation,
    axial_symmetry,
    compose_mirrors,
    euler_compose,
    mirror,
    rotate,
    rotate_vector,
    similarity,
    spatial_axis,
)
from .wire import from_wire, parse_paravector, serialize_paravector, to_wire

__version__ = "0.1.0"

_FUZZ_NAMES = frozenset({"SUITES", "FuzzReport", "SplitMix64", "run_fuzz"})


def __getattr__(name):
    if name in _FUZZ_NAMES:
        from . import fuzz

        value = getattr(fuzz, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Angle",
    "ArityError",
    "BadUnitVector",
    "Classification",
    "DEFAULT_TOL",
    "DegenerateComposition",
    "FuzzReport",
    "ImproperParavector",
    "InvariantViolation",
    "IsotropicNormal",
    "Matrix2",
    "Matrix4",
    "NotAParavectorMatrix",
    "ONE",
    "Orientation",
    "OrientationMismatch",
    "ParavectorError",
    "Paravector",
    "ParseError",
    "RotationAxis",
    "SUITES",
    "SingularParavector",
    "SpatialRotation",
    "SplitMix64",
    "Tolerance",
    "ValidationError",
    "ZERO",
    "angle",
    "approx_eq",
    "axial_symmetry",
    "classify",
    "compose_angles",
    "compose_mirrors",
    "component_scale",
    "euler_compose",
    "explement",
    "format_complex",
    "format_matrix",
    "from_matrix4",
    "from_wire",
    "integrated",
    "is_orthogonal_transform",
    "is_parallel",
    "is_perpendicular",
    "is_singularly_parallel",
    "is_spatially_parallel",
    "mirror",
    "mul",
    "parallel_ratio",
    "parse_paravector",
    "rotate",
    "rotate_vector",
    "run_fuzz",
    "scalar_product",
    "serialize_paravector",
    "similarity",
    "spatial_axis",
    "to_matrix4",
    "to_pauli",
    "to_wire",
    "vcross",
    "vdot",
    "vector_product",
]
