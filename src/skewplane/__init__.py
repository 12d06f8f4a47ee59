"""Exact-arithmetic model of a Desargues affine plane over a skew field.

The package builds, on top of three exact scalar backends (rationals,
prime fields, rational quaternions), a coordinate affine plane with
parallel-line constructions that add and multiply the points of a
distinguished line, the two/three/four-point ratio operations on that
line, the four cross-ratio map families with their verified algebraic
structure, and a CLI front end for evaluating expressions, tracing
constructions to SVG, and running the verification suites.
"""

from .constructions import (
    CONCURRENT,
    PARALLEL,
    ConstructionTrace,
    DesarguesConfig,
    LineFrame,
    check_desargues,
    generate_desargues_config,
    geometric_add,
    geometric_mul,
    trace_addition,
    trace_multiplication,
    validate_desargues_config,
)
from .errors import SkewPlaneError
from .maps import (
    CrossRatioBase,
    Family,
    SampleSet,
    VerificationReport,
    evaluate,
    exhaustive_arguments,
    inverse_value,
    omitted_value,
    preimage,
    sample_arguments,
    singular_point,
    unit_point,
    verify_addition_structure,
    verify_distributive,
    verify_multiplicative_group,
    zero_point,
)
from .plane import (
    PlaneLine,
    PlanePoint,
    intersect,
    is_parallel,
    line_through,
    on_line,
    parallel_through,
)
from .ratios import cross_ratio, ratio2, ratio3
from .scalars import (
    PrimeField,
    PrimeFieldElement,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
    ScalarField,
    SkewScalar,
)

__version__ = "0.1.0"
