"""Perfect unary quadratic forms over real quadratic fields.

Exact enumeration of the perfect forms of Q(sqrt(d)) up to scaling and
squared-unit equivalence, via a neighbour walk along the lower envelope
of trace support lines, plus closed-form families with known class
counts and the machinery to verify them.

A walked class is one integer record, PerfectForm: its ray label (p, q),
its minimum, and its minimal vectors as sorted basis coordinates over
{1, omega} with both signs.  Only min_data, brute_force_min and
predicted_minimal_set return field elements as vectors.

__all__ is the documented surface: the README's Library section names
each of its names.  The helpers behind them stay in their modules.
"""

from .family import (
    DClass,
    FamilyParams,
    FamilyScan,
    classify,
    construct_a1_a2,
    construct_a3,
    generate_family,
    predicted_a3_minimum,
    predicted_minimal_set,
)
from .quadfield import (
    FieldDesc,
    FieldElem,
    InvariantError,
    QuadFieldError,
    SizeLimitError,
    primitive_normalize,
)
from .traceform import MinData, brute_force_min, min_data
from .units import FundamentalUnit, fundamental_unit
from .voronoi import PerfectForm, WalkResult, classes_equal, walk_classes

__version__ = "0.1.0"

__all__ = [
    "DClass",
    "FamilyParams",
    "FamilyScan",
    "FieldDesc",
    "FieldElem",
    "FundamentalUnit",
    "InvariantError",
    "MinData",
    "PerfectForm",
    "QuadFieldError",
    "SizeLimitError",
    "WalkResult",
    "brute_force_min",
    "classes_equal",
    "classify",
    "construct_a1_a2",
    "construct_a3",
    "fundamental_unit",
    "generate_family",
    "min_data",
    "predicted_a3_minimum",
    "predicted_minimal_set",
    "primitive_normalize",
    "walk_classes",
]
