"""braidrev: exact computation with three-string braid group representations.

The package constructs semi-simple representations of the braid group on
three strings from quiver data over the cyclotomic field Q(w), implements
the transpose involution on them, classifies the components on which that
involution is trivial, and detects braid reversion through exact trace
separation.  All arithmetic is exact; nothing is ever rounded.
"""

from .cyclotomic import (
    CycRat,
    ONE,
    RHO,
    RHO2,
    Rational,
    TrivariatePoly,
    ZERO,
    parse_cycrat,
    poly_proportional,
)
from .linalg import (
    CycMatrix,
    ShapeError,
    SingularMatrixError,
    block_compose,
    block_diag,
    block_extract,
    pencil_det,
)
from .quiver import (
    DimVector,
    GLAlphaElement,
    IsomorphismSearch,
    QuiverRep,
    act,
    find_isomorphism,
    hom_space,
    is_simple_dimvector,
    tau_quiver,
)
from .braid import (
    B3Rep,
    BraidSyntaxError,
    BraidWord,
    EIGHT_SEVENTEEN,
    build_rep,
    evaluate,
    is_simple,
    parse_braid,
    recover_dimvector,
    reverse_braid,
    tau_rep,
    trace_of,
)
from .families import (
    FamilySpec,
    SamplingError,
    WitnessReport,
    jumping_lines_check,
    jumping_pencil,
    make_dim42_exceptional,
    make_dim6_detecting,
    make_even_family,
    make_odd_family,
    sample_stable_rep,
    verify_dim42_family,
    verify_dim6_detection,
    verify_even_witness,
    verify_odd_family,
    verify_two_dim_example,
)
from .classify import (
    ComponentReport,
    classify_component,
    component_dimension,
    detecting_rule,
    enumerate_components,
    is_fixed_dimvector,
    normalize,
)

__version__ = "0.1.0"
