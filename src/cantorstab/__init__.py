"""cantorstab: exact stabiliser, germ, and conjugator computations for
groups acting on the Cantor space of infinite words."""

from .space import (
    Alphabet,
    AlphabetMismatch,
    BoundaryPoint,
    Cylinder,
    CylinderRelation,
    DepthSchedule,
    Word,
    complement,
    contains_point,
    cylinder_relation,
    cylinders_at_depth,
    first_disagreement,
    parse_point,
)
from .elements import (
    FamilyMismatch,
    FullGroupTable,
    GroupElement,
    IncompleteCode,
    NoCycleWithinBound,
    NotBijective,
    OverlappingCode,
    PrefixBijection,
    TreeAutomorphism,
    Tri,
    UnresolvedWord,
    WreathTable,
    format_generator_word,
    parse_generator_word,
)
from .engine import (
    GermKind,
    GermReport,
    GermVerdict,
    GroupFamily,
    PointClass,
    classify_point,
    fixes_cylinder_pointwise,
    germ_classes,
    in_neighbourhood_stabiliser,
    in_rigid_stabiliser,
    stabilises,
)
from .search import (
    EmptyRist,
    MinimalityWitness,
    OrbitCertificate,
    SearchBudget,
    SearchExhausted,
    cylinder_orbit,
    local_minimality_witness,
    minimality_witness,
    rist_generators,
    rist_search,
    transporter,
)
from .conjugator import (
    BuildBudgets,
    ConjugatorBuildError,
    ConjugatorCertificate,
    LimitValue,
    NotInNeighbourhoodStabiliser,
    Stage,
    build_conjugator,
    conjugate_element,
    conjugation_suite,
    eval_limit,
    eval_limit_inverse,
    verify_certificate,
)
from .presets import grigorchuk, load_preset, odometer_full, prefix_v

__version__ = "0.1.0"
