"""Intuitionistic fuzzy subsets over finite semigroups, in exact arithmetic.

The package decides crisp and fuzzy structural properties of finite
semigroups, applies the translate/multiply/magnify transforms to fuzzy
subjects, composes subjects with the sup-min product, and mechanically
verifies the transform theorems over enumerated semigroups at desk scale.
"""

from .composition import if_product
from .errors import (
    AlphaOutOfRange,
    AssociativityViolation,
    BetaOutOfRange,
    CarrierMismatch,
    EmptySubset,
    GradeOutOfRange,
    HypothesisNotMet,
    IfsgError,
    OrderTooLarge,
    ParseError,
    PreconditionNotMet,
    SumConstraintViolation,
)
from .harness import (
    Certificate,
    SampleSpec,
    THEOREM_IDS,
    VerificationReport,
    alpha_samples,
    check_archimedean_constant,
    check_characterization,
    check_group_constant,
    check_product_inclusions,
    check_regular_iff_product,
    check_semiprime_fixedpoint,
    check_semiprime_intersection,
    check_transform_equivalence,
    replay_certificate,
    run_suite,
    sample_ifs,
)
from .ifs import (
    IFSubset,
    as_grade,
    characteristic_pair,
    format_ifs,
    ifs_eq,
    ifs_leq,
    intersect,
    is_constant,
    is_nonempty,
    parse_ifs,
    validate_ifs,
)
from .predicates import (
    FuzzyStructureKind,
    Violation,
    break_property,
    check,
    find_violation,
    profile,
    replay_violation,
)
from .semigroups import (
    Classification,
    ElementSubset,
    LibraryEntry,
    Semigroup,
    builtin_library,
    classify,
    enumerate_semigroups,
    format_cayley,
    is_crisp_structure,
    library_entry,
    multiply_subsets,
    parse_cayley,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
)
from .transforms import TransformParams, magnify, max_alpha, multiply, translate

__version__ = "0.1.0"
