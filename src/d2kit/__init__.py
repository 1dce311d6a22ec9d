"""d2kit: exact computation with finitely presented groups and algebraic
2-complexes — deficiency, partial Euler characteristics, coset enumeration,
group-ring chain complexes, splitting tests, and chain-homotopy certificates.
"""

from .words import Word, reduce_word, words_in_length_lex_order
from .presentations import (
    Presentation,
    ParseError,
    UnknownGenerator,
    EmptyGeneratorList,
    InvariantFactors,
    abelianization,
    deficiency,
    is_perfect,
    parse_presentation,
    serialize_presentation,
)
from .intlinalg import (
    CertificateError,
    IntMatrix,
    SNFResult,
    smith_normal_form,
    solve_integer_system,
    infeasibility_certificate,
    kernel_basis,
    rank_over_field,
)
from .coset import (
    CosetTable,
    FiniteGroupModel,
    NotFinitelyEnumerated,
    QuotientCheck,
    find_normal_generator,
    group_model,
    is_trivial_quotient,
    todd_coxeter,
)
from .tietze import (
    AddGenerator,
    AddRelator,
    RemoveGenerator,
    RemoveRelator,
    InvalidMove,
    NotASubpresentation,
    LiftingViolatesRelator,
    apply_move,
    deficiency_search,
    invert_move,
    replace_subpresentation,
    simplify,
    subpresentation,
)
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    ModelMismatch,
    regular_rep_expand,
    solve_gr_system,
)
from .chains import (
    AlgebraicComplex,
    EquivalenceCertificate,
    NotAChainMap,
    NotSplit,
    SplitReport,
    ValidationReport,
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    fox_derivative,
    homology_over_field,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
    validate_complex,
)
from .invariants import (
    D2nEstimate,
    Mu2Sandwich,
    NotCertifiedFinite,
    PresentationAnalysis,
    RealizationReport,
    SubcomplexReport,
    SwanReport,
    analyze_presentation,
    d2n_estimate,
    mu2_lower_bound,
    mu2_sandwich,
    realization_check,
    subcomplex_realization_report,
    swan_inequality_check,
)
from . import acx

__all__ = [
    "Word", "reduce_word", "words_in_length_lex_order",
    "Presentation", "ParseError", "UnknownGenerator", "EmptyGeneratorList",
    "InvariantFactors", "abelianization", "deficiency", "is_perfect",
    "parse_presentation", "serialize_presentation",
    "CertificateError", "IntMatrix", "SNFResult", "smith_normal_form",
    "solve_integer_system", "infeasibility_certificate", "kernel_basis",
    "rank_over_field",
    "CosetTable", "FiniteGroupModel", "NotFinitelyEnumerated", "QuotientCheck",
    "find_normal_generator", "group_model", "is_trivial_quotient", "todd_coxeter",
    "AddGenerator", "AddRelator", "RemoveGenerator", "RemoveRelator",
    "InvalidMove", "NotASubpresentation", "LiftingViolatesRelator",
    "apply_move", "deficiency_search", "invert_move", "replace_subpresentation",
    "simplify", "subpresentation",
    "GroupRingElement", "GroupRingMatrix", "ModelMismatch",
    "regular_rep_expand", "solve_gr_system",
    "AlgebraicComplex", "EquivalenceCertificate", "NotAChainMap", "NotSplit",
    "SplitReport", "ValidationReport", "attach_three_cells",
    "certify_chain_equivalence", "euler_characteristic", "fox_derivative",
    "homology_over_field", "presentation_complex", "quotient_by_split_summand",
    "split_test", "stabilize_wedge", "validate_complex",
    "D2nEstimate", "Mu2Sandwich", "NotCertifiedFinite", "PresentationAnalysis",
    "RealizationReport", "SubcomplexReport", "SwanReport",
    "analyze_presentation", "d2n_estimate", "mu2_lower_bound", "mu2_sandwich",
    "realization_check", "subcomplex_realization_report",
    "swan_inequality_check",
    "acx",
]

__version__ = "0.1.0"
