"""Exact expansion and verification of totally antisymmetrized operator brackets."""

from .algebra import (
    ANTI_SLOT,
    FreeElement,
    canonical_reduce,
    is_anti,
    merge_class_maps,
    pattern_str,
    reduce_element,
    reduce_terms,
)
from .expand import (
    DEFAULT_TERM_BUDGET,
    TermBudgetExceeded,
    UnsupportedShapeError,
    expand_bracket,
    expand_expr,
    fast_profile,
    intercalate_one,
    intercalate_two,
    naive_term_count,
    oracle_profile,
)
from .identities import (
    CoefficientProfile,
    IdentityReport,
    UnsupportedParameter,
    bremner_profiles,
    check_sums,
    closed_form_multiplicity,
    decompose,
    decomposition_basis,
    decomposition_target,
    double_action_expr,
    flat_bracket_expr,
    multiplicity_prefactor,
    nested_shape,
    odd_reduction_constant,
    reduced_multiplicity,
    relate,
    split_shape,
    verify_bremner,
    verify_decomposition,
    verify_even_gji,
    verify_odd_reduction,
)
from .syntax import (
    Atom,
    Bracket,
    BracketExpr,
    DuplicateAntiIndexError,
    ParseError,
    Product,
    anti_indices,
    parse,
    render,
    validate_unique_anti,
)

__version__ = "0.1.0"
