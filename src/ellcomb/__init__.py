"""Weight-dependent and theta-function combinatorial identities.

Exact symbolic weight polynomials, numeric theta machinery, normal
ordering in three variable-weight rewriting systems, weighted rook and
file polynomials on Ferrers boards, skew polynomial operators with the
associated Fibonacci numbers, and a seeded verification harness that
checks the identities tying all of these together.
"""

from .special_fn import (
    AQWeights,
    BQWeights,
    DomainError,
    EllipticWeights,
    EvaluationError,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    PoleError,
    QWeights,
    TableWeights,
    WeightFamily,
    bracket_z,
    complex_to_pair,
    family_from_spec,
    pair_to_complex,
    q_binomial,
    q_bracket,
    q_factorial,
    qp_factorial,
    theta,
    theta_product,
)
from .weightpoly import WeightPolynomial
from .ncword import (
    NormalForm,
    RelationSystem,
    WordParseError,
    dual_word,
    expand_power_sum,
    multiply,
    normal_order,
    parse_word,
)
from .boards import (
    FerrersBoard,
    Placement,
    all_boards_within,
    board_from_word,
    file_poly,
    file_product_sides,
    path_binom,
    placements,
    rook_poly,
    rook_product_sides,
    word_from_board,
)
from .skewpoly import (
    AQ_RULE,
    ELLIPTIC_RULE,
    ShiftRule,
    SkewPoly,
    apply_D,
    apply_eta,
    apply_eta_aq,
    f_relation_sides,
    fib_aq,
    fib_aq_closed,
    fib_elliptic,
    genfun_expand,
    pincherle_check,
    pincherle_coeff,
    product_expand,
    skew_mul,
    x_mul,
)
from .verify import (
    CheckReport,
    IdentityCheck,
    VerifyError,
    list_identities,
    run_all,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "AQWeights", "AQ_RULE", "BQWeights", "CheckReport", "DomainError",
    "ELLIPTIC_RULE", "EllipticWeights", "EvaluationError",
    "FerrersBoard", "GenericWeights", "IdentityCheck",
    "NearPoleError", "NormalForm", "ParameterSet", "Placement",
    "PoleError", "QWeights", "RelationSystem", "ShiftRule",
    "SkewPoly", "TableWeights", "VerifyError", "WeightFamily",
    "WeightPolynomial", "WordParseError", "all_boards_within", "apply_D",
    "apply_eta", "apply_eta_aq", "board_from_word", "bracket_z",
    "complex_to_pair", "dual_word",
    "expand_power_sum", "f_relation_sides", "family_from_spec",
    "fib_aq", "fib_aq_closed", "fib_elliptic", "file_poly",
    "file_product_sides", "genfun_expand", "list_identities", "multiply",
    "normal_order", "pair_to_complex", "parse_word", "path_binom",
    "pincherle_check", "pincherle_coeff", "placements", "product_expand",
    "q_binomial", "q_bracket", "q_factorial", "qp_factorial",
    "rook_poly", "rook_product_sides", "run_all", "run_check",
    "skew_mul", "theta", "theta_product", "word_from_board", "x_mul",
]
