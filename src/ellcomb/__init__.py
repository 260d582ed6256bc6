"""Weight-dependent and theta-function combinatorial identities.

Exact symbolic weight polynomials, numeric theta machinery, normal
ordering in three variable-weight rewriting systems, weighted rook and
file polynomials on Ferrers boards, skew polynomial operators with the
associated Fibonacci numbers, and a seeded verification harness that
checks the identities tying all of these together.

Importing the package loads ``special_fn``, ``weightpoly`` and
``ncword``, the modules that hold every module-level cache.  The names
of ``boards``, ``skewpoly`` and ``verify`` (the 32-check registry) are
listed once, in ``_DEFERRED``, and the module ``__getattr__`` (PEP 562)
loads their module on first access, so a command that only evaluates
weights or normal-orders a word never compiles them.  The command-line
handlers defer the same three modules with a plain ``from . import``.
"""

import importlib

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
    VerifyError,
    WeightFamily,
    bracket_z,
    complex_to_pair,
    family_from_spec,
    path_binom,
    q_binomial,
    qp_factorial,
    theta,
)
from .weightpoly import WeightPolynomial
from .ncword import (
    NormalForm,
    RelationSystem,
    WordParseError,
    expand_power_sum,
    normal_order,
    parse_word,
)
from . import ncword, special_fn

__version__ = "0.1.0"


# Every module-level memo table by its module-qualified name, each a
# bounded ``functools.lru_cache`` whose module docstring says what it
# serves across calls.  ``ellcomb verify --stats`` prints the deltas of
# each one's ``cache_info()``.
_CACHES = {
    "special_fn._theta_series": special_fn._theta_series,
    "special_fn._elliptic_small": special_fn._elliptic_small,
    "special_fn._elliptic_big": special_fn._elliptic_big,
    "special_fn._power_tables": special_fn._power_tables,
    "special_fn._pincherle_states": special_fn._pincherle_states,
    "ncword._y_x_power": ncword._y_x_power,
}


def clear_caches() -> None:
    """Empty every module-level memo table, so the next call runs cold."""
    for cache in _CACHES.values():
        cache.cache_clear()


# every name of a module that loads on first access, by its module;
# ``__all__`` is the eagerly imported names followed by these
_DEFERRED = {
    **dict.fromkeys((
        "FerrersBoard", "all_boards_within", "board_from_word", "file_poly",
        "file_product_sides", "rook_poly", "rook_product_sides"), "boards"),
    **dict.fromkeys((
        "SkewPoly", "apply_D", "apply_eta", "f_relation_sides", "fib_aq",
        "fib_aq_closed", "fib_elliptic", "genfun_expand", "pincherle_check",
        "pincherle_coeff", "product_expand", "skew_mul", "x_mul"), "skewpoly"),
    **dict.fromkeys((
        "CheckReport", "IdentityCheck", "list_identities", "run_all",
        "run_check"), "verify"),
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AQWeights", "BQWeights", "DomainError", "EllipticWeights",
    "EvaluationError", "GenericWeights", "NearPoleError", "NormalForm",
    "ParameterSet", "PoleError", "QWeights", "RelationSystem",
    "VerifyError", "WeightFamily", "WeightPolynomial", "WordParseError",
    "bracket_z", "clear_caches", "complex_to_pair", "expand_power_sum",
    "family_from_spec", "normal_order", "parse_word", "path_binom",
    "q_binomial", "qp_factorial", "theta",
    *_DEFERRED,
]
