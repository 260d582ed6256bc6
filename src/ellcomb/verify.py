"""Identity registry and verification harness.

Every identity in scope is one registered check.  Its metadata (id,
description, kind, default sizes, tolerance, the code paths of its two
sides, and the size key that the "order" override retargets) sits in
an ``@_check(...)`` decorator directly above the function that computes
it.

A numeric-sampled check is a draw function ``draw(ctx) -> (sample,
pairs)``: it draws its parameters from ``ctx``, evaluates both sides
through independent code paths, and returns the drawn values together
with the (lhs, rhs) pairs to compare.  ``CheckContext.run`` owns the
loop around it: ``size("draws")`` admitted draws, each near-pole draw
resampled up to a cap, digests of the first samples, and every
comparison recorded.  An exact-symbolic check is called once with the
context and records its own comparisons with ``ctx.record``.

Reports are deterministic functions of (check id, seed, sizes): each
check owns a generator seeded by both, so checks can run in any order
or concurrently without changing results.

Reference implementations private to this module (a direct theta
product, raw factorial loops, a small-weight quotient) provide the
second side for identities whose natural statement would otherwise
route both sides through the same library function.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import time
from collections import namedtuple
from functools import partial

from .special_fn import (
    AQWeights,
    BQWeights,
    DomainError,
    EllipticWeights,
    EvaluationError,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    QWeights,
    VerifyError,
    bracket_z,
    exp_coeff_bq,
    path_binom,
    q_binomial,
    qp_factorial,
    qpow,
    reversal_coeff_bq,
    theta,
)
from .ncword import (NormalForm, RelationSystem, _append, _prepend, normal_order,
                     power_sum_values)
from .boards import (
    FerrersBoard,
    all_boards_within,
    board_from_word,
    file_poly,
    file_product_sides,
    rook_poly,
    rook_product_lhs,
    rook_product_sides,
)
from .skewpoly import (
    SkewPoly,
    apply_eta,
    evaluate_together,
    f_relation_sides,
    fib_aq,
    fib_aq_closed,
    fib_elliptic,
    genfun_expand,
    pincherle_coeff,
    pincherle_coeff_bracket,
    pincherle_residuals,
    product_expand,
    x_mul,
)

__all__ = [
    "VerifyError", "IdentityCheck", "CheckReport",
    "list_identities", "run_check", "run_all",
]

_HOM = RelationSystem.HOMOGENEOUS
_WEYL = RelationSystem.ROOK_WEYL
_FILE = RelationSystem.FILE

_GENERIC = GenericWeights()


IdentityCheck = namedtuple("IdentityCheck", "id description kind default_sizes "
                           "tolerance lhs_path rhs_path order_key runner")


class CheckReport(namedtuple("CheckReport", "id trials failures max_rel_err seed "
                              "elapsed_ms passed samples")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "trials": self.trials,
            "failures": self.failures,
            "max_rel_err": self.max_rel_err,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "pass": self.passed,
            "samples": list(self.samples),
        }


def _digest(values) -> str:
    import hashlib  # here, so that ``import ellcomb`` does not load it
    parts = []
    for z in values:
        z = complex(z)
        parts.append(f"{z.real:.12e},{z.imag:.12e}")
    return hashlib.sha1(";".join(parts).encode()).hexdigest()[:12]


def _rel_err(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


_MAX_ATTEMPTS = 60


class CheckContext:
    """Per-run state of one check: the seeded generator, effective sizes,
    and the accumulating report counters.  ``run(draw)`` drives a
    numeric-sampled check; an exact-symbolic check calls ``record``
    itself."""

    def __init__(self, rng: random.Random, sizes: dict, tolerance: float):
        self.rng = rng
        self.sizes = sizes
        self.tolerance = tolerance
        self.trials = 0
        self.failures = 0
        self.max_rel_err = 0.0
        self.samples: list = []
        self.total_draws = 0
        self.rejected = 0

    def size(self, key: str) -> int:
        return self.sizes[key]

    def annulus(self, lo: float, hi: float) -> complex:
        r = self.rng.uniform(lo, hi)
        t = self.rng.uniform(0.0, 2.0 * math.pi)
        return r * cmath.exp(1j * t)

    def draw_q(self) -> complex:
        return self.annulus(0.3, 0.9)

    def draw_p(self) -> complex:
        return self.annulus(0.05, 0.5)

    def draw_ab(self) -> complex:
        return self.annulus(0.2, 2.0)

    def draw_ps(self) -> ParameterSet:
        return ParameterSet(self.draw_ab(), self.draw_ab(),
                            self.draw_q(), self.draw_p())

    def record(self, lhs, rhs) -> None:
        """Record one comparison; a pair whose right side is None holds
        a relative residual on its left."""
        if rhs is None:
            err = lhs
        elif isinstance(lhs, (int, float, complex)) and isinstance(rhs, (int, float, complex)):
            err = _rel_err(complex(lhs), complex(rhs))
        else:
            err = 0.0 if lhs == rhs else 1.0
        self.trials += 1
        if not err <= self.tolerance:
            # NaN compares false both ways: a non-finite error fails and
            # shows as inf
            self.failures += 1
            if not math.isfinite(err):
                err = math.inf
        self.max_rel_err = max(self.max_rel_err, err)

    def run(self, draw) -> None:
        """Admit size("draws") draws of draw(self) -> (sample values,
        list of (lhs, rhs) pairs, rhs None for a residual).  A draw that
        raises NearPoleError or EvaluationError is rejected and redrawn,
        at most _MAX_ATTEMPTS times in a row; comparisons are recorded
        only for admitted draws."""
        for _ in range(self.size("draws")):
            for _attempt in range(_MAX_ATTEMPTS):
                self.total_draws += 1
                try:
                    sample, pairs = draw(self)
                    break
                except (NearPoleError, EvaluationError):
                    self.rejected += 1
            else:
                raise VerifyError("resample cap exceeded")
            if len(self.samples) < 8:
                self.samples.append(_digest(sample))
            for lhs, rhs in pairs:
                self.record(lhs, rhs)

    def finalize(self) -> None:
        """Refuse a run that recorded no comparison or rejected more than
        one draw in twenty."""
        if self.trials == 0:
            raise VerifyError("no comparisons recorded")
        if self.total_draws:
            admitted = self.total_draws - self.rejected
            if admitted / self.total_draws < 0.95:
                raise VerifyError(
                    f"only {admitted} of {self.total_draws} draws admissible")


# ---------------------------------------------------------------------------
# reference implementations (second sides)
#
# No module cache sits in front of them: a draw that forms many reference
# weights owns one memo dict of theta values and passes it down, so each
# value is multiplied out once per draw and goes with the draw.

_REF_EPS = 1e-17
_REF_POLE = 1e-12


def _theta_ref(x, p) -> complex:
    """Direct product evaluation of theta, independent of the library's
    cached implementation.  At p = 0 it is 1 - x for every x, 0 too."""
    x = complex(x)
    p = complex(p)
    if p == 0:
        return 1.0 - x
    if x == 0:
        raise DomainError("theta reference needs x != 0")
    value = 1.0 + 0.0j
    pj = 1.0 + 0.0j
    u, v = pj * x, pj * p / x
    for _ in range(300):
        value *= (1.0 - u) * (1.0 - v)
        pj *= p
        u, v = pj * x, pj * p / x
        if abs(u) < _REF_EPS and abs(v) < _REF_EPS:
            break
    return value


def _guard_ref(value: complex) -> complex:
    if abs(value) < _REF_POLE:
        raise NearPoleError("reference denominator factor near zero")
    return value


def _theta_in(memo: dict, x, p) -> complex:
    # _theta_ref(x, p), looked up in or added to memo: the reference is
    # a function of (x, p) alone, so a repeated argument gives its bits
    key = (x, p)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _theta_ref(x, p)
    return value


def _small_ref(ps: ParameterSet, s: int, t: int, memo: dict | None = None) -> complex:
    """The small weight as a quotient of six direct theta products.  A
    draw that forms many weights passes one memo dict it owns, so each
    theta argument it meets is multiplied out once: in a column s the
    numerator of w(s, t) shares one argument with the denominator of
    w(s, t + 1) and two with that of w(s, t - 2)."""
    if memo is None:
        memo = {}
    a, b, q, p = ps.a, ps.b, ps.q, ps.p
    num = (_theta_in(memo, a * qpow(q, s + 2 * t), p)
           * _theta_in(memo, b * qpow(q, 2 * s + t - 2), p)
           * _theta_in(memo, a * qpow(q, t - s - 1) / b, p))
    den = (_guard_ref(_theta_in(memo, a * qpow(q, s + 2 * t - 2), p))
           * _guard_ref(_theta_in(memo, b * qpow(q, 2 * s + t), p))
           * _guard_ref(_theta_in(memo, a * qpow(q, t - s + 1) / b, p)))
    return num / den * q


def _big_ref(ps: ParameterSet, s: int, t: int, memo: dict | None = None) -> complex:
    """The column product w(s, 1) ... w(s, t) of ``_small_ref``, its
    theta values shared through memo (a fresh dict when None)."""
    if memo is None:
        memo = {}
    value = 1.0 + 0.0j
    for j in range(1, t + 1):
        value *= _small_ref(ps, s, j, memo)
    return value


def _qfac_ref(x, q, n: int) -> complex:
    value = 1.0 + 0.0j
    for i in range(n):
        value *= 1.0 - x * qpow(q, i)
    return value


def _qfac_ref_guarded(x, q, n: int) -> complex:
    value = 1.0 + 0.0j
    for i in range(n):
        value *= _guard_ref(1.0 - x * qpow(q, i))
    return value


def _aq_binom_ref(a, q, n: int, k: int) -> complex:
    if k < 0 or k > n:
        return 0.0 + 0.0j
    m = n - k
    num = _qfac_ref(qpow(q, 1 + k), q, m) * _qfac_ref(a * qpow(q, 1 + k), q, m)
    den = _qfac_ref_guarded(q, q, m) * _qfac_ref_guarded(a * q, q, m)
    return num / den * qpow(q, k * (k - n))


def _full_binom_ref(a, b, q, n: int, k: int) -> complex:
    """Four-factor closed form at p = 0 with b nonzero, raw loops.  At
    a = 0 the factors in a and a/b are 1, which leaves the b;q binomial."""
    m = n - k
    r = a / b
    num = (_qfac_ref(qpow(q, 1 + k), q, m) * _qfac_ref(a * qpow(q, 1 + k), q, m)
           * _qfac_ref(b * qpow(q, 1 + k), q, m)
           * _qfac_ref(r * qpow(q, 1 - k), q, m))
    den = (_qfac_ref_guarded(q, q, m) * _qfac_ref_guarded(a * q, q, m)
           * _qfac_ref_guarded(b * qpow(q, 1 + 2 * k), q, m)
           * _qfac_ref_guarded(r * q, q, m))
    return num / den


# ---------------------------------------------------------------------------
# comparison loops shared by checks of one shape

def _binomial_theorem_pairs(fam, binom, degree: int) -> list:
    # ([x^k y^(n-k)] (x + y)^n under fam, binom(n, k)) for k <= n <= degree
    powers = power_sum_values(degree, fam)
    return [(powers[n][(k, n - k)], binom(n, k))
            for n in range(degree + 1) for k in range(n + 1)]


def _cauchy_pairs(fam, c, q, degree: int, raw) -> list:
    # (exp_coeff_bq(c, q, k + m) [x^k y^m] (x + y)^(k+m) under fam, raw(k, m))
    powers = power_sum_values(degree, fam)
    pairs = []
    for total in range(degree + 1):
        coeff = exp_coeff_bq(c, q, total)
        for k in range(total + 1):
            pairs.append((coeff * powers[total][(k, total - k)], raw(k, total - k)))
    return pairs


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict = {}


def _check(check_id, description, kind, default_sizes, tolerance,
           lhs_path, rhs_path, order_key):
    """Register the decorated function as the runner of check_id: a draw
    function for a numeric-sampled check, a function that records its
    own comparisons for an exact-symbolic one."""
    def register(runner):
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id!r}")
        _REGISTRY[check_id] = IdentityCheck(
            id=check_id, description=description, kind=kind,
            default_sizes=default_sizes, tolerance=tolerance,
            lhs_path=tuple(lhs_path), rhs_path=tuple(rhs_path),
            order_key=order_key, runner=runner)
        return runner
    return register


# ---------------------------------------------------------------------------
# checks, in registry order

@_check("theta-inversion",
        "theta(x) equals -x theta(1/x) for the modified theta product",
        "numeric-sampled", {"draws": 400}, 1e-10,
        ["special_fn:theta"], ["verify:_theta_ref"], "draws")
def _draw_theta_inversion(ctx: CheckContext):
    x = ctx.annulus(0.2, 2.0)
    p = ctx.draw_p()
    return (x, p), [(theta(x, p), -x * _theta_ref(1.0 / x, p))]


@_check("theta-quasiperiod",
        "theta(p x) equals -theta(x)/x under a nome shift of the argument",
        "numeric-sampled", {"draws": 400}, 1e-10,
        ["special_fn:theta"], ["verify:_theta_ref"], "draws")
def _draw_theta_quasiperiod(ctx: CheckContext):
    x = ctx.annulus(0.2, 2.0)
    p = ctx.draw_p()
    return (x, p), [(theta(p * x, p), -_theta_ref(x, p) / x)]


@_check("theta-addition",
        "four-term theta addition rule linking two quadruple products",
        "numeric-sampled", {"draws": 400}, 1e-10,
        ["special_fn:theta"], ["verify:_theta_ref"], "draws")
def _draw_theta_addition(ctx: CheckContext):
    x = ctx.annulus(0.2, 2.0)
    y = ctx.annulus(0.2, 2.0)
    u = ctx.annulus(0.2, 2.0)
    v = ctx.annulus(0.2, 2.0)
    p = ctx.draw_p()
    first = (theta(x * y, p) * theta(x / y, p)
             * theta(u * v, p) * theta(u / v, p))
    second = (theta(x * v, p) * theta(x / v, p)
              * theta(u * y, p) * theta(u / y, p))
    rhs = (u / y) * (_theta_ref(y * v, p) * _theta_ref(y / v, p)
                     * _theta_ref(x * u, p) * _theta_ref(x / u, p))
    if abs(rhs) < 1e-4 * max(abs(first), abs(second)):
        raise NearPoleError("cancellation-dominated sample")
    return (x, y, u, v, p), [(first - second, rhs)]


@_check("weight-shift",
        "small and big weights at shifted column index equal weights at "
        "shifted parameters; both are invariant under scaling a, b by the nome",
        "numeric-sampled", {"draws": 40}, 1e-7,
        ["special_fn:EllipticWeights.small", "special_fn:EllipticWeights.big"],
        ["verify:_small_ref", "verify:_big_ref"], "draws")
def _draw_weight_shift(ctx: CheckContext):
    ps = ctx.draw_ps()
    s = ctx.rng.randint(1, 3)
    k = ctx.rng.randint(1, 3)
    n = ctx.rng.randint(1, 3)
    t = ctx.rng.randint(1, 3)
    fam = EllipticWeights(ps)
    shifted = ps.shift(2 * k, k)
    memo: dict = {}  # this draw's reference theta values
    pairs = [
        (fam.small(s, k + n), _small_ref(shifted, s, n, memo)),
        (fam.big(s, k + n), _big_ref(ps, s, k, memo) * _big_ref(shifted, s, n, memo)),
        (fam.small(s, t),
         _small_ref(ParameterSet(ps.p * ps.a, ps.p * ps.b, ps.q, ps.p), s, t, memo)),
    ]
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("bigweight-closed-vs-product",
        "closed theta form of the big weight equals the column product of "
        "small weights",
        "numeric-sampled", {"draws": 40}, 1e-7,
        ["special_fn:EllipticWeights.big"],
        ["verify:_small_ref", "verify:_theta_ref"], "draws")
def _draw_bigweight_closed(ctx: CheckContext):
    ps = ctx.draw_ps()
    fam = EllipticWeights(ps)
    memo: dict = {}  # this draw's reference theta values
    pairs = []
    for s in range(1, 4):
        # _big_ref(ps, s, t), carried from t - 1: the same products in
        # the same order, each small weight computed once per column
        ref = 1.0 + 0.0j
        for t in range(0, 6):
            closed = fam.big(s, t)
            if t:
                ref *= _small_ref(ps, s, t, memo)
            pairs.append((closed, ref))
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("binom-recursion-closed",
        "closed theta-factorial form of the weighted binomial equals the "
        "Pascal-type triangle recursion",
        "numeric-sampled", {"draws": 15, "n": 8}, 1e-7,
        ["special_fn:EllipticWeights.binom"],
        ["special_fn:path_binom", "special_fn:EllipticWeights._column"], "n")
def _draw_binom_recursion_closed(ctx: CheckContext):
    n = ctx.size("n")
    ps = ctx.draw_ps()
    fam = EllipticWeights(ps)
    pairs = [(fam.binom(n, k), path_binom(n, k, fam)) for k in range(n + 1)]
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("binom-limit-chain",
        "weighted binomial degenerates exactly through p = 0, then a = 0, "
        "then b = 0 down to the classical q-binomial; the a != 0, b = 0 "
        "order is rejected",
        "numeric-sampled", {"draws": 60, "n": 6}, 1e-8,
        ["special_fn:EllipticWeights.binom"],
        ["verify:_full_binom_ref", "special_fn:q_binomial"],
        "n")
def _draw_binom_limit_chain(ctx: CheckContext):
    a = ctx.draw_ab()
    b = ctx.draw_ab()
    q = ctx.draw_q()
    n = ctx.rng.randint(0, ctx.size("n"))
    k = ctx.rng.randint(0, n)
    pairs = [
        (EllipticWeights(ParameterSet(a, b, q, 0.0)).binom(n, k),
         _full_binom_ref(a, b, q, n, k)),
        (EllipticWeights(ParameterSet(0.0, b, q, 0.0)).binom(n, k),
         _full_binom_ref(0.0, b, q, n, k)),
        (EllipticWeights(ParameterSet(0.0, 0.0, q, 0.0)).binom(n, k),
         q_binomial(n, k, q)),
    ]
    try:
        EllipticWeights(ParameterSet(a, 0.0, q, 0.0)).binom(2, 1)
        rejected = False
    except DomainError:
        rejected = True
    pairs.append((rejected, True))
    return (a, b, q), pairs


@_check("aq-symmetry",
        "one-parameter a-weighted binomial is symmetric under k -> n - k",
        "numeric-sampled", {"draws": 30, "n": 8}, 1e-8,
        ["special_fn:AQWeights.binom"], ["verify:_aq_binom_ref"], "n")
def _draw_aq_symmetry(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()
    fam = AQWeights(a, q)
    n = ctx.rng.randint(0, ctx.size("n"))
    pairs = [(fam.binom(n, k), _aq_binom_ref(a, q, n, n - k))
             for k in range(n + 1)]
    return (a, q), pairs


@_check("aq-recurrences",
        "both contiguous recurrences of the a-weighted binomial triangle",
        "numeric-sampled", {"draws": 25, "n": 7}, 1e-8,
        ["special_fn:AQWeights.binom"], ["verify:_aq_binom_ref"], "n")
def _draw_aq_recurrences(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()
    fam = AQWeights(a, q)
    n = ctx.rng.randint(1, ctx.size("n"))
    pairs = []
    for k in range(1, n + 1):
        lhs = fam.binom(n + 1, k)
        ratio1 = ((1.0 - a * qpow(q, 2 * n + 2 - k))
                  / _guard_ref(1.0 - a * qpow(q, k)))
        rec1 = (_aq_binom_ref(a, q, n, k)
                + ratio1 * qpow(q, k - n - 1) * _aq_binom_ref(a, q, n, k - 1))
        ratio2 = ((1.0 - a * qpow(q, n + 1 + k))
                  / _guard_ref(1.0 - a * qpow(q, n + 1 - k)))
        rec2 = (ratio2 * qpow(q, -k) * _aq_binom_ref(a, q, n, k)
                + _aq_binom_ref(a, q, n, k - 1))
        pairs.append((lhs, rec1))
        pairs.append((lhs, rec2))
    return (a, q), pairs


@_check("wdep-binomial-thm",
        "symbolic binomial theorem: normal ordering (x + y)^n equals the "
        "triangle-recursion binomials times x^k y^(n-k), exactly",
        "exact-symbolic", {"n": 8}, 0.0,
        ["ncword:_append"], ["special_fn:WeightFamily.binom"], "n")
def _run_wdep_binomial(ctx: CheckContext) -> None:
    # (x + y)^n from (x + y)^(n-1) by appending x + y, the step of
    # expand_power_sum, so each power is built once
    lhs = NormalForm.unit()
    for n in range(0, ctx.size("n") + 1):
        if n:
            lhs = _append(lhs, "x", _HOM) + _append(lhs, "y", _HOM)
        rhs = NormalForm({(k, n - k): _GENERIC.binom(n, k) for k in range(n + 1)})
        ctx.record(lhs, rhs)


@_check("elliptic-binomial-thm",
        "theta-weighted binomial theorem: rewriting coefficients of "
        "(x + y)^n match the closed theta-factorial binomials",
        "numeric-sampled", {"draws": 10, "n": 8}, 1e-7,
        ["ncword:power_sum_values", "special_fn:EllipticWeights.small"],
        ["special_fn:EllipticWeights.binom"], "n")
def _draw_elliptic_binomial(ctx: CheckContext):
    ps = ctx.draw_ps()
    fam = EllipticWeights(ps)
    return (ps.a, ps.b, ps.q, ps.p), _binomial_theorem_pairs(fam, fam.binom, ctx.size("n"))


@_check("prop-product-expansion",
        "ordered product of linear skew factors (1 - W(1,k) c x) expands "
        "into theta-factorial coefficients",
        "numeric-sampled", {"draws": 12, "n": 4}, 1e-7,
        ["skewpoly:product_expand", "skewpoly:skew_mul"],
        ["special_fn:EllipticWeights.binom", "special_fn:qp_factorial"], "n")
def _draw_prop_product_expansion(ctx: CheckContext):
    ps = ctx.draw_ps()
    c = ctx.draw_ab()
    n = ctx.rng.randint(1, ctx.size("n"))
    factors = []
    for k in range(n):
        def coeff(a, b, _k=k, _ps=ps, _c=c):
            fam = EllipticWeights(ParameterSet(a, b, _ps.q, _ps.p))
            return -_c * fam.big(1, _k)
        factors.append(SkewPoly({0: 1.0, 1: coeff}, ps.q))
    lhs = product_expand(factors, "right-to-left", ps.q).evaluate(ps)
    fam = EllipticWeights(ps)
    a, b, q, p = ps.a, ps.b, ps.q, ps.p
    pairs = []
    for k in range(n + 1):
        rhs = ((-c) ** k * qpow(q, k * (k - 1) // 2) * fam.binom(n, k)
               * qp_factorial(a * qpow(q, n), q, p, k)
               / qp_factorial(a * qpow(q, n - k + 1), q, p, k)
               * qp_factorial(b * q, q, p, k)
               / qp_factorial(b * qpow(q, k), q, p, k)
               * qp_factorial(a / b, 1.0 / q, p, k)
               * qp_factorial(a * q / b, q, p, n - k)
               / qp_factorial(a * qpow(q, n - 1) / b, 1.0 / q, p, k)
               / qp_factorial(a * qpow(q, 1 - k) / b, q, p, n - k))
        pairs.append((lhs.get(k, 0.0 + 0.0j), rhs))
    return (ps.a, ps.b, ps.q, ps.p, c), pairs


@_check("bq-binomial-thm",
        "b-weighted binomial theorem via rewriting versus raw factorial "
        "quotients",
        "numeric-sampled", {"draws": 20, "n": 8}, 1e-8,
        ["ncword:power_sum_values", "special_fn:BQWeights.small"],
        ["verify:_full_binom_ref"], "n")
def _draw_bq_binomial(ctx: CheckContext):
    b = ctx.draw_ab()
    q = ctx.draw_q()
    return (b, q), _binomial_theorem_pairs(
        BQWeights(b, q), lambda n, k: _full_binom_ref(0.0, b, q, n, k), ctx.size("n"))


@_check("aq-binomial-thm",
        "a-weighted binomial theorem via rewriting versus raw factorial "
        "quotients",
        "numeric-sampled", {"draws": 15, "n": 8}, 1e-8,
        ["ncword:power_sum_values", "special_fn:AQWeights.small"],
        ["verify:_aq_binom_ref"], "n")
def _draw_aq_binomial(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()
    return (a, q), _binomial_theorem_pairs(
        AQWeights(a, q), lambda n, k: _aq_binom_ref(a, q, n, k), ctx.size("n"))


@_check("bq-reversal",
        "reversed monomial y^k x^l normal-orders to the closed reversal "
        "coefficient's reciprocal",
        "numeric-sampled", {"draws": 20, "max_power": 4}, 1e-8,
        ["ncword:normal_order", "special_fn:BQWeights.small"],
        ["special_fn:reversal_coeff_bq"], "max_power")
def _draw_bq_reversal(ctx: CheckContext):
    cap = ctx.size("max_power")
    b = ctx.draw_ab()
    q = ctx.draw_q()
    fam = BQWeights(b, q)
    pairs = []
    for l in range(1, cap + 1):
        for k in range(1, cap + 1):
            word = "y" * k + "x" * l
            gamma = normal_order(word, _HOM).evaluate(fam)[(l, k)]
            pairs.append((gamma * reversal_coeff_bq(b, q, l, k), 1.0 + 0.0j))
    return (b, q), pairs


def _choice_coeff_ref(b, q, k: int) -> complex:
    """(b q^2; 1/q)_k / (b; 1/q)_k by raw loops."""
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    for i in range(k):
        num *= 1.0 - b * qpow(q, 2 - i)
        den *= _guard_ref(1.0 - b * qpow(q, -i))
    return num / den


def _bq_finite_lhs(n: int, b, q) -> dict:
    """Expand prod_k (b y + c_k x) left-to-right in the algebra where the
    parameter crosses letters as x f(b) = f(b q^2) x and y f(b) = f(b q) y.
    Extracting all parameter powers to the front leaves plain xy-words,
    which the rewriting engine normal-orders with the one-parameter
    weights.  Returns coefficients on x^k y^(n-k) (the b^(n-k) power is
    implicit in the key)."""
    fam = BQWeights(b, q)
    totals: dict = {}
    for mask in range(1 << n):
        xs = 0
        ys = 0
        scalar = 1.0 + 0.0j
        letters = []
        for slot in range(n):
            crossing = 2 * xs + ys
            if (mask >> slot) & 1:
                scalar *= _choice_coeff_ref(b * qpow(q, crossing), q, slot)
                letters.append("x")
                xs += 1
            else:
                scalar *= qpow(q, crossing)
                letters.append("y")
                ys += 1
        word = "".join(letters)
        if word:
            gamma = normal_order(word, _HOM).evaluate(fam)[(xs, ys)]
        else:
            gamma = 1.0 + 0.0j
        totals[xs] = totals.get(xs, 0.0 + 0.0j) + scalar * gamma
    return totals


@_check("bq-finite-product",
        "finite ordered product of (b y + c_k x) expands into b-weighted "
        "binomials with factorial corrections",
        "numeric-sampled", {"draws": 10, "n": 6}, 1e-8,
        ["verify:_bq_finite_lhs", "ncword:normal_order"],
        ["special_fn:BQWeights.binom", "verify:_qfac_ref"], "n")
def _draw_bq_finite_product(ctx: CheckContext):
    b = ctx.draw_ab()
    q = ctx.draw_q()
    n = ctx.rng.randint(1, ctx.size("n"))
    lhs = _bq_finite_lhs(n, b, q)
    fam = BQWeights(b, q)
    pairs = []
    for k in range(n + 1):
        rhs = (fam.binom(n, k)
               * _qfac_ref(b * qpow(q, k + 2), q, n - 1)
               / _qfac_ref_guarded(b * q * q, q, n - 1)
               * qpow(q, k * (k - n))
               * qpow(q, (n - k) * (n - k - 1) // 2)
               * qpow(q, 2 * k * (n - k)))
        pairs.append((lhs.get(k, 0.0 + 0.0j), rhs))
    return (b, q), pairs


@_check("bq-cauchy",
        "b-weighted exponential of x + y factors as the ordered product of "
        "exponentials in x and y",
        "numeric-sampled", {"draws": 10, "degree": 8}, 1e-9,
        ["special_fn:exp_coeff_bq", "ncword:power_sum_values"],
        ["verify:_qfac_ref_guarded"], "degree")
def _draw_bq_cauchy(ctx: CheckContext):
    b = ctx.draw_ab()
    q = ctx.draw_q()

    def raw(k, m):
        return (1.0 / (_qfac_ref_guarded(q, q, k) * _qfac_ref_guarded(b * q, q, k))
                / (_qfac_ref_guarded(q, q, m) * _qfac_ref_guarded(b * qpow(q, 2 * k) * q, q, m)))

    return (b, q), _cauchy_pairs(BQWeights(b, q), b, q, ctx.size("degree"), raw)


@_check("aq-cauchy",
        "a-weighted exponential of x + y factors as the reversed product of "
        "exponentials in y and x",
        "numeric-sampled", {"draws": 10, "degree": 8}, 1e-9,
        ["special_fn:exp_coeff_bq", "ncword:power_sum_values"],
        ["verify:_qfac_ref"], "degree")
def _draw_aq_cauchy(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()

    def raw(k, m):
        # reversal scalar for y^m x^k -> x^k y^m, raw form
        rev = (_qfac_ref(a * qpow(q, 1 + k), q, 2 * m) / _qfac_ref_guarded(a * q, q, 2 * m)
               * qpow(q, -k * m))
        return (1.0 / (_qfac_ref_guarded(q, q, m) * _qfac_ref_guarded(a * q, q, m))
                / (_qfac_ref_guarded(q, q, k) * _qfac_ref_guarded(a * qpow(q, 2 * m) * q, q, k))
                * rev)

    return (a, q), _cauchy_pairs(AQWeights(a, q), a, q, ctx.size("degree"), raw)


@_check("qexp-cauchy",
        "q-exponential addition rule on the q-commuting plane",
        "numeric-sampled", {"draws": 15, "degree": 8}, 1e-9,
        ["verify:_qfac_ref_guarded"],
        ["special_fn:exp_coeff_bq", "ncword:power_sum_values"], "degree")
def _draw_qexp_cauchy(ctx: CheckContext):
    q = ctx.draw_q()

    def raw(k, m):
        return 1.0 / (_qfac_ref_guarded(q, q, k) * _qfac_ref_guarded(q, q, m))

    return (q,), _cauchy_pairs(QWeights(q), 0, q, ctx.size("degree"), raw)


@_check("qexp-braiding",
        "reversing two q-exponentials inserts the exponential of -xy",
        "numeric-sampled", {"draws": 10, "degree": 8}, 1e-9,
        ["verify:_qfac_ref_guarded"],
        ["special_fn:exp_coeff_bq", "ncword:normal_order"], "degree")
def _draw_qexp_braiding(ctx: CheckContext):
    degree = ctx.size("degree")
    # the compared coefficient carries q^(K M) while the alternating
    # sum's terms stay O(1), so conditioning degrades like |q|^(-K M);
    # keep the modulus floor high enough for the degree cap
    lo = max(0.3, min(0.85, 10.0 ** (-16.0 / (degree * degree))))
    q = ctx.annulus(lo, 0.9)
    fam = QWeights(q)
    gammas = []
    for j in range(degree // 2 + 1):
        word = "xy" * j
        if word:
            gammas.append(normal_order(word, _HOM).evaluate(fam)[(j, j)])
        else:
            gammas.append(1.0 + 0.0j)
    coeffs = [exp_coeff_bq(0, q, n) for n in range(degree + 1)]
    pairs = []
    for total in range(0, degree + 1):
        for big_k in range(total + 1):
            big_m = total - big_k
            lhs = (qpow(q, big_k * big_m)
                   / (_qfac_ref_guarded(q, q, big_m)
                      * _qfac_ref_guarded(q, q, big_k)))
            rhs = 0.0 + 0.0j
            spread = 0.0
            for j in range(0, min(big_k, big_m) + 1):
                term = ((-1.0) ** j * coeffs[big_k - j] * coeffs[j] * gammas[j]
                        * coeffs[big_m - j])
                rhs += term
                spread += abs(term)
            if spread > 1e5 * abs(rhs):
                raise NearPoleError("cancellation-dominated sample")
            pairs.append((lhs, rhs))
    return (q,), pairs


@_check("f-relations",
        "coefficientwise contiguous relations of the double-factorial series "
        "F, including the combined two-step form",
        "numeric-sampled", {"draws": 15, "degree": 12}, 1e-9,
        ["special_fn:exp_coeff_bq"], ["skewpoly:f_relation_sides:rhs"], "degree")
def _draw_f_relations(ctx: CheckContext):
    b = ctx.draw_ab()
    q = ctx.draw_q()
    pairs = []
    for n in range(1, ctx.size("degree") + 1):
        for _name, (lhs, rhs) in sorted(f_relation_sides(b, q, n).items()):
            pairs.append((lhs, rhs))
    return (b, q), pairs


@_check("pincherle",
        "commutator of D^k with multiplication by x acts as a theta scalar "
        "times D^(k-1) eta",
        "numeric-sampled", {"draws": 20, "k": 5, "n": 8}, 1e-7,
        ["skewpoly:apply_D", "skewpoly:x_mul"],
        ["skewpoly:apply_eta", "skewpoly:pincherle_coeff"], "n")
def _draw_pincherle(ctx: CheckContext):
    # pincherle_residuals already returns relative residuals, so each
    # pair has no right side and records its left side as the residual
    ps = ctx.draw_ps()
    residuals = pincherle_residuals(
        [(k, n) for k in range(1, ctx.size("k") + 1)
         for n in range(0, ctx.size("n") + 1)], ps)
    return (ps.a, ps.b, ps.q, ps.p), [(r, None) for r in residuals.values()]


@_check("pincherle-k",
        "explicit theta form of the commutator scalar equals the z-bracket "
        "at swapped shifted parameters",
        "numeric-sampled", {"draws": 25, "k": 8}, 1e-8,
        ["skewpoly:pincherle_coeff"],
        ["skewpoly:pincherle_coeff_bracket", "special_fn:bracket_z"], "k")
def _draw_pincherle_k(ctx: CheckContext):
    ps = ctx.draw_ps()
    pairs = [(pincherle_coeff(k, ps), pincherle_coeff_bracket(k, ps))
             for k in range(1, ctx.size("k") + 1)]
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("fib-genfun",
        "generating-function expansion of (1 - x - x^2 eta)^-1 x reproduces "
        "the two-term theta Fibonacci recursion",
        "numeric-sampled", {"draws": 2, "degree": 12}, 1e-8,
        ["skewpoly:genfun_expand", "skewpoly:apply_eta"],
        ["skewpoly:fib_elliptic"], "degree")
def _draw_fib_genfun(ctx: CheckContext):
    degree = ctx.size("degree")
    ps = ctx.draw_ps()
    coeffs = genfun_expand(degree, ps)
    pairs = [(coeffs[n - 1], fib_elliptic(n, ps))
             for n in range(1, degree + 1)]
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("fib-aq-closed",
        "one-parameter Fibonacci recursion equals its closed single-sum form",
        "numeric-sampled", {"draws": 12, "n": 15}, 1e-8,
        ["skewpoly:fib_aq", "skewpoly:fib_elliptic"],
        ["skewpoly:fib_aq_closed"], "n")
def _draw_fib_aq_closed(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()
    pairs = [(fib_aq(n, a, q), fib_aq_closed(n, a, q))
             for n in range(0, ctx.size("n") + 1)]
    return (a, q), pairs


@_check("lemma-xeta-power",
        "powers of x + x^2 eta applied to x expand with q-binomial "
        "coefficients and linear factors",
        "numeric-sampled", {"draws": 8, "n": 8}, 1e-8,
        ["skewpoly:apply_eta", "skewpoly:x_mul"],
        ["special_fn:q_binomial", "verify:raw-linear-factors"], "n")
def _draw_lemma_xeta_power(ctx: CheckContext):
    a = ctx.draw_ab()
    q = ctx.draw_q()
    psq = ParameterSet(a, 0.0, q, 0.0)
    terms = [SkewPoly.x_power(1, q)]
    for _ in range(ctx.size("n")):
        terms.append(x_mul(terms[-1]) + x_mul(apply_eta(terms[-1], psq), 2))
    pairs = []
    for n, values in enumerate(evaluate_together(terms, psq)):
        for j in range(0, n + 1):
            num = ((1.0 - a * qpow(q, n + j + 2))
                   * (1.0 - a * qpow(q, n + j + 3))) ** j
            den = 1.0 + 0.0j
            for i in range(j):
                den *= _guard_ref(1.0 - a * qpow(q, 3 + i))
                den *= _guard_ref(1.0 - a * qpow(q, n + 3 + i))
            rhs = qpow(q, -n * j) * q_binomial(n, j, q) * num / den
            pairs.append((values.get(n + j + 1, 0.0 + 0.0j), rhs))
    return (a, q), pairs


def _board_numbers(sweeps: dict, poly, word: str) -> tuple:
    """(m, n, [p_0, ..., p_m]) for the board of a word with m x's and n
    y's, from ``poly`` at the generic weights.  ``sweeps`` is one run's
    dict keyed by the board's heights: words that differ only in trailing
    y's outline one board (the 510 exhaustive words of length at most 8
    have 256 boards), so each board is swept once per run."""
    board = board_from_word(word)
    numbers = sweeps.get(board.heights)
    if numbers is None:
        numbers = sweeps[board.heights] = poly(board, len(board.heights), _GENERIC,
                                               every=True)
    return word.count("x"), word.count("y"), numbers


def _expected_rook_form(sweeps: dict, word: str) -> NormalForm:
    # no placement has more than min(m, n) rooks; the rest are zeros
    m, n, rook = _board_numbers(sweeps, rook_poly, word)
    return NormalForm({(m - k, n - k): rook[k] for k in range(min(m, n) + 1)})


def _expected_file_form(sweeps: dict, word: str) -> NormalForm:
    m, n, files = _board_numbers(sweeps, file_poly, word)
    return NormalForm({(m - k, n): f for k, f in enumerate(files)})


def _normalorder(ctx: CheckContext, rs: RelationSystem, expected) -> None:
    """Every word up to length size("exhaustive"), then size("random")
    words longer than that and at most size("max_len") long."""
    exhaustive = ctx.size("exhaustive")
    max_len = ctx.size("max_len")
    if exhaustive >= max_len:
        raise VerifyError(
            f"exhaustive length {exhaustive} (the order) must be below "
            f"max_len {max_len}, the longest random word")

    # depth first by prepending letters: the form of letter + suffix is
    # normal_order's own step applied to the form of the suffix, which was
    # built and checked one level up; the stack holds (letter, suffix,
    # form of suffix) with x above y, so x + suffix and all its extensions
    # come before y + suffix
    unit = NormalForm.unit()
    stack = [("y", "", unit), ("x", "", unit)] if exhaustive > 0 else []
    while stack:
        letter, suffix, form = stack.pop()
        word = letter + suffix
        word_form = _prepend(letter, form, rs)
        ctx.record(word_form, expected(word))
        if len(word) < exhaustive:
            stack += (("y", word, word_form), ("x", word, word_form))
    for _ in range(ctx.size("random")):
        length = ctx.rng.randint(exhaustive + 1, max_len)
        word = "".join(ctx.rng.choice("xy") for _ in range(length))
        ctx.record(normal_order(word, rs), expected(word))


@_check("normalorder-rook",
        "normal ordering in the weighted Weyl algebra equals the rook "
        "numbers of the word's board from the column sweep (rook_poly), "
        "symbolically exact",
        "exact-symbolic", {"exhaustive": 8, "random": 60, "max_len": 12}, 0.0,
        ["ncword:normal_order", "ncword:_prepend"], ["boards:rook_poly"], "exhaustive")
def _run_normalorder_rook(ctx: CheckContext) -> None:
    _normalorder(ctx, _WEYL, partial(_expected_rook_form, {}))


@_check("normalorder-file",
        "normal ordering in the weighted file algebra equals the file "
        "numbers of the word's board from the column sweep (file_poly), "
        "symbolically exact",
        "exact-symbolic", {"exhaustive": 8, "random": 60, "max_len": 12}, 0.0,
        ["ncword:normal_order", "ncword:_prepend"], ["boards:file_poly"], "exhaustive")
def _run_normalorder_file(ctx: CheckContext) -> None:
    _normalorder(ctx, _FILE, partial(_expected_file_form, {}))


@_check("rook-product",
        "product of z-brackets over board columns equals the rook-number "
        "expansion in falling brackets; the left side is conjugation-invariant",
        "numeric-sampled", {"draws": 6, "boards": 8, "zmax": 4}, 1e-7,
        ["boards:rook_product_lhs"],
        ["boards:rook_poly", "boards:rook_product_sides:rhs"], "zmax")
def _draw_rook_product(ctx: CheckContext):
    ps = ctx.draw_ps()
    pairs = []
    for board in ctx.rng.sample(all_boards_within(4), ctx.size("boards")):
        z = ctx.rng.randint(0, ctx.size("zmax"))
        lhs, rhs = rook_product_sides(board, z, ps)
        pairs.append((lhs, rhs))
        pairs.append((lhs, rook_product_lhs(board.conjugate(), z, ps)))
    return (ps.a, ps.b, ps.q, ps.p), pairs


@_check("file-product",
        "product of shifted z-brackets over board columns equals the "
        "file-number expansion in powers of the z-bracket",
        "numeric-sampled", {"draws": 6, "boards": 8, "zmax": 4}, 1e-7,
        ["boards:file_product_sides:lhs"],
        ["boards:file_poly", "boards:file_product_sides:rhs"], "zmax")
def _draw_file_product(ctx: CheckContext):
    ps = ctx.draw_ps()
    pairs = []
    for board in ctx.rng.sample(all_boards_within(4), ctx.size("boards")):
        z = ctx.rng.randint(0, ctx.size("zmax"))
        pairs.append(file_product_sides(board, z, ps))
    return (ps.a, ps.b, ps.q, ps.p), pairs


_GR_FROZEN = (1.0, 2.0, 3.0, 2.0, 1.0)


@_check("gr-q-degeneration",
        "at a = b = 0, p = 0 the product formulas collapse to the classical "
        "q-analogue with bracket factorials, including the frozen "
        "two-column example",
        "numeric-sampled", {"draws": 30, "boards": 6}, 1e-9,
        ["boards:rook_product_sides", "boards:file_product_sides"],
        ["verify:raw-q-brackets"], "draws")
def _draw_gr_degeneration(ctx: CheckContext):
    q = ctx.draw_q()
    ps0 = ParameterSet(0.0, 0.0, q, 0.0)
    pairs = []
    frozen = sum(c * qpow(q, i) for i, c in enumerate(_GR_FROZEN))
    lhs, rhs = rook_product_sides(FerrersBoard((1, 2)), 2, ps0)
    pairs.append((lhs, frozen))
    pairs.append((rhs, frozen))
    z = ctx.rng.randint(0, 3)
    pairs.append((bracket_z(ps0, z),
                  (1.0 - qpow(q, z)) / _guard_ref(1.0 - q)))
    for board in ctx.rng.sample(all_boards_within(3), ctx.size("boards")):
        zz = ctx.rng.randint(0, 3)
        lhs, rhs = rook_product_sides(board, zz, ps0)
        gr = 1.0 + 0.0j
        for i, h in enumerate(board.heights, start=1):
            e = zz + h - i + 1
            gr *= (1.0 - qpow(q, e)) / _guard_ref(1.0 - q)
        pairs.append((lhs, gr))
        pairs.append((rhs, gr))
        flhs, frhs = file_product_sides(board, zz, ps0)
        pairs.append((flhs, frhs))
    return (q,), pairs


@_check("chebyshev-weight",
        "on the unit circle the a-weight becomes a ratio of sines, the "
        "Chebyshev-type specialisation",
        "numeric-sampled", {"draws": 50}, 1e-8,
        ["special_fn:AQWeights.small"], ["verify:sine-ratio"], "draws")
def _draw_chebyshev_weight(ctx: CheckContext):
    x = ctx.rng.uniform(0.15, 0.7)
    alpha = ctx.rng.uniform(0.2, 1.4)
    s = ctx.rng.randint(1, 3)
    t = ctx.rng.randint(1, 4)
    den = math.sin((alpha + s / 2 + t) * x)
    if abs(den) < 1e-3:
        raise NearPoleError("sine denominator near zero")
    q = cmath.exp(1j * x)
    a = cmath.exp(2j * (alpha + 1.0) * x)
    lhs = AQWeights(a, q).small(s, t)
    rhs = math.sin((alpha + s / 2 + t + 1) * x) / den
    return (complex(x), complex(alpha)), [(lhs, rhs)]


# ---------------------------------------------------------------------------
# running

def list_identities() -> list:
    """The full registry, in registration order."""
    return list(_REGISTRY.values())


def run_check(check_id: str, seed: int = 0, sizes: dict | None = None,
              tolerance: float | None = None) -> CheckReport:
    """Run one registered check; deterministic given (id, seed, sizes).

    The override key "order" retargets the check's primary size knob;
    any other key must be one of the check's ``default_sizes``.  Raises
    KeyError for unknown ids, and VerifyError for an undeclared size key
    or a size that is not an integer, when sampling cannot produce enough
    admissible draws, or when the run records no comparison.
    """
    check = _REGISTRY[check_id]
    effective = dict(check.default_sizes)
    if sizes:
        for key, value in sizes.items():
            if key != "order" and key not in check.default_sizes:
                raise VerifyError(
                    f"{check_id} has no size {key!r}; its sizes are "
                    f"{sorted(check.default_sizes)} and 'order'")
            # a float or a string is refused, never truncated to a
            # neighbouring size
            try:
                value = operator.index(value)
            except TypeError:
                raise VerifyError(f"{check_id} size {key!r} must be an integer, "
                                  f"got {value!r}") from None
            effective[check.order_key if key == "order" else key] = value
    tol = check.tolerance if tolerance is None else float(tolerance)
    ctx = CheckContext(random.Random(f"{seed}:{check_id}"), effective, tol)
    started = time.perf_counter()
    if check.kind == "numeric-sampled":
        ctx.run(check.runner)
    else:
        check.runner(ctx)
    ctx.finalize()
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return CheckReport(
        id=check_id, trials=ctx.trials, failures=ctx.failures,
        max_rel_err=ctx.max_rel_err, seed=seed, elapsed_ms=elapsed_ms,
        passed=(ctx.failures == 0 and ctx.max_rel_err <= tol),
        samples=tuple(ctx.samples))


def run_all(seed: int = 0) -> list:
    """Run every registered check at default sizes."""
    return [run_check(check_id, seed) for check_id in _REGISTRY]
