"""Skew polynomials in one variable x that shifts parameters, and the
operators built on them.

Elements are finite sums  sum_k c_k(a, b) x^k  where the coefficients
are functions of the parameters and the variable obeys the skew rule

    x f(a, b) = f(a q, b q^2) x;

the one-parameter a;q setting is its case b = 0, p = 0.  Coefficients
are kept as plain data: constants, leaves, and shifts, products and
sums of these.  Evaluation at a parameter point computes each node once
per offset (i, j), its value at (a q^i, b q^j), so subterms shared by
many coefficients cost nothing extra; equality of coefficients is
always decided numerically at sampled parameters.  Every leaf is called
with the unshifted (a, b) and the exact offsets (i, j).  An operator
factor forms each theta argument from its whole exponent, a q^(i+k) as
``a * pw[i + k]`` with ``pw = _q_powers(q)``, the power table of q (the
argument rule of ``special_fn``), so it finds the theta values that
``fib_elliptic`` and the weights cache for the same argument.  The D
factor is the elliptic number [n] at (a q^i, b q^(j+n-2)), so it is
``bracket_z`` with those offsets and writes no theta argument of its
own.  A user callable (a, b) -> complex is a leaf that receives the
shifted point (a q^i, b q^j).
``evaluate_together`` evaluates a list of polynomials under one memo
(``SkewPoly.evaluate`` is its one-polynomial case), and its memo dies
with its call: the recursion is a module-level function, not a closure
that refers to itself, so the memo, the node trees and the leaf
callables it keys form no reference cycle and are freed when the call
returns.  The Pincherle residuals keep their operator chains, C_k and
one memo per side in a state per parameter point that outlives the call
(``special_fn._pincherle_states``, a bounded cache of plain dicts), so
the calls for many pairs at one point share that work, and the two
sides still never share a value.

On top of the arithmetic sit the lowering operator D and the diagonal
operator eta, their Pincherle-type commutation identity, the theta
Fibonacci recursion with its generating-function expansion, and the
finite skew products used by the product-expansion identities.
"""

from __future__ import annotations

import operator

from . import special_fn
from .special_fn import (
    DomainError,
    ParameterSet,
    _q_powers,
    _ratio,
    bracket_z,
    exp_coeff_bq,
    guarded,
    q_binomial,
    qpow,
    require_finite,
    theta_quotient,
)

__all__ = [
    "SkewPoly", "x_mul", "skew_mul", "apply_D", "apply_eta",
    "evaluate_together", "pincherle_coeff", "pincherle_coeff_bracket",
    "pincherle_residuals", "pincherle_check",
    "fib_elliptic", "fib_aq", "fib_aq_closed", "genfun_expand",
    "product_expand", "f_relation_sides",
]


# A coefficient is plain data, one of these nodes:
#   complex                   a constant;
#   tuple (fn, *args)         a leaf fn(a, b, i, j, *args), given the
#                             unshifted (a, b) and the offsets (i, j);
#   _Shift, _Product, _Sum    a shift by (u, v), a product, a sum.
# A user callable c is the leaf (_at_shifted_point, c, q).  Leaves
# compare by value, so equal leaves share memo entries; the other nodes
# compare by identity.  The value of a node at offset (i, j) is
# c(a q^i, b q^j), and each (node, i, j) is computed once per
# evaluation.


class _Shift:
    __slots__ = ("node", "u", "v")

    def __init__(self, node, u: int, v: int):
        self.node, self.u, self.v = node, u, v


class _Product:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class _Sum:
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms


def _shift(node, u: int, v: int):
    """The node with its parameters pre-shifted by (a, b) -> (a q^u, b q^v);
    shifts compose by adding offsets."""
    if type(node) is _Shift:
        node, u, v = node.node, node.u + u, node.v + v
    if (u == 0 and v == 0) or type(node) is complex:
        return node
    return _Shift(node, u, v)


def _mul(f, g):
    if type(f) is complex and f == 1:
        return g
    if type(g) is complex and g == 1:
        return f
    return _Product(f, g)


def _sum(terms: list):
    return terms[0] if len(terms) == 1 else _Sum(tuple(terms))


def _at_shifted_point(a, b, i: int, j: int, fn, q) -> complex:
    # a user callable at (a q^i, b q^j)
    if i or j:
        pw = _q_powers(q)
        a, b = (a * pw[i] if i else a), (b * pw[j] if j else b)
    return complex(fn(a, b))


def _node(c, q):
    """A user coefficient, a callable or a constant, as a node."""
    return (_at_shifted_point, c, q) if callable(c) else complex(c)


class SkewPoly:
    """Finite sum of c_k(a, b) x^k under the skew rule.

    Coefficients may be passed as complex constants or as callables
    (a, b) -> complex; exact numeric zeros are dropped.  Instances are
    immutable by convention.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs: dict, q):
        self.q = complex(q)
        cleaned = {}
        for k, c in coeffs.items():
            k = _whole(k, "skew polynomial degree")
            if k < 0:
                raise DomainError("skew polynomial degrees must be nonnegative")
            c = _node(c, self.q)
            if c != 0:
                cleaned[k] = c
        self.coeffs = cleaned

    @classmethod
    def _of(cls, nodes: dict, q) -> "SkewPoly":
        """An instance over coefficient nodes built by the operations here."""
        poly = cls.__new__(cls)
        poly.coeffs, poly.q = nodes, q
        return poly

    @classmethod
    def unit(cls, q) -> "SkewPoly":
        return cls({0: 1.0}, q)

    @classmethod
    def x_power(cls, n: int, q) -> "SkewPoly":
        return cls({n: 1.0}, q)

    def _compatible(self, other: "SkewPoly"):
        if self.q != other.q:
            raise DomainError("skew polynomials have mismatched q")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._compatible(other)
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            prior = merged.get(k)
            if prior is None:
                merged[k] = c
            elif type(prior) is _Sum:
                merged[k] = _Sum(prior.terms + (c,))
            else:
                merged[k] = _Sum((prior, c))
        return SkewPoly._of(merged, self.q)

    def truncated(self, max_degree: int) -> "SkewPoly":
        return SkewPoly._of({k: c for k, c in self.coeffs.items() if k <= max_degree},
                            self.q)

    def evaluate(self, ps: ParameterSet) -> dict:
        """Coefficient values at the parameter point: map degree -> complex."""
        return evaluate_together([self], ps)[0]


def evaluate_together(polys, ps: ParameterSet) -> list:
    """Coefficient values of each polynomial at the parameter point, one
    map degree -> complex per polynomial, under one memo: a node that
    several of them share is computed once per offset.  The memo lives
    only as long as the call; the Pincherle residuals pass the memos of
    their state instead, which outlive it."""
    return _evaluate(polys, ps, {})


def _evaluate(polys, ps: ParameterSet, memo: dict) -> list:
    # ``evaluate_together`` under the given memo, which may outlive the
    # call: a value depends only on its node and offset, never on what
    # the memo already holds, so a warm memo gives a cold one's bits
    a, b = ps.a, ps.b
    return [{k: require_finite(_value(c, 0, 0, memo, a, b), "skew coefficient")
             for k, c in sorted(poly.coeffs.items())} for poly in polys]


def _value(node, i: int, j: int, memo: dict, a, b) -> complex:
    # the node's value at (a q^i, b q^j), each (node, i, j) computed once
    # per memo; a module-level function rather than a closure that calls
    # itself, so the memo and the nodes it keys form no reference cycle
    # and are freed when the evaluation returns
    kind = type(node)
    if kind is complex:
        return node
    if kind is _Shift:
        return _value(node.node, i + node.u, j + node.v, memo, a, b)
    key = (node, i, j)
    hit = memo.get(key)
    if hit is None:
        if kind is tuple:
            hit = node[0](a, b, i, j, *node[1:])
        elif kind is _Product:
            hit = _value(node.left, i, j, memo, a, b) * _value(node.right, i, j, memo, a, b)
        else:
            terms = iter(node.terms)
            hit = _value(next(terms), i, j, memo, a, b)
            for term in terms:
                hit += _value(term, i, j, memo, a, b)
        memo[key] = hit
    return hit


def x_mul(p: SkewPoly, power: int = 1) -> SkewPoly:
    """Left multiplication by x^power: coefficients shift, degrees rise."""
    power = _whole(power, "x_mul power")
    if power < 0:
        raise DomainError("x_mul power must be nonnegative")
    if power == 0:
        return p
    return SkewPoly._of({k + power: _shift(c, power, 2 * power)
                         for k, c in p.coeffs.items()}, p.q)


def skew_mul(p: SkewPoly, other: SkewPoly) -> SkewPoly:
    """Product p * other under the skew rule: the right factor's
    coefficients travel past the left factor's powers of x."""
    p._compatible(other)
    terms: dict = {}
    for i, c in p.coeffs.items():
        for j, d in other.coeffs.items():
            terms.setdefault(i + j, []).append(_mul(c, _shift(d, i, 2 * i)))
    return SkewPoly._of({k: _sum(t) for k, t in terms.items()}, p.q)


def _D_factor(a, b, i: int, j: int, n: int, q, p) -> complex:
    # the D factor at (a q^i, b q^j): [n] at (a q^i, b q^(j+n-2))
    return bracket_z(ParameterSet(a, b, q, p), n, i, j + n - 2)


def apply_D(p: SkewPoly, ps: ParameterSet) -> SkewPoly:
    """The lowering operator: termwise

        D(c(a,b) x^n) = c(a q^-1, b q^-2)
            * theta(q^n, a q^n, b q^n, a q^(2-n)/b; p)
            / theta(q, a q, b q^(2n-1), a q/b; p) * x^(n-1),

    with the n = 0 term annihilated.  The factor is the elliptic number
    [n] at (a, b q^(n-2)); at the point (a q^i, b q^j) it is [n] at
    (a q^i, b q^(j+n-2)), one ``bracket_z`` call with those offsets."""
    return SkewPoly._of(
        {n - 1: _mul(_shift(c, -1, -2), (_D_factor, n, ps.q, ps.p))
         for n, c in p.coeffs.items() if n != 0},
        p.q)


def _eta_factor(a, b, i: int, j: int, n: int, q, p) -> complex:
    # the eta factor at (a q^i, b q^j)
    pw = _q_powers(q)
    return theta_quotient(
        [a * pw[i + 1 + n], a * pw[i + 2 + n], b * pw[j + 1],
         _ratio(b * pw[j - i + n - 1], a), _ratio(b * pw[j - i + n], a)],
        [a * pw[i + 1], a * pw[i + 2], b * pw[j + 1 + 2 * n],
         _ratio(b * pw[j - i - 1], a), _ratio(b * pw[j - i], a)],
        p) * pw[-n]


def apply_eta(p: SkewPoly, ps: ParameterSet) -> SkewPoly:
    """The diagonal operator: termwise multiplication by

        theta(a q^(1+n), a q^(2+n), b q, b q^(n-1)/a, b q^n/a; p)
      / theta(a q, a q^2, b q^(1+2n), b/(a q), b/a; p) * q^(-n),

    leaving the coefficient's arguments untouched.  Its a/b thetas are
    written inverted, by theta(x) = -x theta(1/x), so that at b = 0,
    p = 0 it is the one-parameter factor
    (1 - a q^(1+n)) (1 - a q^(2+n)) / ((1 - a q)(1 - a q^2)) * q^(-n).
    b != 0 needs a != 0."""
    return SkewPoly._of(
        {n: _mul(c, (_eta_factor, n, ps.q, ps.p)) for n, c in p.coeffs.items()},
        p.q)


def _whole(value, what: str) -> int:
    # value as an int, read with operator.index: a float or a string is a
    # DomainError, never truncated
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer: {value!r}") from None


def pincherle_coeff(k: int, ps: ParameterSet) -> complex:
    """Scalar in the commutation identity D^k x - x D^k = C_k D^(k-1) eta,
    from its explicit theta form

        C_k = theta(q^k, a q^(3-k), b q^(2-k), a q^(k-1)/b; p)
            / theta(q, a q^2, b q^(3-2k), a/b; p) * q^(1-k).
    """
    k = _whole(k, "pincherle coefficient index k")
    if k < 1:
        raise DomainError("pincherle coefficient needs k >= 1")
    a, b, q = ps.a, ps.b, ps.q
    pw = _q_powers(q)
    return theta_quotient(
        [pw[k], a * pw[3 - k], b * pw[2 - k], _ratio(a * pw[k - 1], b)],
        [q, a * pw[2], b * pw[3 - 2 * k], _ratio(a, b)], ps.p) * pw[1 - k]


def pincherle_coeff_bracket(k: int, ps: ParameterSet) -> complex:
    """The same scalar written as the z-bracket [k] taken at the swapped
    and shifted parameters (b q^(2-2k), a q^(1-k))."""
    k = _whole(k, "pincherle coefficient index k")
    if k < 1:
        raise DomainError("pincherle coefficient needs k >= 1")
    return bracket_z(ps.swapped(), k, 2 - 2 * k, 1 - k)


def _pincherle_state(ps: ParameterSet) -> dict:
    # the state special_fn keeps for ps, filled on first use: the chains
    # by (m, eta), the left and the right memo, and C_k by k
    state = special_fn._pincherle_states(ps)
    if not state:
        state.update(chains={}, left={}, right={}, coeffs={})
    return state


def _lowered(chains: dict, ps: ParameterSet, m: int, j: int, eta: bool = False) -> SkewPoly:
    # D^j(x^m), or D^j(eta(x^m)), extending the chain kept for (m, eta)
    # one apply_D at a time; an eta chain starts from x^m
    chain = chains.get((m, eta))
    if chain is None:
        start = _lowered(chains, ps, m, 0) if eta else SkewPoly.x_power(m, ps.q)
        chain = chains[m, eta] = [apply_eta(start, ps) if eta else start]
    for _ in range(len(chain), j + 1):
        chain.append(apply_D(chain[-1], ps))
    return chain[j]


def pincherle_residuals(pairs, ps: ParameterSet) -> dict:
    """Relative residuals of (D^k x - x D^k)(x^n) = C_k D^(k-1)(eta(x^n))
    at ps, map (k, n) -> residual, both sides through independent
    operator chains.  k and n are read with operator.index, so a float
    or a string is a DomainError.

    The work is kept in one state per parameter point, which outlives
    the call (``special_fn._pincherle_states``): each chain D^j(x^m) and
    D^j(eta(x^m)) is built once by extending the one before, C_k is
    formed once per k, and all left sides are evaluated under one memo
    and all right sides under another, so the two sides share no value.
    A node or a C_k that raises is not kept, so it raises again."""
    checked = []
    for k, n in pairs:
        k = _whole(k, "pincherle check index k")
        n = _whole(n, "pincherle check index n")
        if k < 1 or n < 0:
            raise DomainError("pincherle check needs k >= 1 and n >= 0")
        checked.append((k, n))
    state = _pincherle_state(ps)
    chains, coeffs = state["chains"], state["coeffs"]

    lefts = []
    for k, n in checked:
        lefts += (_lowered(chains, ps, n + 1, k), x_mul(_lowered(chains, ps, n, k)))
    lefts = _evaluate(lefts, ps, state["left"])
    for k in dict.fromkeys(k for k, _ in checked):
        if k not in coeffs:
            coeffs[k] = pincherle_coeff(k, ps)
    rights = _evaluate([_lowered(chains, ps, n, k - 1, True) for k, n in checked],
                       ps, state["right"])

    residuals = {}
    for index, (k, n) in enumerate(checked):
        lhs = lefts[2 * index]
        for deg, value in lefts[2 * index + 1].items():
            lhs[deg] = lhs.get(deg, 0.0 + 0.0j) - value
        rhs = {deg: coeffs[k] * value for deg, value in rights[index].items()}
        residual = 0.0
        for deg in set(lhs) | set(rhs):
            l = lhs.get(deg, 0.0 + 0.0j)
            r = rhs.get(deg, 0.0 + 0.0j)
            residual = max(residual, abs(l - r) / max(abs(l), abs(r), 1e-30))
        residuals[k, n] = residual
    return residuals


def pincherle_check(k: int, n: int, ps: ParameterSet) -> float:
    """Relative residual of one pair (k, n) of ``pincherle_residuals``,
    read from and added to the state of ps, so the calls for many pairs
    at one point build each chain once, evaluate each node once per
    side, and give the bits of one batched call."""
    return pincherle_residuals([(k, n)], ps)[k, n]


def fib_elliptic(n: int, ps: ParameterSet) -> complex:
    """Theta Fibonacci numbers: S_0 = 0, S_1 = 1 and

        S_n(a, b) = S_(n-1)(a q, b q^2)
          + theta(a q^(1+n), a q^(2+n), b q^5, b q^(n-1)/a, b q^n/a; p)
          / theta(a q^3, a q^4, b q^(1+2n), b q/a, b q^2/a; p)
          * q^(2-n) * S_(n-2)(a q^2, b q^4),

    the paper's factor with its a/b thetas inverted by
    theta(x) = -x theta(1/x).  At b = 0, p = 0 the b thetas are 1 and
    this is the one-parameter recursion of fib_aq.  Domain: b = 0 needs
    p = 0 (theta(0; p) is undefined), and b != 0 needs a != 0.

    A loop over i from n - 2 down to 0 carries S_(n-i-1) and S_(n-i-2)
    at (a q^i, b q^(2i)); each theta argument there is formed from its
    whole exponent, a q^(i+1+m) as ``a * pw[i + 1 + m]`` from the power
    table ``pw = _q_powers(q)``.
    """
    if n < 0:
        raise DomainError("fib_elliptic needs n >= 0")
    if n == 0:
        return 0.0 + 0.0j
    a, b, p, pw = ps.a, ps.b, ps.p, _q_powers(ps.q)
    s1, s2 = 1.0 + 0.0j, 0.0 + 0.0j
    for i in range(n - 2, -1, -1):
        m = n - i
        factor = theta_quotient(
            [a * pw[i + 1 + m], a * pw[i + 2 + m], b * pw[2 * i + 5],
             _ratio(b * pw[i + m - 1], a), _ratio(b * pw[i + m], a)],
            [a * pw[i + 3], a * pw[i + 4], b * pw[2 * i + 1 + 2 * m],
             _ratio(b * pw[i + 1], a), _ratio(b * pw[i + 2], a)],
            p) * pw[2 - m]
        s1, s2 = s1 + factor * s2, s1
    return require_finite(s1, "Fibonacci number")


def fib_aq(n: int, a, q) -> complex:
    """One-parameter Fibonacci recursion: S_0 = 0, S_1 = 1 and

        S_n(a) = S_(n-1)(a q)
          + (1 - a q^(1+n))(1 - a q^(2+n)) / ((1 - a q^3)(1 - a q^4))
          * q^(2-n) * S_(n-2)(a q^2),

    the theta Fibonacci numbers at b = 0, p = 0.
    """
    if n < 0:
        raise DomainError("fib_aq needs n >= 0")
    return fib_elliptic(n, ParameterSet(a, 0, q, 0))


def fib_aq_closed(n: int, a, q) -> complex:
    """Closed form of the one-parameter Fibonacci numbers:

        S_n(a) = sum_j q^(-(n-j-1) j) [n-j-1, j]_q
                 (1 - a q^(n+1))^j (1 - a q^(n+2))^j
                 / ((a q^3; q)_j (a q^(n-j+2); q)_j).

    The final factorial's exponent is n-j+2; the n-j-2 variant fails
    against the recursion while this one matches it to round-off.
    """
    if n < 0:
        raise DomainError("fib_aq_closed needs n >= 0")
    if n == 0:
        return 0.0 + 0.0j
    a = complex(a)
    q = complex(q)
    pw = _q_powers(q)
    total = 0.0 + 0.0j
    top = theta_quotient([a * pw[n + 1], a * pw[n + 2]], (), 0.0)
    for j in range(0, (n - 1) // 2 + 1):
        binomial = q_binomial(n - j - 1, j, q)
        inv_den = theta_quotient(
            (), [a * pw[e + i] for i in range(j) for e in (3, n - j + 2)], 0.0)
        total += pw[-(n - j - 1) * j] * binomial * top ** j * inv_den
    return require_finite(total, "Fibonacci closed form")


def genfun_expand(N: int, ps: ParameterSet) -> list:
    """Coefficients of x^1 .. x^N in sum_m (x + x^2 eta)^m x, the
    expansion of the Fibonacci generating function (1 - x - x^2 eta)^-1 x.
    Coefficient n must equal fib_elliptic(n, ps)."""
    if N < 1:
        raise DomainError("genfun_expand needs N >= 1")
    total = SkewPoly({}, ps.q)
    term = SkewPoly.x_power(1, ps.q)
    for _ in range(N):
        total = total + term
        term = (x_mul(term) + x_mul(apply_eta(term, ps), 2)).truncated(N)
        if not term.coeffs:
            break
    values = total.evaluate(ps)
    return [values.get(k, 0.0 + 0.0j) for k in range(1, N + 1)]


def product_expand(factors, direction: str, q) -> SkewPoly:
    """Ordered product of skew-polynomial factors.

    "left-to-right" forms F_0 F_1 ... F_(n-1); "right-to-left" forms
    F_(n-1) ... F_1 F_0.  The empty product is 1.
    """
    acc = SkewPoly.unit(q)
    if direction == "left-to-right":
        for f in factors:
            acc = skew_mul(acc, f)
    elif direction == "right-to-left":
        for f in factors:
            acc = skew_mul(f, acc)
    else:
        raise DomainError(
            f"direction must be left-to-right or right-to-left: {direction!r}")
    return acc


def f_relation_sides(b, q, n: int) -> dict:
    """Both sides of the three coefficientwise recurrences of the series
    F(x) = sum_n x^n / ((q; q)_n (b q; q)_n), for the x^n coefficient.

    The series' x crosses parameters as x f(b) = f(b q^2) x, so the
    first relation compares against F_(n-1) at b q, not at b/q:

        shift:    F_n(b) (1 - q^n)   = F_(n-1)(b q) / (1 - b q)
        scale:    F_n(b) (1 - b q^n) = (1 - b) F_n(b/q)
        combined: F_n(b) (1 - q^n)   = (1 - b q^(n+1)) F_(n-1)(b q^2)
                                        / ((1 - b q)(1 - b q^2))

    Left sides go through the exponential-coefficient helper and the
    power table; right sides multiply out their factorials in a loop of
    their own, with powers from ``qpow``.
    """
    if n < 1:
        raise DomainError("f_relation_sides needs n >= 1")
    b = complex(b)
    q = complex(q)

    def series_coeff(bb, m):
        den = 1.0 + 0.0j
        for i in range(1, m + 1):
            den *= (1.0 - qpow(q, i)) * (1.0 - bb * qpow(q, i))
        return 1.0 / guarded(den, 0, "series denominator")

    lhs_base = exp_coeff_bq(b, q, n)
    qn = _q_powers(q)[n]
    sides = {}
    sides["shift"] = (
        lhs_base * (1.0 - qn),
        series_coeff(b * q, n - 1) / guarded(1.0 - b * q, 0, "relation denominator"),
    )
    sides["scale"] = (
        lhs_base * (1.0 - b * qn),
        (1.0 - b) * series_coeff(b / q, n),
    )
    den = guarded(1.0 - b * q, 0, "relation denominator")
    den *= guarded(1.0 - b * q * q, 1, "relation denominator")
    sides["combined"] = (
        lhs_base * (1.0 - qn),
        (1.0 - b * qpow(q, n + 1)) * series_coeff(b * q * q, n - 1) / den,
    )
    return sides
