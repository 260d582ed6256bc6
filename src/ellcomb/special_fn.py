"""Theta functions, shifted factorials, weight families, and brackets.

The numeric foundation of the package.  The building block is the
modified Jacobi theta function

    theta(x; p) = prod_{j >= 0} (1 - p^j x)(1 - p^(j+1) / x),   |p| < 1,

with theta(x; 0) = 1 - x for every x, including x = 0.  On top of it sit
the theta shifted factorial (a; q, p)_n, the weight families w(s, t)
(symbolic, elliptic, and the one-parameter degenerations), their binomial
coefficients, and the z-bracket [z] generalizing (1 - q^z)/(1 - q).

Small weights w(s, t) determine big weights by the column product

    W(s, t) = prod_{k=1}^{t} w(s, k),       W(s, 0) = 1,

and the weight-dependent binomial coefficients by the triangle

    [0, 0] = 1,   [n, k] = 0 outside 0 <= k <= n,
    [n+1, k] = [n, k] + [n, k-1] W(k, n+1-k).

The elliptic family carries the four-parameter theta weight

    w(s, t) = theta(a q^(s+2t), b q^(2s+t-2), a q^(t-s-1)/b; p)
            / theta(a q^(s+2t-2), b q^(2s+t), a q^(t-s+1)/b; p) * q.

Setting p = 0, then a = 0, then b = 0 (in this order) degenerates it
through the one-parameter families down to the constant weight q.  At
p = 0 each elliptic formula is the same theta form with theta(x; 0) = 1 - x;
the one-parameter families are implemented directly from their own closed
formulas, never as numeric limits.

Two values outlive a call, each in a bounded module-level
``functools.lru_cache`` whose ``cache_info()`` counts hits, misses and
size: the theta series for p != 0 (``_theta_series``, keyed on (x, p)) and
the elliptic small weight (``_elliptic_small``, keyed on (ps, s, t)).
Nothing else is memoised across calls; ``WeightFamily.binom`` builds its
triangle afresh each time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .weightpoly import WeightPolynomial

# Denominator factors smaller than this magnitude are treated as unsafe.
NEAR_POLE_TOL = 1e-12

# Theta truncation: stop once both |p^j x| and |p^(j+1)/x| drop below
# this; the remaining factors differ from 1 by less than double noise.
_FACTOR_EPS = 1e-17
_MAX_FACTORS = 300

_BIG_CONSISTENCY_TOL = 1e-10


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A denominator factor vanished exactly.

    ``index`` identifies the offending factor within its product.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NearPoleError(ArithmeticError):
    """A denominator factor fell below ``NEAR_POLE_TOL`` in magnitude.

    Raised instead of returning a huge, ill-conditioned value.  Sampled
    verification treats it as a signal to redraw parameters, not as an
    identity failure.
    """


class EvaluationError(ArithmeticError):
    """An evaluation produced a non-finite value or failed an internal
    consistency check."""


def require_finite(z: complex, context: str = "result") -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise EvaluationError(f"non-finite {context}: {z!r}")
    return z


def qpow(q: complex, z) -> complex:
    """q**z.  Exact integer powers for integral z, principal branch otherwise."""
    if isinstance(z, int):
        return complex(q) ** z
    if isinstance(z, float) and z.is_integer():
        return complex(q) ** int(z)
    return cmath.exp(complex(z) * cmath.log(complex(q)))


def complex_to_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


@dataclass(frozen=True)
class ParameterSet:
    """The parameter quadruple (a, b, q, p) with nome restriction |p| < 1.

    Zero entries are permitted here so that degenerate limits stay
    expressible (for example a = b = 0, p = 0 reduces brackets to their
    plain q-analogues).  Weight-family constructors impose their own
    nonzero requirements on top.
    """

    a: complex
    b: complex
    q: complex
    p: complex

    def __post_init__(self):
        for name in ("a", "b", "q", "p"):
            v = complex(getattr(self, name))
            require_finite(v, name)
            object.__setattr__(self, name, v)
        if abs(self.p) >= 1:
            raise DomainError(f"nome must satisfy |p| < 1, got |p| = {abs(self.p)}")

    def shift(self, a_pow: int = 0, b_pow: int = 0) -> "ParameterSet":
        """Replace (a, b) by (a q^a_pow, b q^b_pow)."""
        return ParameterSet(self.a * qpow(self.q, a_pow),
                            self.b * qpow(self.q, b_pow), self.q, self.p)

    def swapped(self) -> "ParameterSet":
        """Exchange the roles of a and b."""
        return ParameterSet(self.b, self.a, self.q, self.p)

    def to_json(self) -> dict:
        return {
            "a": complex_to_pair(self.a),
            "b": complex_to_pair(self.b),
            "q": complex_to_pair(self.q),
            "p": complex_to_pair(self.p),
        }

    @classmethod
    def from_json(cls, data) -> "ParameterSet":
        return cls(pair_to_complex(data["a"]), pair_to_complex(data["b"]),
                   pair_to_complex(data["q"]), pair_to_complex(data["p"]))


def theta(x, p) -> complex:
    """theta(x; p) for |p| < 1: 1 - x when p = 0, else for x != 0 only."""
    x = complex(x)
    p = complex(p)
    if abs(p) >= 1:
        raise DomainError(f"theta requires |p| < 1, got |p| = {abs(p)}")
    require_finite(x, "theta argument")
    if p == 0:
        return 1.0 - x
    if x == 0:
        raise DomainError("theta(x; p) is undefined at x = 0 for p != 0")
    return _theta_series(x, p)


@lru_cache(maxsize=1 << 16)
def _theta_series(x: complex, p: complex) -> complex:
    result = 1.0 + 0.0j
    pj = 1.0 + 0.0j
    inv_x = 1.0 / x
    for _ in range(_MAX_FACTORS):
        t1 = pj * x
        t2 = pj * p * inv_x
        if abs(t1) < _FACTOR_EPS and abs(t2) < _FACTOR_EPS:
            break
        result *= (1.0 - t1) * (1.0 - t2)
        pj *= p
    return require_finite(result, "theta value")


def theta_product(args, p) -> complex:
    """Product of theta(x; p) over the given arguments."""
    result = 1.0 + 0.0j
    for x in args:
        result *= theta(x, p)
    return result


def theta_product_guarded(args, p) -> complex:
    """Like ``theta_product`` but intended for denominators.

    A factor that is exactly zero raises PoleError; a factor below the
    near-pole threshold raises NearPoleError.
    """
    result = 1.0 + 0.0j
    for index, x in enumerate(args):
        result *= _theta_denominator(x, p, index)
    return result


def theta_quotient(nums, dens, p) -> complex:
    """prod_i theta(nums[i]; p) / theta(dens[i]; p), one pair at a time.

    Whole numerator and denominator products overflow long before their
    ratio does, which turns the quotient into inf / inf = NaN.  Each
    denominator factor is guarded as in ``theta_product_guarded``, and a
    PoleError carries that factor's index.
    """
    result = 1.0 + 0.0j
    for index, (x, y) in enumerate(zip(nums, dens, strict=True)):
        result *= theta(x, p) / _theta_denominator(y, p, index)
    return result


def _theta_denominator(x, p, index: int) -> complex:
    value = theta(x, p)
    if value == 0:
        raise PoleError(f"denominator theta factor {index} vanished at x = {x!r}", index)
    if abs(value) < NEAR_POLE_TOL:
        raise NearPoleError(f"denominator theta factor {index} is near a pole: |{value!r}|")
    return value


def guarded(value: complex, index: int = 0, what: str = "denominator factor") -> complex:
    """Guard a single denominator factor against exact and near poles."""
    if value == 0:
        raise PoleError(f"{what} {index} vanished", index)
    if abs(value) < NEAR_POLE_TOL:
        raise NearPoleError(f"{what} {index} is near zero: {value!r}")
    return value


def q_factorial(a, q, n: int) -> complex:
    """q-shifted factorial (a; q)_n for any integer n: (a; q, 0)_n."""
    return qp_factorial(a, q, 0, n)


def qp_factorial(a, q, p, n: int) -> complex:
    """Theta shifted factorial (a; q, p)_n for any integer n.

    At p = 0 the theta factors are 1 - a q^j, so this is (a; q)_n, also
    at a = 0.
    """
    p = complex(p)
    if abs(p) >= 1:
        raise DomainError(f"qp_factorial requires |p| < 1, got |p| = {abs(p)}")
    a = complex(a)
    q = complex(q)
    if n >= 0:
        result = 1.0 + 0.0j
        for j in range(n):
            result *= theta(a * qpow(q, j), p)
        return result
    denom = 1.0 + 0.0j
    for j in range(-n):
        factor = theta(a * qpow(q, n + j), p)
        guarded(factor, j, "theta-factorial factor")
        denom *= factor
    return 1.0 / denom


def q_binomial(n: int, k: int, q) -> complex:
    """Gaussian binomial coefficient [n, k]_q = (q^(1+k); q)_(n-k) / (q; q)_(n-k)."""
    if k < 0 or k > n:
        return 0.0 + 0.0j
    q = complex(q)
    num = q_factorial(qpow(q, 1 + k), q, n - k)
    den = 1.0 + 0.0j
    for j in range(n - k):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "q-binomial factor")
    return num / den


def q_bracket(z, q) -> complex:
    """The q-number [z]_q = (1 - q^z) / (1 - q)."""
    q = complex(q)
    guarded(1.0 - q, 0, "q-bracket denominator")
    return (1.0 - qpow(q, z)) / (1.0 - q)


def q_falling_bracket(z, q, m: int) -> complex:
    """Falling product [z]_q [z-1]_q ... [z-m+1]_q."""
    result = 1.0 + 0.0j
    for j in range(m):
        result *= q_bracket(z - j, q)
    return result


def _ratio(x: complex, d: complex) -> complex:
    # x / d for x = a q^k, d = b q^l.  Degenerate convention: a -> 0 is
    # taken before b -> 0, so a/b -> 0.
    if x == 0:
        return 0.0 + 0.0j
    if d == 0:
        raise DomainError("a/b undefined for b = 0 with a != 0")
    return x / d


class WeightFamily:
    """Base class.  Subclasses provide ``small``; the rest has defaults."""

    symbolic = False
    label = "abstract"

    def small(self, s: int, t: int):
        raise NotImplementedError

    def big(self, s: int, t: int):
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        result = 1.0 + 0.0j
        for k in range(1, t + 1):
            result *= self.small(s, k)
        return result

    def binom(self, n: int, k: int):
        """Triangle recursion; subclasses override with closed forms."""
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return self._zero()
        zero = self._zero()
        # Row m keeps only the columns [m, j] that [n, k] depends on,
        # k - (n - m) <= j <= k, so no weight outside them is read.
        row = {0: self._one()}
        for m in range(1, n + 1):
            prev, row = row, {}
            for j in range(max(0, k - n + m), min(m, k) + 1):
                value = prev.get(j, zero)
                lower = prev.get(j - 1, zero)
                if not self._is_zero(lower):
                    value = value + lower * self.big(j, m - j)
                row[j] = value
        return row[k]

    def _zero(self):
        return 0.0 + 0.0j

    def _one(self):
        return 1.0 + 0.0j

    @staticmethod
    def _is_zero(value) -> bool:
        if isinstance(value, WeightPolynomial):
            return value.is_zero()
        return value == 0


class GenericWeights(WeightFamily):
    """Fully symbolic weights; every w(s, t) stays an opaque symbol."""

    symbolic = True
    label = "generic"

    def small(self, s: int, t: int) -> WeightPolynomial:
        if s < 1 or t < 1:
            raise DomainError(f"generic weight needs s, t >= 1, got ({s}, {t})")
        return WeightPolynomial.symbol(s, t)

    def big(self, s: int, t: int) -> WeightPolynomial:
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        result = WeightPolynomial.one()
        for k in range(1, t + 1):
            result = result.times_symbol(s, k)
        return result

    def _zero(self):
        return WeightPolynomial.zero()

    def _one(self):
        return WeightPolynomial.one()


@lru_cache(maxsize=4096)
def _elliptic_small(ps: ParameterSet, s: int, t: int) -> complex:
    a, b, q, p = ps.a, ps.b, ps.q, ps.p
    num = theta_product(
        [a * qpow(q, s + 2 * t), b * qpow(q, 2 * s + t - 2),
         _ratio(a * qpow(q, t - s - 1), b)], p)
    den = theta_product_guarded(
        [a * qpow(q, s + 2 * t - 2), b * qpow(q, 2 * s + t),
         _ratio(a * qpow(q, t - s + 1), b)], p)
    return num / den * q


class EllipticWeights(WeightFamily):
    """The four-parameter theta weight family.

    For p != 0 all of a, b, q must be nonzero.  At p = 0 the same theta
    formulas hold with theta(x; 0) = 1 - x, and zero a, b are admitted
    under the ordered-limit convention (a -> 0 before b -> 0, so a/b -> 0),
    which reproduces the one-parameter and plain-q degenerations.
    """

    label = "elliptic"

    def __init__(self, ps: ParameterSet):
        if ps.q == 0:
            raise DomainError("elliptic weights need q != 0")
        if ps.p != 0 and (ps.a == 0 or ps.b == 0):
            raise DomainError("elliptic weights need a, b nonzero when p != 0")
        self.ps = ps

    def small(self, s: int, t: int) -> complex:
        return _elliptic_small(self.ps, s, t)

    def big(self, s: int, t: int) -> complex:
        """Closed theta form, cross-checked against the column product."""
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        if t == 0:
            return 1.0 + 0.0j
        a, b, q, p = self.ps.a, self.ps.b, self.ps.q, self.ps.p
        num = theta_product(
            [a * qpow(q, s + 2 * t), b * qpow(q, 2 * s), b * qpow(q, 2 * s - 1),
             _ratio(a * qpow(q, 1 - s), b), _ratio(a * qpow(q, -s), b)], p)
        den = theta_product_guarded(
            [a * qpow(q, s), b * qpow(q, 2 * s + t), b * qpow(q, 2 * s + t - 1),
             _ratio(a * qpow(q, t - s + 1), b), _ratio(a * qpow(q, t - s), b)], p)
        closed = num / den * qpow(q, t)
        product = super().big(s, t)
        scale = max(abs(closed), abs(product), 1e-30)
        if abs(closed - product) / scale > _BIG_CONSISTENCY_TOL:
            raise EvaluationError(
                f"big weight mismatch at ({s}, {t}): closed {closed!r} vs product {product!r}")
        return closed

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return 0.0 + 0.0j
        a, b, q, p = self.ps.a, self.ps.b, self.ps.q, self.ps.p
        m = n - k
        # The quotient is built factor by factor: the two 4m-factor theta
        # products overflow long before their ratio does.  Equal factors
        # are skipped, since z / z need not round to exactly 1.
        num_bases = (qpow(q, 1 + k), a * qpow(q, 1 + k), b * qpow(q, 1 + k),
                     _ratio(a * qpow(q, 1 - k), b))
        den_bases = (q, a * q, b * qpow(q, 1 + 2 * k), _ratio(a * q, b))
        result = 1.0 + 0.0j
        for j in range(m):
            qj = qpow(q, j)
            for index, (x, y) in enumerate(zip(num_bases, den_bases)):
                num = theta(x * qj, p)
                den = guarded(theta(y * qj, p), 4 * j + index, "binom denominator")
                if num != den:
                    result *= num / den
        return result

    def single(self, m: int) -> complex:
        """Single-index weight w(m) = w(1, m), the rook specialisation
        w(s, t) = w(s - t).  At p = 0 with a = b = 0 it is the constant q."""
        return self.small(1, m)

    def dual(self) -> "EllipticWeights":
        return EllipticWeights(self.ps.swapped())


class BQWeights(WeightFamily):
    """One-parameter family w(s, t) = (1 - b q^(2s+t-2)) / (1 - b q^(2s+t)) q."""

    label = "bq"

    def __init__(self, b, q):
        self.b = complex(b)
        self.q = complex(q)
        if self.q == 0:
            raise DomainError("bq weights need q != 0")

    def small(self, s: int, t: int) -> complex:
        b, q = self.b, self.q
        den = guarded(1.0 - b * qpow(q, 2 * s + t), 0, "bq weight denominator")
        return (1.0 - b * qpow(q, 2 * s + t - 2)) / den * q

    def big(self, s: int, t: int) -> complex:
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        b, q = self.b, self.q
        den = guarded(1.0 - b * qpow(q, 2 * s + t), 0, "bq big denominator")
        den *= guarded(1.0 - b * qpow(q, 2 * s + t - 1), 1, "bq big denominator")
        num = (1.0 - b * qpow(q, 2 * s)) * (1.0 - b * qpow(q, 2 * s - 1))
        return num / den * qpow(q, t)

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return 0.0 + 0.0j
        b, q = self.b, self.q
        m = n - k
        num = q_factorial(qpow(q, 1 + k), q, m) * q_factorial(b * qpow(q, 1 + k), q, m)
        den = 1.0 + 0.0j
        for j in range(m):
            den *= guarded(1.0 - qpow(q, 1 + j), j, "bq binom denominator")
            den *= guarded(1.0 - b * qpow(q, 1 + 2 * k + j), j, "bq binom denominator")
        return num / den

    def dual(self) -> "AQWeights":
        return AQWeights(self.b, self.q)


class AQWeights(WeightFamily):
    """One-parameter family w(s, t) = (1 - a q^(s+2t)) / (1 - a q^(s+2t-2)) / q."""

    label = "aq"

    def __init__(self, a, q):
        self.a = complex(a)
        self.q = complex(q)
        if self.q == 0:
            raise DomainError("aq weights need q != 0")

    def small(self, s: int, t: int) -> complex:
        a, q = self.a, self.q
        den = guarded(1.0 - a * qpow(q, s + 2 * t - 2), 0, "aq weight denominator")
        return (1.0 - a * qpow(q, s + 2 * t)) / den * qpow(q, -1)

    def big(self, s: int, t: int) -> complex:
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        a, q = self.a, self.q
        den = guarded(1.0 - a * qpow(q, s), 0, "aq big denominator")
        return (1.0 - a * qpow(q, s + 2 * t)) / den * qpow(q, -t)

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return 0.0 + 0.0j
        a, q = self.a, self.q
        m = n - k
        num = q_factorial(qpow(q, 1 + k), q, m) * q_factorial(a * qpow(q, 1 + k), q, m)
        den = 1.0 + 0.0j
        for j in range(m):
            den *= guarded(1.0 - qpow(q, 1 + j), j, "aq binom denominator")
            den *= guarded(1.0 - a * qpow(q, 1 + j), j, "aq binom denominator")
        return num / den * qpow(q, k * (k - n))

    def dual(self) -> BQWeights:
        return BQWeights(self.a, self.q)


class QWeights(WeightFamily):
    """Constant family w(s, t) = q; the classical q-specialisation."""

    label = "q"

    def __init__(self, q):
        self.q = complex(q)
        if self.q == 0:
            raise DomainError("q weights need q != 0")

    def small(self, s: int, t: int) -> complex:
        return self.q

    def big(self, s: int, t: int) -> complex:
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        return qpow(self.q, t)

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        return q_binomial(n, k, self.q)


class TableWeights(WeightFamily):
    """Weights read from an explicit finite table {(s, t): value}."""

    label = "table"

    def __init__(self, table: dict):
        self.table = {(int(s), int(t)): complex(v) for (s, t), v in table.items()}

    def small(self, s: int, t: int) -> complex:
        try:
            return self.table[(s, t)]
        except KeyError:
            raise DomainError(f"no table entry for cell ({s}, {t})") from None


def bracket_z(ps: ParameterSet, z) -> complex:
    """The z-bracket

        [z] = theta(q^z, a q^z, b q^2, a/b; p)
            / theta(q, a q, b q^(z+1), a q^(z-1)/b; p).

    Integer z uses exact powers of q; otherwise the principal branch.
    At p = 0 this is the same formula with theta(x; 0) = 1 - x, and zero
    parameters are allowed, so [z] degenerates through (a, b) -> 0 to
    (1 - q^z)/(1 - q).
    """
    a, b, q, p = ps.a, ps.b, ps.q, ps.p
    qz = qpow(q, z)
    num = theta_product([qz, a * qz, b * q * q, _ratio(a, b)], p)
    den = theta_product_guarded([q, a * q, b * q * qz, _ratio(a * qz, q * b)], p)
    return num / den


def exp_coeff_q(q, n: int) -> complex:
    """Taylor coefficient 1 / (q; q)_n of the q-exponential e_q."""
    den = 1.0 + 0.0j
    for j in range(n):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "exp coefficient factor")
    return 1.0 / den


def exp_coeff_bq(b, q, n: int) -> complex:
    """Taylor coefficient 1 / ((q; q)_n (bq; q)_n) of e_{b;q} and F_{b;q}.

    The a-parameter twin e_{a;q} has the same coefficient shape, so this
    helper serves both, fed a in place of b.
    """
    b = complex(b)
    den = 1.0 + 0.0j
    for j in range(n):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "exp coefficient factor")
        den *= guarded(1.0 - b * qpow(q, 1 + j), j, "exp coefficient factor")
    return 1.0 / den


def reversal_coeff_bq(b, q, l: int, k: int) -> complex:
    """Coefficient c with x^l y^k = c y^k x^l in the b-shifted algebra:

        c = (b q^(1+k); q)_(2l) / (b q; q)_(2l) * q^(-k l).
    """
    b = complex(b)
    num = q_factorial(b * qpow(q, 1 + k), q, 2 * l)
    den = 1.0 + 0.0j
    for j in range(2 * l):
        den *= guarded(1.0 - b * qpow(q, 1 + j), j, "reversal denominator")
    return num / den * qpow(q, -k * l)


_FAMILY_TAGS = ("generic", "elliptic", "bq", "aq", "q")


def family_from_spec(tag: str, a=None, b=None, q=None, p=None) -> WeightFamily:
    """Build a weight family from a CLI-style tag plus parameters."""
    tag = tag.lower()
    if tag == "generic":
        return GenericWeights()
    if tag == "elliptic":
        if a is None or b is None or q is None or p is None:
            raise DomainError("elliptic family needs a, b, q and p")
        return EllipticWeights(ParameterSet(a, b, q, p))
    if tag == "bq":
        if b is None or q is None:
            raise DomainError("bq family needs b and q")
        return BQWeights(b, q)
    if tag == "aq":
        if a is None or q is None:
            raise DomainError("aq family needs a and q")
        return AQWeights(a, q)
    if tag == "q":
        if q is None:
            raise DomainError("q family needs q")
        return QWeights(q)
    raise DomainError(f"unknown family {tag!r}; expected one of {_FAMILY_TAGS}")
