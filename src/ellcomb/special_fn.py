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

and the weight-dependent binomial coefficients by the triangle, which
``path_binom`` sums over lattice paths, one column of W at a time,

    [0, 0] = 1,   [n, k] = 0 outside 0 <= k <= n,
    [n+1, k] = [n, k] + [n, k-1] W(k, n+1-k).

The elliptic family carries the four-parameter theta weight

    w(s, t) = theta(a q^(s+2t), b q^(2s+t-2), a q^(t-s-1)/b; p)
            / theta(a q^(s+2t-2), b q^(2s+t), a q^(t-s+1)/b; p) * q.

Setting p = 0, then a = 0, then b = 0 (in this order) degenerates it
through the one-parameter families down to the constant weight q.  At
p = 0 each elliptic formula is the same theta form with theta(x; 0) = 1 - x,
so ``BQWeights`` is the ``EllipticWeights`` at (a, b, q, p) = (0, b, q, 0)
and ``QWeights`` at (0, 0, q, 0).  The a;q family is the dual
w*(s, t) = 1 / w(t, s) of the b;q weight at b = a: its small weight is
that theta quotient with numerator and denominator exchanged, and only
its closed binomial is written out.

Every theta argument is a monomial c q^k with c in {1, a, b}, or a
ratio of two (Gasper-Rahman, section 11.2), and it is formed by one
rule: ``c * _q_powers(q)[k]`` from its exact integer exponent k, and a
ratio as ``_ratio(c * _q_powers(q)[k], d)``.  The power table of q forms
each q^k once, as ``qpow(q, k)`` does, so a power is still one rounding
from its exact exponent.  A value already shifted by a power of q is
never multiplied by a further power; the caller adds the exponents
instead.  A power rounded once is more accurate than a product of two
rounded powers (Higham, Accuracy and Stability of Numerical Algorithms,
chapter 3), and the same argument then has the same bits wherever it is
formed, so it finds its ``_theta_series`` entry: the small and big
weights, ``EllipticWeights.binom``, ``bracket_z``, ``qp_factorial``,
``exp_coeff_bq``, ``skewpoly.fib_elliptic`` and the skew operator
factors all follow it; ``q_binomial``, ``AQWeights.binom`` and
``reversal_coeff_bq`` do not: they multiply q^(1+k), a q^(1+k) and
b q^(1+k) by q^j.  A caller that needs a bracket at shifted parameters
(a q^u, b q^v) passes the offsets, ``bracket_z(ps, z, u, v)``, rather
than a ``ParameterSet.shift`` copy, for the same reason.  A power off
the integers (``bracket_z`` at a non-integer z) takes ``qpow``'s
principal branch.

Every theta ratio and every q- or theta-shifted factorial quotient is
one ``theta_quotient`` call: since theta(x; 0) = 1 - x, the q-shifted
factorial (x; q)_n is (x; q, 0)_n (Gasper-Rahman, section 11.2), so
``qp_factorial``, ``q_binomial``, ``AQWeights.binom``, ``exp_coeff_bq``
and ``reversal_coeff_bq`` have no loop of their own.
The raw references in ``verify`` and the right sides of
``skewpoly.f_relation_sides`` keep theirs, and form their powers with
``qpow``, not the table: they are the independent sides of their
checks.  ``theta_quotient`` checks the nome once per
call and forms each factor with ``theta``, the one per-factor rule:
1 - x at p = 0, otherwise one lookup in the series cache, keyed on x and
p as given; p and x are converted and checked on a cache miss only.

Four values outlive a call, each in a bounded module-level
``functools.lru_cache``; a call that raises is not cached, so it raises
again.  The theta series for p != 0 (``_theta_series``, keyed on (x, p)
as ``theta`` receives them, so a hit costs one lookup) serves every
weight, bracket and skew factor that meets the same argument: a
``numeric`` pass at seed 1 makes 68,660 theta calls for
1,822 series misses, and without the cache it took 5.1 times as long
and a ``registry`` pass 88 % longer.  The elliptic small weight
(``_elliptic_small``, keyed on (ps, s, t)) serves the product sides,
which look up 161 distinct weights 1,352 times in a ``numeric`` pass:
without it the pass took 9 % to 12 % longer.  The closed elliptic big
weight for t >= 1 (``_elliptic_big``, keyed on (ps, s, t)) serves the
column products that path sums ask for again:
without it a ``numeric`` pass took 19 % longer; only ``numeric``'s
path sums hit it, and a ``registry`` or ``words`` pass gets no hit.
The power table of a nome's q (``_power_tables``, reached through
``_q_powers``) is a dict that forms q^k with ``qpow`` on its first read
of k and stores nothing for a k that raises; it replaces a ``qpow``
call per power with a dict read.  A cold ``numeric`` pass at seed 1
reads 61,213 powers of 18 values of q and forms 619 of them; a
``registry`` pass reads 131,087 and forms 7,888, leaving 84,720
``qpow`` calls to the reference sides.  A table keeps the first
``_POWERS_PER_TABLE`` exponents its q is asked for over the table's
lifetime, and forms any later one afresh on every read.
Nothing else is memoised across calls, a path sum's columns included.

Each bound holds one draw's working set.  Every key carries the draw's
parameters, so draws share values only where the parameters are fixed,
not drawn, as at the constant weight 1 of the ``words`` check.  The
smallest LRU cache that loses no hit is one entry longer than the
longest reuse distance, the number of distinct keys asked for between
two uses of one key (Mattson, Gecsei, Slutz and Traiger, Evaluation
techniques for storage hierarchies, IBM Systems Journal, 1970).  Over
``registry``, ``words`` and ``numeric`` passes at seeds 0-9 the longest
distances are 105 for the theta series (``numeric``), 70 for small
weights (the ``words`` check at the constant weight 1), 25 for big
weights (``numeric``) and 1 for the power tables (``registry``, where
``prop-product-expansion`` alternates q and 1/q).
Each bound is the smallest power of two at least 8 times its distance:
1,024, 1,024, 256 and 8.  A table that stores its first powers and no
more loses no hit if it holds all the exponents one table is asked
for, at most 59 over the same passes (``registry``; 38 on ``numeric``),
so by the same rule a table keeps 512.  With the earlier bounds of
65,536, 4,096 and 4,096 a ``registry`` pass at seed 1 kept every value of every finished
draw, 10,586 series entries of about 200 B each, and peaked at 26.2 MB;
with these it peaks at 23.9 MB with the same misses (medians of 10
benchmark runs at ``--seconds 20``), and a full theta series cache
holds about 0.2 MB, not 13 MB.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from functools import lru_cache, partial
from itertools import zip_longest
from math import copysign

from .weightpoly import WeightPolynomial

# Denominator factors smaller than this magnitude are treated as unsafe.
NEAR_POLE_TOL = 1e-12

# Theta truncation: stop once both |p^j x| and |p^(j+1)/x| drop below
# this; the remaining factors differ from 1 by less than double noise.
_FACTOR_EPS = 1e-17
_MAX_FACTORS = 300


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


class VerifyError(RuntimeError):
    """A check could not produce a report (resample cap exceeded, too
    few admissible samples, or no comparison recorded).  Defined here,
    beside the other error types, so that catching it does not load the
    registry; ``verify`` re-exports it."""


def require_finite(z: complex, context: str = "result") -> complex:
    if not cmath.isfinite(z):
        raise EvaluationError(f"non-finite {context}: {z!r}")
    return z


def qpow(q: complex, z) -> complex:
    """q**z.  Exact integer powers for integral z, principal branch otherwise.
    A power beyond the double range, or a negative integer power of 0, is
    an EvaluationError; 0^z for a non-integer z is 0 when Re z > 0 and a
    DomainError otherwise."""
    try:
        if isinstance(z, int):
            return complex(q) ** z
        if isinstance(z, float) and z.is_integer():
            return complex(q) ** int(z)
        if q == 0:
            if complex(z).real > 0:
                return 0.0 + 0.0j
            raise DomainError(f"0^z needs Re z > 0: z = {z!r}")
        return cmath.exp(complex(z) * cmath.log(complex(q)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvaluationError(f"q^z out of range: q = {q!r}, z = {z!r}") from exc


# The most powers one table keeps; a power asked for once the table is
# full is formed afresh each time and not stored.
_POWERS_PER_TABLE = 512


class _Powers(dict):
    # q^k by integer k, each formed once by ``qpow`` on a miss while the
    # table has room; a miss that raises stores nothing, so it raises again
    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q

    def __missing__(self, k):
        value = qpow(self.q, k)
        if len(self) < _POWERS_PER_TABLE:
            self[k] = value
        return value


@lru_cache(maxsize=8)
def _power_tables(key) -> _Powers:
    return _Powers(key[0])


def _q_powers(q) -> _Powers:
    """The power table of q: ``_q_powers(q)[k]`` has the bits of
    ``qpow(q, k)`` for every integer k.

    q is keyed with its type and the signs of its parts: complex(-0.0, 0.5)
    and complex(0.0, 0.5) compare equal, but their powers differ in the
    sign of a zero."""
    return _power_tables((q, type(q), copysign(1.0, q.real), copysign(1.0, q.imag)))


def complex_to_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


class ParameterSet(namedtuple("ParameterSet", "a b q p")):
    """The parameter quadruple (a, b, q, p) with nome restriction |p| < 1.

    Zero entries are permitted here so that degenerate limits stay
    expressible (for example a = b = 0, p = 0 reduces brackets to their
    plain q-analogues).  Weight-family constructors impose their own
    nonzero requirements on top.  Each entry is stored as a complex.
    """

    __slots__ = ()

    def __new__(cls, a, b, q, p):
        a, b, q, p = (require_finite(complex(v), name)
                      for name, v in zip(cls._fields, (a, b, q, p)))
        if abs(p) >= 1:
            raise DomainError(f"nome must satisfy |p| < 1, got |p| = {abs(p)}")
        return tuple.__new__(cls, (a, b, q, p))

    def shift(self, a_pow: int = 0, b_pow: int = 0) -> "ParameterSet":
        """Replace (a, b) by (a q^a_pow, b q^b_pow)."""
        return ParameterSet(self.a * qpow(self.q, a_pow),
                            self.b * qpow(self.q, b_pow), self.q, self.p)

    def swapped(self) -> "ParameterSet":
        """Exchange the roles of a and b."""
        return ParameterSet(self.b, self.a, self.q, self.p)


def theta(x, p) -> complex:
    """theta(x; p) for |p| < 1: 1 - x when p = 0, else for x != 0 only.

    The one per-factor rule: ``theta_quotient`` calls it for each factor.
    For p != 0 it is the series cache itself, keyed on x and p as given;
    they are converted and checked on a cache miss only."""
    # first: every factor of a q-shifted factorial takes this branch
    if p == 0:
        x = complex(x)
        if cmath.isfinite(x):
            return 1.0 - x
        require_finite(x, "theta argument")
    return _theta_series(x, p)


def _nome(p) -> complex:
    p = complex(p)
    if abs(p) >= 1:
        raise DomainError(f"theta requires |p| < 1, got |p| = {abs(p)}")
    return require_finite(p, "nome")


@lru_cache(maxsize=1024)
def _theta_series(x, p) -> complex:
    # keyed on the arguments as given: spellings that compare equal, such
    # as 1, 1.0, 1+0j and complex(1, -0.0), share one entry, as their
    # complex forms would.  p and x are converted and checked here, on a
    # cache miss only: a call that raises is not cached, so a bad nome, a
    # non-finite x or x = 0 raises on every call.
    p = _nome(p)
    x = require_finite(complex(x), "theta argument")
    if x == 0:
        raise DomainError("theta(x; p) is undefined at x = 0 for p != 0")
    result = 1.0 + 0.0j
    pj = 1.0 + 0.0j
    inv_x = 1.0 / x
    for _ in range(_MAX_FACTORS):
        t1 = pj * x
        pj = pj * p
        t2 = pj * inv_x
        if abs(t1) < _FACTOR_EPS and abs(t2) < _FACTOR_EPS:
            break
        result *= (1.0 - t1) * (1.0 - t2)
    return require_finite(result, "theta value")


def theta_quotient(nums, dens, p) -> complex:
    """prod_i theta(nums[i]; p) / theta(dens[i]; p), the one place a theta
    or q-shifted factorial quotient is formed.

    The nome is checked once per call.  The numerator and denominator
    products are divided once, as complex division rounds worse than
    multiplication; a product about to leave [1e-300, 1e300] is divided
    out early, so no quotient is inf / inf.  A denominator factor below
    NEAR_POLE_TOL in magnitude goes to ``guarded``, so a PoleError
    carries its index.  Equal factors are skipped after their guard:
    z / z need not round to 1.  The shorter list is padded with factors
    1, so a plain product or the reciprocal of one is a single call.  A
    quotient beyond the double range is an EvaluationError.
    """
    p = _nome(p)
    one = 1.0 + 0.0j
    result = num_prod = den_prod = one
    for index, (x, y) in enumerate(zip_longest(nums, dens)):
        num = one if x is None else theta(x, p)
        den = one if y is None else theta(y, p)
        den_abs = abs(den)
        if den_abs < NEAR_POLE_TOL:
            guarded(den, index, "denominator theta factor")
        if num == den:
            continue
        if not (1e-300 < abs(num_prod) * abs(num) < 1e300
                and 1e-300 < abs(den_prod) * den_abs < 1e300):
            result *= num_prod / den_prod
            num_prod = den_prod = one
        num_prod *= num
        den_prod *= den
    return require_finite(result * (num_prod / den_prod), "theta quotient")


def _shifted(bases, q, start: int, stop: int) -> list:
    # x q^j for j in range(start, stop) and x in bases, j-major: a base
    # list of length L gives entry L (j - start) + i = bases[i] q^j.  A
    # base 1 gives the exact powers q^j, the arguments of (q; q)_n.
    pw = _q_powers(q)
    powers = [pw[j] for j in range(start, stop)]
    return [x * qj for qj in powers for x in bases]


def guarded(value: complex, index: int = 0, what: str = "denominator factor") -> complex:
    """Guard a single denominator factor against exact and near poles."""
    if value == 0:
        raise PoleError(f"{what} {index} vanished", index)
    if abs(value) < NEAR_POLE_TOL:
        raise NearPoleError(f"{what} {index} is near zero: {value!r}")
    return value


def qp_factorial(a, q, p, n: int) -> complex:
    """Theta shifted factorial (a; q, p)_n for any integer n: the product
    of theta(a q^j; p) over 0 <= j < n, or the reciprocal of the product
    over n <= j < 0.

    At p = 0 the theta factors are 1 - a q^j, so this is (a; q)_n, also
    at a = 0.
    """
    a = complex(a)
    q = complex(q)
    if n >= 0:
        return theta_quotient(_shifted((a,), q, 0, n), (), p)
    return theta_quotient((), _shifted((a,), q, n, 0), p)


def q_binomial(n: int, k: int, q) -> complex:
    """Gaussian binomial coefficient [n, k]_q = (q^(1+k); q)_(n-k) / (q; q)_(n-k)."""
    if k < 0 or k > n:
        return 0.0 + 0.0j
    q = complex(q)
    return theta_quotient(_shifted((_q_powers(q)[1 + k],), q, 0, n - k),
                          _shifted((1,), q, 1, n - k + 1), 0.0)


def _ratio(x: complex, d: complex) -> complex:
    # x / d for x = a q^k, d = b q^l, or with a and b exchanged.
    # Degenerate convention: the numerator's parameter goes to 0 first,
    # so 0/0 is 0.
    if x == 0:
        return 0.0 + 0.0j
    if d == 0:
        raise DomainError("a/b or b/a undefined: zero denominator, nonzero numerator")
    return x / d


class WeightFamily:
    """Base class.  Subclasses provide ``small``; the rest has defaults."""

    symbolic = False

    def small(self, s: int, t: int):
        raise NotImplementedError

    def big(self, s: int, t: int):
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        return self._column(s, t)[t]

    def _column(self, s: int, top: int) -> list:
        # [W(s, 0), ..., W(s, top)], each entry the one before times w(s, t)
        column = [self._one()]
        for t in range(1, top + 1):
            weight = column[-1] * self.small(s, t)
            column.append(weight if self.symbolic else require_finite(weight, "big weight"))
        return column

    def binom(self, n: int, k: int):
        """``path_binom``; subclasses override with closed forms."""
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return self._zero()
        return path_binom(n, k, self)

    def _zero(self):
        return 0.0 + 0.0j

    def _one(self):
        return 1.0 + 0.0j


def path_binom(n: int, k: int, family: WeightFamily):
    """Lattice-path form of the weight-dependent binomial coefficient:
    the sum over monotone paths (0,0) -> (k, n-k) whose east step
    (s-1, t) -> (s, t) weighs W(s, t), one ``_column`` at a time."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"path_binom needs 0 <= k <= n, got ({n}, {k})")
    # row[t] = [s + t, s], updated in place from column s - 1 to column s
    row = [family._one()] * (n - k + 1)
    for s in range(1, k + 1):
        column = family._column(s, n - k)
        for t in range(1, n - k + 1):
            row[t] = row[t] * column[t] + row[t - 1]
    return row[-1]


class GenericWeights(WeightFamily):
    """Fully symbolic weights; every w(s, t) stays an opaque symbol."""

    symbolic = True

    def small(self, s: int, t: int) -> WeightPolynomial:
        if s < 1 or t < 1:
            raise DomainError(f"generic weight needs s, t >= 1, got ({s}, {t})")
        return WeightPolynomial.symbol(s, t)

    def _zero(self):
        return WeightPolynomial.zero()

    def _one(self):
        return WeightPolynomial.one()


def _small_thetas(ps: ParameterSet, s: int, t: int) -> tuple:
    # theta arguments (numerators, denominators) of w(s, t) / q
    a, b, pw = ps.a, ps.b, _q_powers(ps.q)
    return ([a * pw[s + 2 * t], b * pw[2 * s + t - 2], _ratio(a * pw[t - s - 1], b)],
            [a * pw[s + 2 * t - 2], b * pw[2 * s + t], _ratio(a * pw[t - s + 1], b)])


@lru_cache(maxsize=1024)
def _elliptic_small(ps: ParameterSet, s: int, t: int) -> complex:
    nums, dens = _small_thetas(ps, s, t)
    return theta_quotient(nums, dens, ps.p) * ps.q


@lru_cache(maxsize=256)
def _elliptic_big(ps: ParameterSet, s: int, t: int) -> complex:
    # closed theta form of prod_{k=1}^{t} w(s, k) for t >= 1
    a, b, pw = ps.a, ps.b, _q_powers(ps.q)
    return theta_quotient(
        [a * pw[s + 2 * t], b * pw[2 * s], b * pw[2 * s - 1],
         _ratio(a * pw[1 - s], b), _ratio(a * pw[-s], b)],
        [a * pw[s], b * pw[2 * s + t], b * pw[2 * s + t - 1],
         _ratio(a * pw[t - s + 1], b), _ratio(a * pw[t - s], b)],
        ps.p) * pw[t]


class EllipticWeights(WeightFamily):
    """The four-parameter theta weight family.

    For p != 0 all of a, b, q must be nonzero.  At p = 0 the same theta
    formulas hold with theta(x; 0) = 1 - x, and zero a, b are admitted
    under the ordered-limit convention (a -> 0 before b -> 0, so a/b -> 0),
    which reproduces the one-parameter and plain-q degenerations.
    """

    def __init__(self, ps: ParameterSet):
        if ps.q == 0:
            raise DomainError("elliptic weights need q != 0")
        if ps.p != 0 and (ps.a == 0 or ps.b == 0):
            raise DomainError("elliptic weights need a, b nonzero when p != 0")
        self.ps = ps

    def small(self, s: int, t: int) -> complex:
        return _elliptic_small(self.ps, s, t)

    def big(self, s: int, t: int) -> complex:
        """Closed theta form of the column product."""
        if t < 0:
            raise DomainError("big weight needs t >= 0")
        if t == 0:
            return 1.0 + 0.0j
        return _elliptic_big(self.ps, s, t)

    def _column(self, s: int, top: int) -> list:
        # the closed forms of ``big``, read without a Python call per entry
        column = [1.0 + 0.0j]
        for t in range(1, top + 1):
            column.append(_elliptic_big(self.ps, s, t))
        return column

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return 0.0 + 0.0j
        a, b, pw = self.ps.a, self.ps.b, _q_powers(self.ps.q)
        # 4 (n - k) factor pairs, j-major: pair 4j + i is factor j of the
        # i-th theta factorial, (q^(1+k), a q^(1+k), b q^(1+k), a q^(1-k)/b)
        # over (q, a q, b q^(1+2k), a q/b), each shifted by q^j
        nums, dens = [], []
        for j in range(n - k):
            top, low = pw[1 + k + j], pw[1 + j]
            nums += (top, a * top, b * top, _ratio(a * pw[1 - k + j], b))
            dens += (low, a * low, b * pw[1 + 2 * k + j], _ratio(a * low, b))
        return theta_quotient(nums, dens, self.ps.p)


class BQWeights(EllipticWeights):
    """One-parameter family w(s, t) = (1 - b q^(2s+t-2)) / (1 - b q^(2s+t)) q:
    the theta weight at (a, b, q, p) = (0, b, q, 0)."""

    def __init__(self, b, q):
        super().__init__(ParameterSet(0.0, b, q, 0.0))


class AQWeights(WeightFamily):
    """One-parameter family w(s, t) = (1 - a q^(s+2t)) / (1 - a q^(s+2t-2)) / q:
    the dual 1 / w(t, s) of the b;q weight at b = a.  Big weights are the
    inherited column product."""

    def __init__(self, a, q):
        self.a = complex(a)
        self.q = complex(q)
        if self.q == 0:
            raise DomainError("aq weights need q != 0")
        self._dual_ps = ParameterSet(0.0, self.a, self.q, 0.0)

    def small(self, s: int, t: int) -> complex:
        nums, dens = _small_thetas(self._dual_ps, t, s)
        return theta_quotient(dens, nums, 0.0) * _q_powers(self.q)[-1]

    def binom(self, n: int, k: int) -> complex:
        if n < 0:
            raise DomainError("binom needs n >= 0")
        if k < 0 or k > n:
            return 0.0 + 0.0j
        a, q = self.a, self.q
        pw = _q_powers(q)
        # 2 (n - k) factor pairs, j-major: pair 2j + i is factor j of the
        # i-th factorial, (q^(1+k); q) over (q; q), then (a q^(1+k); q)
        # over (a q; q)
        return theta_quotient(
            _shifted((pw[1 + k], a * pw[1 + k]), q, 0, n - k),
            _shifted((1, a), q, 1, n - k + 1), 0.0) * pw[k * (k - n)]

class QWeights(EllipticWeights):
    """Constant family w(s, t) = q, the classical q-specialisation: the
    theta weight at (a, b, q, p) = (0, 0, q, 0)."""

    def __init__(self, q):
        super().__init__(ParameterSet(0.0, 0.0, q, 0.0))


def bracket_z(ps: ParameterSet, z, u: int = 0, v: int = 0) -> complex:
    """The z-bracket at the parameters (a q^u, b q^v)

        [z] = theta(q^z, a q^z, b q^2, a/b; p)
            / theta(q, a q, b q^(z+1), a q^(z-1)/b; p),

    each argument formed from its whole exponent (a q^(u+z), not
    (a q^u) q^z), so the offsets (u, v) follow the argument rule and
    ``bracket_z(ps, z, u, v)`` is ``bracket_z(ps.shift(u, v), z)``
    rounded once.  Integer z reads each power from the table of q;
    otherwise every power takes ``qpow``'s principal branch.  At p = 0 this is the same formula with
    theta(x; 0) = 1 - x, and zero parameters are allowed, so [z]
    degenerates through (a, b) -> 0 to (1 - q^z)/(1 - q).
    """
    a, b, q = ps.a, ps.b, ps.q
    power = _q_powers(q).__getitem__ if isinstance(z, int) else partial(qpow, q)
    return theta_quotient(
        [power(z), a * power(u + z), b * power(v + 2), _ratio(a * power(u - v), b)],
        [q, a * power(u + 1), b * power(v + z + 1), _ratio(a * power(u - v + z - 1), b)],
        ps.p)


def exp_coeff_bq(b, q, n: int) -> complex:
    """Taylor coefficient 1 / ((q; q)_n (bq; q)_n) of e_{b;q} and F_{b;q}.

    The a-parameter twin e_{a;q} has the same coefficient shape, so this
    helper serves both, fed a in place of b; at b = 0 it is 1 / (q; q)_n,
    the coefficient of the q-exponential e_q.
    """
    return theta_quotient((), _shifted((1, complex(b)), q, 1, n + 1), 0.0)


def reversal_coeff_bq(b, q, l: int, k: int) -> complex:
    """Coefficient c with x^l y^k = c y^k x^l in the b-shifted algebra:

        c = (b q^(1+k); q)_(2l) / (b q; q)_(2l) * q^(-k l).
    """
    b, pw = complex(b), _q_powers(q)
    return theta_quotient(_shifted((b * pw[1 + k],), q, 0, 2 * l),
                          _shifted((b,), q, 1, 2 * l + 1), 0.0) * pw[-k * l]


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
