"""Exact polynomials in the cell-weight symbols w(s, t).

The coefficient ring for symbolic normal ordering: commuting symbols
w(s, t) indexed by integer pairs, integer coefficients, all arithmetic
exact.  A monomial is stored as a sorted tuple of ((s, t), exponent)
pairs with positive exponents; the polynomial maps monomials to nonzero
integer coefficients.  The empty monomial () is the constant 1.
"""

from __future__ import annotations

from bisect import bisect_left

Monomial = tuple


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: the shorter one's pairs are inserted into
    the longer one by bisection, so pairs that do not change are reused."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    if not m2:
        return m1
    out = list(m1)
    lo = 0
    for pair in m2:
        key = pair[0]
        # (key,) sorts before every (key, e), so this finds key's slot
        lo = bisect_left(out, (key,), lo)
        if lo < len(out) and out[lo][0] == key:
            out[lo] = (key, out[lo][1] + pair[1])
        else:
            out.insert(lo, pair)
    return tuple(out)


class WeightPolynomial:
    """Integer-coefficient polynomial in the symbols w(s, t)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @classmethod
    def zero(cls) -> "WeightPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "WeightPolynomial":
        return cls({(): 1})

    @classmethod
    def from_int(cls, n: int) -> "WeightPolynomial":
        return cls({(): int(n)}) if n else cls()

    @classmethod
    def symbol(cls, s: int, t: int) -> "WeightPolynomial":
        return cls({(((s, t), 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = WeightPolynomial.from_int(other)
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "WeightPolynomial":
        if isinstance(other, int):
            other = WeightPolynomial.from_int(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            n = out.get(m, 0) + c
            if n:
                out[m] = n
            elif m in out:
                del out[m]
        poly = WeightPolynomial.__new__(WeightPolynomial)
        poly.terms = out
        return poly

    __radd__ = __add__

    def __neg__(self) -> "WeightPolynomial":
        poly = WeightPolynomial.__new__(WeightPolynomial)
        poly.terms = {m: -c for m, c in self.terms.items()}
        return poly

    def __sub__(self, other) -> "WeightPolynomial":
        if isinstance(other, int):
            other = WeightPolynomial.from_int(other)
        return self + (-other)

    def __mul__(self, other) -> "WeightPolynomial":
        if isinstance(other, int):
            if other == 0:
                return WeightPolynomial.zero()
            poly = WeightPolynomial.__new__(WeightPolynomial)
            poly.terms = {m: c * other for m, c in self.terms.items()}
            return poly
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                n = out.get(m, 0) + c1 * c2
                if n:
                    out[m] = n
                elif m in out:
                    del out[m]
        poly = WeightPolynomial.__new__(WeightPolynomial)
        poly.terms = out
        return poly

    __rmul__ = __mul__

    def times_symbol(self, s: int, t: int) -> "WeightPolynomial":
        """Fast multiplication by a single symbol w(s, t)."""
        factor = (((s, t), 1),)
        out = {_merge_monomials(m, factor): c for m, c in self.terms.items()}
        poly = WeightPolynomial.__new__(WeightPolynomial)
        poly.terms = out
        return poly

    def shift(self, ds: int, dt: int) -> "WeightPolynomial":
        """Rename every symbol w(s, t) to w(s + ds, t + dt)."""
        if ds == 0 and dt == 0:
            return self
        # a uniform shift keeps the symbols of a monomial in sorted order
        out = {tuple(((s + ds, t + dt), e) for (s, t), e in m): c
               for m, c in self.terms.items()}
        poly = WeightPolynomial.__new__(WeightPolynomial)
        poly.terms = out
        return poly

    def evaluate(self, family, cache: dict | None = None) -> complex:
        """Substitute numeric weights from a family for the symbols."""
        if getattr(family, "symbolic", False):
            from .special_fn import DomainError
            raise DomainError("cannot evaluate symbols against a symbolic family")
        if cache is None:
            cache = {}
        total = 0.0 + 0.0j
        for m, c in self.terms.items():
            value = complex(c)
            for key, e in m:
                w = cache.get(key)
                if w is None:
                    w = complex(family.small(key[0], key[1]))
                    cache[key] = w
                value *= w if e == 1 else w ** e
            total += value
        return total

    def monomials(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"WeightPolynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.monomials():
            factors = []
            if c != 1 or not m:
                factors.append(str(c))
            for (s, t), e in m:
                sym = f"w({s},{t})"
                factors.append(sym if e == 1 else f"{sym}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def json_entries(self):
        """The entries of ``to_json``, one at a time, in the same order."""
        for m, c in self.monomials():
            yield {"monomial": [[f"{s},{t}", e] for (s, t), e in m], "c": c}

    def to_json(self) -> list:
        return list(self.json_entries())

    @classmethod
    def from_json(cls, data) -> "WeightPolynomial":
        terms = {}
        for entry in data:
            mon = []
            for key, e in entry["monomial"]:
                s_txt, t_txt = key.split(",")
                mon.append(((int(s_txt), int(t_txt)), int(e)))
            terms[tuple(sorted(mon))] = int(entry["c"])
        return cls(terms)
