"""Words in two generators, rewriting systems, and normal ordering.

Words are strings over the alphabet {x, y}.  Three rewriting systems act
on them, each replacing a descent yx according to its defining relation:

    Homogeneous   yx = w(1,1) xy
    RookWeyl      yx = w(1,1) xy + 1
    File          yx = w(1,1) xy + y

All three share the scalar commutation rules

    x w(s, t) = w(s+1, t) x,        y w(s, t) = w(s, t+1) y,

so a weight symbol created in the middle of a word picks up index shifts
as it moves to the front.  Repeated rewriting terminates in a normal
form: a sum of monomials x^i y^j with exact WeightPolynomial
coefficients.  For the homogeneous system the normal form is
independent of which descent is rewritten first.  For RookWeyl and File
it is not: the lower-order terms produced by the inhomogeneous part can
carry differently indexed symbols depending on the order (yxyx is the
smallest example), although all orders agree once the weights are
evaluated at a constant family.  Rewriting the rightmost descent first
is therefore the canonical strategy, and it is the one the placement
theorems describe.

Normal ordering does not rewrite descents one at a time.  It sweeps the
word letter by letter and carries the normal form of the part already
read: right to left for rightmost-first rewriting, left to right for
leftmost-first (see ``normal_order``).  The only rewriting left is in
two small tables, the normal forms of y x^i and y^j x, built from the
defining one-step rewrite; no board polynomial is used, so the
placement theorems remain an independent check.  The y x^i table
(``_y_x_power``) is kept across calls because every prepended y reads
it: built per call up to i = 7 it would cost 0.067 ms under RookWeyl
and 0.135 ms under File, against 0.318 ms and 0.433 ms for a whole
warm 12-letter word.  The y^j x table (``_y_power_x_table``) and the
powers of x + y are built per call.  ``power_sum_values`` runs the
append sweep of (x + y)^n with complex coefficients, evaluating each
shifted y^j x entry under a numeric family, so the numeric
binomial-theorem checks still read the one-step rewrite but build no
symbolic power.

A normal form prints as a sum of c x^i y^j (``sum_chunks``, shared with
the command line's evaluated normal forms), and both its text and its
JSON are produced in chunks, one term at a time, so a large one is
written without being held whole.

Weight families from ``special_fn`` are substituted only after
rewriting, keeping the combinatorial layer exact.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import chain

from .special_fn import DomainError
from .weightpoly import WeightPolynomial

__all__ = [
    "Word", "WordParseError", "RelationSystem", "NormalForm", "parse_word",
    "normal_order", "expand_power_sum", "power_sum_values", "sum_chunks",
    "WeightPolynomial",
]

Word = str


class WordParseError(ValueError):
    """Word text contained a character outside {x, y}.

    ``position`` is the index of the first offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def parse_word(text: str) -> Word:
    """Parse word text over {x, y}, case-insensitively, into canonical
    lowercase form.  Any other character is an error with its position."""
    out = []
    for index, ch in enumerate(text):
        low = ch.lower()
        if low not in ("x", "y"):
            raise WordParseError(
                f"invalid character {ch!r} at index {index}; expected x or y", index)
        out.append(low)
    return "".join(out)


class RelationSystem(enum.Enum):
    """The three rewriting systems, tagged by their CLI names."""

    HOMOGENEOUS = "comm"
    ROOK_WEYL = "weyl"
    FILE = "file"

    @classmethod
    def from_tag(cls, tag: str) -> "RelationSystem":
        for member in cls:
            if member.value == tag.lower():
                return member
        raise DomainError(
            f"unknown relation system {tag!r}; expected one of "
            f"{[m.value for m in cls]}")


def sum_chunks(terms: dict):
    """Text chunks of the sum of c x^i y^j over terms {(i, j): c}, c the
    text of a coefficient as a string or an iterable of chunks.  Terms go
    by descending total degree, then x-degree, joined by " + "; a
    coefficient "1" before a monomial is left out, and an empty sum is
    "0"."""
    if not terms:
        yield "0"
    for index, (i, j) in enumerate(sorted(terms, key=lambda key: (-(key[0] + key[1]), -key[0]))):
        if index:
            yield " + "
        text = terms[(i, j)]
        powers = " ".join(f"{v}^{n}" if n > 1 else v for v, n in (("x", i), ("y", j)) if n)
        if powers and text == "1":
            yield powers
            continue
        yield from text
        if powers:
            yield " " + powers


class NormalForm:
    """A finite sum  sum_{i,j} c_{i,j} x^i y^j  with WeightPolynomial
    coefficients.  Immutable by convention; zero coefficients are never
    stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        cleaned = {}
        for (i, j), c in coeffs.items():
            if isinstance(c, int):
                c = WeightPolynomial.from_int(c)
            if not c.is_zero():
                cleaned[(int(i), int(j))] = c
        self.coeffs = cleaned

    @classmethod
    def unit(cls) -> "NormalForm":
        return cls({(0, 0): WeightPolynomial.one()})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "NormalForm":
        return cls({(i, j): coeff})

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        total = dict(self.coeffs)
        for key, c in other.coeffs.items():
            prior = total.get(key)
            total[key] = c if prior is None else prior + c
        return NormalForm(total)

    def evaluate(self, family) -> dict:
        """Substitute family weights for the symbols in every coefficient;
        the coefficients share one weight cache."""
        cache = {}
        return {key: c.evaluate(family, cache) for key, c in self.coeffs.items()}

    def __str__(self) -> str:
        return "".join(self.text_chunks())

    def text_chunks(self):
        """The text of ``str``, one term or coefficient piece at a time;
        a coefficient that is not an integer is parenthesised."""
        def text(c):
            const = c._constant()
            if const is None:
                return chain("(", c.text_chunks(), ")")
            return str(const)

        return sum_chunks({key: text(c) for key, c in self.coeffs.items()})

    def __repr__(self) -> str:
        return f"NormalForm({self})"

    def to_json(self) -> dict:
        terms = []
        for (i, j), c in sorted(self.coeffs.items()):
            terms.append({"i": i, "j": j, "coeff": c.to_json()})
        return {"terms": terms}

    def json_chunks(self):
        """The text of ``json.dumps(self.to_json(), sort_keys=True)``,
        one coefficient entry at a time: a long word's document is
        hundreds of megabytes when held whole."""
        yield '{"terms": ['
        for index, ((i, j), c) in enumerate(sorted(self.coeffs.items())):
            yield ', {"coeff": ' if index else '{"coeff": '
            yield from c.json_chunks()
            yield f', "i": {i}, "j": {j}}}'
        yield "]}"


def _accumulate(total: dict, key, piece: WeightPolynomial) -> None:
    prior = total.get(key)
    total[key] = piece if prior is None else prior + piece


@lru_cache(maxsize=4096)
def _y_x_power(i: int, rs: RelationSystem) -> NormalForm:
    """Normal form of y x^i.  Its only descent is the first yx, so
    rewriting it gives w(1,1) x (y x^(i-1)) plus the inhomogeneous term
    x^(i-1) (RookWeyl) or y x^(i-1) (File)."""
    if i == 0:
        return NormalForm.monomial(0, 1)
    rest = _y_x_power(i - 1, rs)
    total = {(a + 1, b): d.shift(1, 0).times_symbol(1, 1)
             for (a, b), d in rest.coeffs.items()}
    if rs is RelationSystem.ROOK_WEYL:
        _accumulate(total, (i - 1, 0), WeightPolynomial.one())
    elif rs is RelationSystem.FILE:
        for key, d in rest.coeffs.items():
            _accumulate(total, key, d)
    return NormalForm(total)


def _prepend(letter: str, nf: NormalForm, rs: RelationSystem) -> NormalForm:
    """Normal form of letter * nf, where nf is the normal form of a suffix."""
    if letter == "x":
        return NormalForm({(i + 1, j): c.shift(1, 0) for (i, j), c in nf.coeffs.items()})
    # fill the cache in order, so the one-step recursion always hits it
    for i in range(max(i for i, _ in nf.coeffs)):
        _y_x_power(i, rs)
    total: dict = {}
    for (i, j), c in nf.coeffs.items():
        c = c.shift(0, 1)
        for (a, b), d in _y_x_power(i, rs).coeffs.items():
            _accumulate(total, (a, b + j), c * d)
    return NormalForm(total)


def _y_power_x_table(top: int, rs: RelationSystem) -> list:
    """The normal forms of y^j x for j = 0, ..., top, built afresh per
    call.  The only descent of y^j x is the last yx, behind y^(j-1), so
    rewriting it gives w(1,j) (y^(j-1) x) y plus the inhomogeneous term
    y^(j-1) (RookWeyl) or y^j (File)."""
    table = [NormalForm.monomial(1, 0)]
    for j in range(1, top + 1):
        total = {(a, b + 1): d.times_symbol(1, j) for (a, b), d in table[-1].coeffs.items()}
        if rs is RelationSystem.ROOK_WEYL:
            _accumulate(total, (0, j - 1), WeightPolynomial.one())
        elif rs is RelationSystem.FILE:
            _accumulate(total, (0, j), WeightPolynomial.one())
        table.append(NormalForm(total))
    return table


def _append(nf: NormalForm, letter: str, rs: RelationSystem) -> NormalForm:
    """Normal form of nf * letter, where nf is the normal form of a prefix.

    Appending x multiplies in the normal forms of y^j x, built for the
    call up to the prefix's largest j (``_y_power_x_table``)."""
    if letter == "y":
        return NormalForm({(i, j + 1): c for (i, j), c in nf.coeffs.items()})
    table = _y_power_x_table(max(j for _, j in nf.coeffs), rs)
    total = {}
    for (i, j), c in nf.coeffs.items():
        for (a, b), d in table[j].coeffs.items():
            _accumulate(total, (i + a, b), c * d.shift(i, 0))
    return NormalForm(total)


def normal_order(word: Word, rs: RelationSystem,
                 strategy: str = "rightmost") -> NormalForm:
    """Normal order a word under the given rewriting system.

    The word is swept one letter at a time, carrying the normal form of
    the part already read.  Rightmost-first rewriting of a word xS or yS
    clears every descent of S before it touches the front letter, so
    the ``rightmost`` strategy reads the letters right to left and
    prepends each to the normal form of the suffix behind it; likewise
    ``leftmost`` reads left to right and appends to the normal form of
    the prefix.  Prepending x (appending y) only moves keys and shifts
    symbols; prepending y (appending x) multiplies in the normal form of
    y x^i (of y^j x), tabulated from the defining one-step rewrite.
    """
    word = parse_word(word)
    result = NormalForm.unit()
    if strategy == "rightmost":
        for letter in reversed(word):
            result = _prepend(letter, result, rs)
    elif strategy == "leftmost":
        for letter in word:
            result = _append(result, letter, rs)
    else:
        raise DomainError(f"unknown strategy {strategy!r}; expected rightmost or leftmost")
    return result


def expand_power_sum(n: int, rs: RelationSystem = RelationSystem.HOMOGENEOUS) -> NormalForm:
    """Normal form of (x + y)^n, appending the letter x + y n times.

    Each word x^i y^j x met on the way has a single descent at every
    rewriting step, so appending x by the tabulated y^j x is exact in all
    three systems.
    """
    if n < 0:
        raise DomainError("expand_power_sum needs n >= 0")
    nf = NormalForm.unit()
    for _ in range(n):
        nf = _append(nf, "x", rs) + _append(nf, "y", rs)
    return nf


def power_sum_values(degree: int, family) -> list:
    """The coefficients of (x + y)^0, ..., (x + y)^degree in the
    homogeneous system under a numeric weight family, as a list of dicts
    {(i, j): complex}, one per power.

    The sweep of ``expand_power_sum`` with complex coefficients: appending
    y moves keys, and appending x multiplies the coefficient at (i, j) by
    each entry of the y^j x normal form, its symbols shifted by (i, 0)
    and evaluated under family.  Letters appended later do not shift the
    symbols to their left, so each coefficient is final once formed.
    Every evaluation shares one weight cache.
    """
    if degree < 0:
        raise DomainError("power_sum_values needs degree >= 0")
    table = _y_power_x_table(max(degree - 1, 0), RelationSystem.HOMOGENEOUS)
    cache: dict = {}
    powers = [{(0, 0): 1.0 + 0.0j}]
    for _ in range(degree):
        total: dict = {}
        for (i, j), c in powers[-1].items():
            for (a, b), d in table[j].coeffs.items():
                key = (i + a, b)
                total[key] = total.get(key, 0.0) + c * d.shift(i, 0).evaluate(family, cache)
        for (i, j), c in powers[-1].items():
            total[(i, j + 1)] = total.get((i, j + 1), 0.0) + c
        powers.append(total)
    return powers
