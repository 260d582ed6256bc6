"""Reference code the tests compare the library against.

Nothing in the library calls these; each is the plain, slow form of
something the library computes another way, kept here as an oracle:

* ``placements`` lists rook and file placements one by one, against
  which the column sweep of ``boards.rook_poly`` and ``file_poly`` is
  checked;
* ``word_from_board`` inverts ``boards.board_from_word``;
* ``multiply`` multiplies two normal forms by normal-ordering each pair
  of monomials, against which the letter sweeps of ``ncword`` are
  checked;
* ``TableWeights`` weighs each cell from an explicit table, so a test
  can give every cell an independent value;
* ``q_bracket`` is the q-number [z]_q, the p = 0, a = b = 0 case of
  ``special_fn.bracket_z``;
* ``poly_from_json`` reads a ``WeightPolynomial.to_json`` document back,
  so a test can check that the document determines the polynomial.
"""

from ellcomb.ncword import NormalForm, normal_order
from ellcomb.special_fn import DomainError, WeightFamily, qpow, theta_quotient
from ellcomb.weightpoly import WeightPolynomial


def placements(board, k: int, kind: str) -> list:
    """All k-placements of the given kind ("rook" or "file"), each the
    tuple of its rook positions (column, row) in column order.

    Depth first, each node's children in the order no rook in the
    column, then a rook at rows 1, 2, ...; exponential in the board
    size."""
    heights = board.heights
    n = len(heights)
    results = []
    # the stack holds each node's children reversed
    stack = [(1, frozenset(), ())]
    while stack:
        col, used_rows, chosen = stack.pop()
        if len(chosen) == k:
            results.append(chosen)
            continue
        if col > n or n - col + 1 < k - len(chosen):
            continue
        children = [(col + 1, used_rows, chosen)]
        children += [(col + 1, used_rows | {row}, chosen + ((col, row),))
                     for row in range(1, heights[col - 1] + 1)
                     if kind == "file" or row not in used_rows]
        stack += reversed(children)
    return results


def word_from_board(board) -> str:
    """Canonical outlining word (no trailing y's); a left inverse of
    ``board_from_word``."""
    parts = []
    prev = 0
    for h in board.heights:
        parts.append("y" * (h - prev))
        parts.append("x")
        prev = h
    return "".join(parts)


def multiply(a: NormalForm, b: NormalForm, rs) -> NormalForm:
    """Product of two normal forms, re-normally-ordered.

    Coefficients of the right factor travel left past the left factor's
    monomial, picking up the index shift (i, j) for x^i y^j crossed."""
    total = NormalForm({})
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            scalar = c1 * c2.shift(i1, j1)
            cross = normal_order("x" * i1 + "y" * j1 + "x" * i2 + "y" * j2, rs)
            total = total + NormalForm({key: c * scalar for key, c in cross.coeffs.items()})
    return total


class TableWeights(WeightFamily):
    """Weights read from an explicit finite table {(s, t): value}."""

    def __init__(self, table: dict):
        self.table = {(int(s), int(t)): complex(v) for (s, t), v in table.items()}

    def small(self, s: int, t: int) -> complex:
        try:
            return self.table[(s, t)]
        except KeyError:
            raise DomainError(f"no table entry for cell ({s}, {t})") from None


def q_bracket(z, q) -> complex:
    """The q-number [z]_q = (1 - q^z) / (1 - q)."""
    q = complex(q)
    return theta_quotient([qpow(q, z)], [q], 0.0)


def poly_from_json(doc) -> WeightPolynomial:
    """The polynomial of ``to_json`` entries, read into the constructor's
    tuple form {monomial: c}, which adds repeated symbols' exponents and
    refuses an exponent below 1; repeated monomials add their c here."""
    terms = {}
    for entry in doc:
        mono = tuple((tuple(map(int, key.split(","))), e) for key, e in entry["monomial"])
        terms[mono] = terms.get(mono, 0) + entry["c"]
    return WeightPolynomial(terms)
