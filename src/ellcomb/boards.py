"""Ferrers boards, weighted rook and file polynomials, and product formulas.

A Ferrers board B(b_1, ..., b_n) has nondecreasing column heights; its
cells are {(i, j) : 1 <= i <= n, 1 <= j <= b_i}, columns numbered from
the left and rows from the bottom.  Words over {x, y} outline boards:
the i-th x contributes a column whose height is the number of y's read
before it.

Two placement notions live on a board.  A rook placement puts k rooks on
distinct rows and columns; each rook cancels the cells to its right in
its row and below it in its column.  A file placement only requires
distinct columns, and a file rook cancels just the cells below it.  An
uncancelled cell (i, j) is weighted w(i - r, j), where r counts the
placed rooks strictly west and weakly north of the cell; summing the
cell-weight products over all k-placements gives the weighted rook
polynomial r_k(w; B) and file polynomial f_k(w; B).  These are exactly
the normal-ordering coefficients of the outlining word under the
RookWeyl and File rewriting systems.

The polynomials are computed by a column sweep, not by listing
placements, in the spirit of the column recursions of Schlosser and
Yoo (Elliptic rook and file numbers, 2017).  Moving west to east, the
state is the sorted tuple of rows holding the rooks placed so far; it
decides which cells of the next column are cancelled (rows already
used, in rook mode) and r for every cell of that column, so the
weighted sum is carried from column to column per state.  With H the
tallest column there are at most C(H + k, k) states (sum_{j <= k}
C(H, j) for rooks), each with at most H + 1 moves per column of at most
H cells, so for fixed k the cost is polynomial in the board size while
the number of placements grows exponentially.  The sweep's geometry
(states, moves and their (s, t) cells) is cached per (heights, kind, k)
in one bounded cache.  ``placements`` enumerates placements directly
and is the reference the sweep is tested against.

Under the four-parameter theta weights the cell weight specialises to
the single-index w(s - t): rook cells weigh w(i - j - r) and file cells
w(1 - j), and the polynomials enter two product formulas for shifted
z-brackets, implemented here with both sides computed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .special_fn import DomainError, EllipticWeights, GenericWeights, bracket_z
from .weightpoly import WeightPolynomial, _merge_monomials

__all__ = [
    "FerrersBoard", "Placement", "board_from_word", "word_from_board",
    "placements", "rook_poly", "file_poly", "path_binom",
    "rook_product_sides", "file_product_sides", "all_boards_within",
]


@dataclass(frozen=True)
class FerrersBoard:
    """Nondecreasing column heights; zero-height columns are meaningful
    (they embed the board in an n x n square for the product formulas)."""

    heights: tuple

    def __post_init__(self):
        hs = tuple(int(h) for h in self.heights)
        if any(h < 0 for h in hs):
            raise DomainError(f"column heights must be nonnegative: {hs}")
        if any(hs[i] > hs[i + 1] for i in range(len(hs) - 1)):
            raise DomainError(f"column heights must be nondecreasing: {hs}")
        object.__setattr__(self, "heights", hs)

    @property
    def n(self) -> int:
        return len(self.heights)

    def cells(self):
        """All cells (column, row), column-major, rows from the bottom."""
        return [(i, j) for i in range(1, self.n + 1)
                for j in range(1, self.heights[i - 1] + 1)]

    def cell_count(self) -> int:
        return sum(self.heights)

    def conjugate(self) -> "FerrersBoard":
        """Reflection along the anti-diagonal of the n x n square.

        Column i of the conjugate counts the original columns of height
        at least n + 1 - i.  Requires the board to fit in n x n.
        """
        n = self.n
        if self.heights and self.heights[-1] > n:
            raise DomainError(
                f"conjugation needs the board inside its {n} x {n} square")
        return FerrersBoard(tuple(
            sum(1 for h in self.heights if h >= n + 1 - i)
            for i in range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "FerrersBoard":
        text = text.strip()
        if not text:
            return cls(())
        try:
            heights = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise DomainError(f"board text must be comma-separated integers: {text!r}") from None
        return cls(heights)

    def to_text(self) -> str:
        return ",".join(str(h) for h in self.heights)


@dataclass(frozen=True)
class Placement:
    """A set of rook positions (column, row) with its placement kind."""

    rooks: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("rook", "file"):
            raise DomainError(f"placement kind must be rook or file: {self.kind!r}")
        rooks = tuple(sorted((int(c), int(r)) for c, r in self.rooks))
        cols = [c for c, _ in rooks]
        if len(set(cols)) != len(cols):
            raise DomainError("placement has two rooks in one column")
        if self.kind == "rook":
            rows = [r for _, r in rooks]
            if len(set(rows)) != len(rows):
                raise DomainError("rook placement has two rooks in one row")
        object.__setattr__(self, "rooks", rooks)

    def to_json(self) -> list:
        return [[c, r] for c, r in self.rooks]


def board_from_word(word: str) -> FerrersBoard:
    """Board outlined by a word: the i-th x gives a column of height
    equal to the number of y's before it.  Zero heights are kept."""
    from .ncword import parse_word
    word = parse_word(word)
    heights = []
    ys = 0
    for ch in word:
        if ch == "y":
            ys += 1
        else:
            heights.append(ys)
    return FerrersBoard(tuple(heights))


def word_from_board(board: FerrersBoard) -> str:
    """Canonical outlining word (no trailing y's); a left inverse of
    ``board_from_word``."""
    parts = []
    prev = 0
    for h in board.heights:
        parts.append("y" * (h - prev))
        parts.append("x")
        prev = h
    return "".join(parts)


def placements(board: FerrersBoard, k: int, kind: str):
    """All k-placements of the given kind, as Placement values.

    Plain enumeration, exponential in the board size; the board
    polynomials do not use it, and it serves as their reference.
    """
    if k < 0:
        raise DomainError("placement count k must be nonnegative")
    if kind not in ("rook", "file"):
        raise DomainError(f"placement kind must be rook or file: {kind!r}")
    heights = board.heights
    n = len(heights)
    results = []

    def descend(col: int, used_rows: frozenset, chosen: tuple):
        if len(chosen) == k:
            results.append(Placement(chosen, kind))
            return
        if col > n or n - col + 1 < k - len(chosen):
            return
        descend(col + 1, used_rows, chosen)
        for row in range(1, heights[col - 1] + 1):
            if kind == "rook" and row in used_rows:
                continue
            descend(col + 1, used_rows | {row}, chosen + ((col, row),))

    descend(1, frozenset(), ())
    return results


def _column_move(state: tuple, target: tuple, col: int, low: int,
                 height: int, kind: str) -> tuple:
    """One move of the sweep through column ``col``.

    Rows ``low..height`` of the column stay uncancelled, except rows a
    rook to the west already uses in rook mode; each such cell (col, j)
    carries (s, t) = (col - nw, j), nw counting the rows of ``state``
    at or above j.
    """
    cells = tuple((col - sum(1 for r in state if r >= j), j)
                  for j in range(low, height + 1)
                  if kind == "file" or j not in state)
    counts: dict = {}
    for cell in cells:
        counts[cell] = counts.get(cell, 0) + 1
    return state, target, cells, tuple(sorted(counts.items()))


@lru_cache(maxsize=4096)
def _sweep_plan(heights: tuple, kind: str, k: int) -> tuple:
    """The column-by-column transfer for k-placements on a board.

    A sweep state is the sorted tuple of rows holding the rooks placed
    in the columns already swept.  Column i takes each state either
    without a rook, or with a rook at a row r (in rook mode not a row
    the state uses) that cancels the cells below it; the uncancelled
    cells of the column depend only on the state.  Moves that cannot
    end with exactly k rooks are dropped.  Returns the columns, each a
    tuple of (source, target, weight_cells, monomial) moves, and the
    distinct (s, t) over all moves; both depend only on the geometry.
    None when the board has no k-placement.
    """
    n = len(heights)
    # open_after[i]: columns right of column i that can still take a rook
    open_after = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        open_after[i] = open_after[i + 1] + (heights[i] > 0)
    columns = []
    states = [()]
    for col, height in enumerate(heights, start=1):
        moves = []
        for state in states:
            placed = len(state)
            if placed + open_after[col] >= k:
                moves.append(_column_move(state, state, col, 1, height, kind))
            if placed == k or placed + 1 + open_after[col] < k:
                continue
            for row in range(1, height + 1):
                if kind == "rook" and row in state:
                    continue
                target = tuple(sorted(state + (row,)))
                moves.append(_column_move(state, target, col, row + 1, height, kind))
        columns.append(moves)
        states = sorted({move[1] for move in moves})
    alive = {state for state in states if len(state) == k}
    for i in range(n - 1, -1, -1):
        columns[i] = tuple(move for move in columns[i] if move[1] in alive)
        alive = {move[0] for move in columns[i]}
    if () not in alive:
        return None
    cells = sorted({cell for moves in columns for move in moves for cell in move[2]})
    return tuple(columns), tuple(cells)


def _cell_weight(family, kind: str, s: int, t: int):
    if isinstance(family, EllipticWeights):
        return family.single(1 - t) if kind == "file" else family.single(s - t)
    return family.small(s, t)


def _weighted_sum(board: FerrersBoard, k: int, family, kind: str):
    if k < 0:
        raise DomainError("placement count k must be nonnegative")
    symbolic = getattr(family, "symbolic", False)
    plan = _sweep_plan(board.heights, kind, k)
    if plan is None:
        return WeightPolynomial.zero() if symbolic else 0.0 + 0.0j
    columns, cells = plan
    if symbolic:
        acc = {(): {(): 1}}
        for moves in columns:
            nxt: dict = {}
            for source, target, _, mono in moves:
                out = nxt.setdefault(target, {})
                for m, c in acc[source].items():
                    m = _merge_monomials(m, mono)
                    out[m] = out.get(m, 0) + c
            acc = nxt
        terms: dict = {}
        for part in acc.values():
            for m, c in part.items():
                terms[m] = terms.get(m, 0) + c
        return WeightPolynomial(terms)
    weight = {(s, t): _cell_weight(family, kind, s, t) for s, t in cells}
    acc = {(): 1.0 + 0.0j}
    for moves in columns:
        nxt = {}
        for source, target, weight_cells, _ in moves:
            value = acc[source]
            for cell in weight_cells:
                value *= weight[cell]
            nxt[target] = nxt.get(target, 0.0) + value
        acc = nxt
    return sum(acc.values(), 0.0 + 0.0j)


def rook_poly(board: FerrersBoard, k: int, family):
    """Weighted k-rook polynomial r_k(w; B).

    Nonattacking placements; a rook cancels rightward in its row and
    downward in its column; uncancelled cell (i, j) weighs w(i - r, j),
    with the single-index specialisation w(i - j - r) for the
    four-parameter theta family.  Computed by the column sweep over the
    sets of used rows, so the cost is polynomial in the board size for
    fixed k (times the number of output monomials when symbolic), not
    proportional to the number of placements.
    """
    return _weighted_sum(board, k, family, "rook")


def file_poly(board: FerrersBoard, k: int, family):
    """Weighted k-file polynomial f_k(w; B).

    Distinct-column placements; a file rook cancels only downward;
    uncancelled cell (i, j) weighs w(i - r, j), specialising to the
    row-only w(1 - j) for the four-parameter theta family.  Computed by
    the column sweep over the multisets of rook rows, so the cost is
    polynomial in the board size for fixed k (times the number of
    output monomials when symbolic), not proportional to the number of
    placements.
    """
    return _weighted_sum(board, k, family, "file")


def path_binom(n: int, k: int, family):
    """Lattice-path form of the weight-dependent binomial coefficient.

    Sums over monotone paths (0,0) -> (k, n-k), weighting the east step
    (s-1, t) -> (s, t) by the big weight W(s, t) and north steps by 1.
    Must agree with ``family.binom(n, k)``.
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"path_binom needs 0 <= k <= n, got ({n}, {k})")
    symbolic = getattr(family, "symbolic", False)
    one = WeightPolynomial.one() if symbolic else 1.0 + 0.0j
    rows = n - k
    prev = [one] * (rows + 1)
    for s in range(1, k + 1):
        current = [None] * (rows + 1)
        for t in range(rows + 1):
            value = prev[t] * family.big(s, t)
            if t > 0:
                value = value + current[t - 1]
            current[t] = value
        prev = current
    return prev[rows]


def _falling_brackets(ps, z: int, k: int) -> complex:
    """Product of shifted brackets [z] [z-1] ... [z-k+1], the j-th taken
    with parameters (a q^(2(j-1)), b q^(j-1))."""
    result = 1.0 + 0.0j
    for j in range(1, k + 1):
        result *= bracket_z(ps.shift(2 * (j - 1), j - 1), z - j + 1)
    return result


def rook_product_sides(board: FerrersBoard, z: int, ps) -> tuple:
    """Both sides of the rook product formula on B embedded in n x n.

    lhs = prod_i [z + b_i - i + 1] at (a q^(2(i-1-b_i)), b q^(i-1-b_i));
    rhs = sum_k r_{n-k}(B) [z][z-1]...[z-k+1] with the shifted brackets.
    """
    n = board.n
    if board.heights and board.heights[-1] > n:
        raise DomainError(f"board must fit the {n} x {n} square")
    family = EllipticWeights(ps)
    lhs = 1.0 + 0.0j
    for i in range(1, n + 1):
        b_i = board.heights[i - 1]
        shift = i - 1 - b_i
        lhs *= bracket_z(ps.shift(2 * shift, shift), z + b_i - i + 1)
    rhs = 0.0 + 0.0j
    for k in range(n + 1):
        r = rook_poly(board, n - k, family)
        if r == 0:
            continue
        rhs += r * _falling_brackets(ps, z, k)
    return lhs, rhs


def file_product_sides(board: FerrersBoard, z: int, ps) -> tuple:
    """Both sides of the file product formula on B embedded in n x n.

    lhs = prod_i [z + b_i] at (a q^(-2 b_i), b q^(-b_i));
    rhs = sum_k f_{n-k}(B) [z]^k with the unshifted bracket.
    """
    n = board.n
    if board.heights and board.heights[-1] > n:
        raise DomainError(f"board must fit the {n} x {n} square")
    family = EllipticWeights(ps)
    lhs = 1.0 + 0.0j
    for i in range(1, n + 1):
        b_i = board.heights[i - 1]
        lhs *= bracket_z(ps.shift(-2 * b_i, -b_i), z + b_i)
    base = bracket_z(ps, z)
    rhs = 0.0 + 0.0j
    for k in range(n + 1):
        f = file_poly(board, n - k, family)
        if f == 0:
            continue
        rhs += f * base ** k
    return lhs, rhs


def all_boards_within(n: int, max_height: int | None = None):
    """Every Ferrers board with n columns and heights at most max_height
    (default n), including the empty-height board."""
    if max_height is None:
        max_height = n
    boards = []

    def build(prefix, low):
        if len(prefix) == n:
            boards.append(FerrersBoard(tuple(prefix)))
            return
        for h in range(low, max_height + 1):
            build(prefix + [h], h)

    build([], 0)
    return boards
