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
weighted sum is carried from column to column per state.  A state's
moves share one row of (s, t) cells per column: a rook on a row leaves
the cells above it, a suffix of that row.  With H the tallest column
there are at most C(H + k, k) states (sum_{j <= k} C(H, j) for rooks),
each with at most H + 1 moves per column of at most H cells, so for
fixed k the cost is polynomial in the board size while the number of
placements grows exponentially.  The final states hold any number of
rooks from lo to hi, so one sweep gives every k in that range:
``rook_poly`` and ``file_poly`` sweep k..k, or 0..k with ``every``.
The sweep's geometry is cached per (heights, kind, lo, hi) in one
bounded cache.  A plan holds one row per state and column, (source,
cells, targets, starts): move m goes to targets[m] and weighs
cells[starts[m]:].  Within a column each target state and each cell
(s, t) is made once and shared by every row that uses it, and the plan
keeps its sorted final states.  A plan with lo = 0 is
the cached plan of the board without its last column plus that one
column, so every column of a board, and of the boards sharing its
prefix, is built once; a plan with lo > 0 (a single k) is the lo = 0
plan with the same hi pruned by a backward pass, to drop the moves that
cannot reach lo rooks.  Across calls the cache serves boards met again,
as the product-formula checks sample their boards from the 70 inside
the 4 x 4 square at every draw, but that win is not shown: with plans
kept for one call only, a ``registry`` and a ``numeric`` pass at seed 1
took 1.5 % and 2.2 % longer, inside their spread over 5 alternating
pairs, and peaked 5 % and 4 % lower in memory.  Its bound of 4,096 is
not sized to one draw, as the theta-family bounds are, because a plan
depends on the board alone and its reuse crosses draws and words: a
``registry`` pass at seed 1 builds 625 distinct plans and hits them
6,614 times, the longest reuse distance (distinct plans asked for
between two uses of one plan) is 564, and 96 hits would be lost by a
256-entry cache; a ``numeric`` pass at seed 1 builds 302 plans with a
longest distance of 257.  A draw-sized bound would lose hits, so
whether plans should live for one call stays open.  A numeric move is
one in-order product, ``math.prod`` of its cells started at the source
state's sum, the same multiplications as a loop over the cells.
``placements`` enumerates placements directly and is the reference the
sweep is tested against.

Every family weighs a cell by its small weight w(s, t), so under the
theta weight the polynomials are the normal-ordering coefficients.  The
two product formulas for shifted z-brackets (Schlosser and Yoo) weigh a
cell by the single-index theta weight w(1, m) instead, with m = s - t
for rook cells and m = 1 - t for file cells; the product sides name
those cells as the family ``SingleIndexCells`` and compute both sides
independently.  Their z-brackets take the unshifted parameters and
the exact offsets of each shift (``bracket_z(ps, z, u, v)``), so every
theta argument follows the argument rule of ``special_fn`` and meets
the cell weights' theta values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod

from .special_fn import (DomainError, EllipticWeights, WeightFamily, bracket_z,
                         require_finite)
from .weightpoly import WeightPolynomial, _cell_basis, _poly, _suffix_monomials

__all__ = [
    "FerrersBoard", "Placement", "board_from_word", "word_from_board",
    "placements", "rook_poly", "file_poly", "path_binom", "rook_product_lhs",
    "rook_product_sides", "file_product_sides", "SingleIndexCells",
    "all_boards_within",
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
    # depth first, each node's children in the order (no rook in column
    # col, then a rook at rows 1, 2, ...); the stack holds them reversed
    stack = [(1, frozenset(), ())]
    while stack:
        col, used_rows, chosen = stack.pop()
        if len(chosen) == k:
            results.append(Placement(chosen, kind))
            continue
        if col > n or n - col + 1 < k - len(chosen):
            continue
        children = [(col + 1, used_rows, chosen)]
        children += [(col + 1, used_rows | {row}, chosen + ((col, row),))
                     for row in range(1, heights[col - 1] + 1)
                     if kind == "file" or row not in used_rows]
        stack += reversed(children)
    return results


@lru_cache(maxsize=4096)
def _sweep_plan(heights: tuple, kind: str, lo: int, hi: int) -> tuple:
    """The column-by-column transfer for placements of lo..hi rooks.

    A sweep state is the sorted tuple of rows holding the rooks placed
    in the columns already swept.  Column ``col`` takes each state either
    without a rook, or with a rook at a row r (in rook mode not a row
    the state uses) that cancels the cells below it.  The uncancelled
    cells of the column depend only on the state: the rows it leaves
    free, bottom-up, each (col, j) carrying (s, t) = (col - nw, j) with
    nw counting the state's rows at or above j.  A rook on the i-th free
    row leaves the cells above it, so every move of a state weighs a
    suffix of one shared cell row.

    A plan with lo = 0 is the plan of ``heights[:-1]`` with one more
    column: the columns before the last see at most n - 1 rooks, so the
    prefix is looked up with hi capped at n - 1, and boards that share a
    prefix share its columns.  Its forward pass adds no rook beyond hi
    and keeps every state's move without a rook.  A plan with lo > 0 is
    the plan with lo = 0 and the same hi, pruned backward: the moves
    that cannot end with between lo and hi rooks go, and each row is cut
    to the cells its kept moves use.  Each call looks up one shorter
    prefix, so a caller that builds a long board's prefixes in
    ascending order (``_weighted_sums``) recurses one level at most.

    Returns (columns, cells, finals).  Each column is a tuple of rows
    (source, cells, targets, starts): the row's moves go from the source
    state to targets[m], weighted by cells[starts[m]:].  Within a column
    each target state and each (s, t) is one shared object, however many
    rows use it.  ``cells`` holds the distinct (s, t) over all rows, and
    ``finals`` the sorted states the last column ends in; all three
    depend only on the geometry.  None when the board has no placement
    of lo..hi rooks.
    """
    if lo > 0:
        return _pruned(_sweep_plan(heights, kind, 0, hi), lo, hi)
    n = len(heights)
    if not n:
        return (), (), ((),)
    columns, cells, states = _sweep_plan(heights[:-1], kind, 0, min(hi, n - 1))
    height = heights[-1]
    # every state keeps its move without a rook, so the states are targets
    targets_made = {state: state for state in states}
    cells_made: dict = {}
    spans = [tuple(range(m + 1)) for m in range(height + 1)]
    rows = []
    for state in states:
        placed = len(state)
        free = [j for j in range(1, height + 1) if kind == "file" or j not in state]
        row_cells = []
        for j in free:
            cell = (n - placed + bisect_left(state, j), j)
            row_cells.append(cells_made.setdefault(cell, cell))
        targets = [state]
        if placed < hi:
            for row in free:
                target = tuple(sorted(state + (row,)))
                targets.append(targets_made.setdefault(target, target))
        rows.append((state, tuple(row_cells), tuple(targets), spans[len(targets) - 1]))
    cells = tuple(sorted(set(cells).union(cells_made)))
    return columns + (tuple(rows),), cells, tuple(sorted(targets_made.values()))


def _pruned(plan: tuple, lo: int, hi: int):
    # the lo = 0 plan cut to the moves that end with lo..hi rooks; a row
    # keeps the suffix of its cells from its first kept move's start
    columns, _, finals = plan
    columns = list(columns)
    finals = tuple(state for state in finals if lo <= len(state) <= hi)
    alive = set(finals)
    for i in range(len(columns) - 1, -1, -1):
        kept = []
        for source, cells, targets, starts in columns[i]:
            keep = [m for m, target in enumerate(targets) if target in alive]
            if keep:
                first = starts[keep[0]]
                kept.append((source, cells[first:], tuple(targets[m] for m in keep),
                             tuple(starts[m] - first for m in keep)))
        columns[i] = tuple(kept)
        alive = {row[0] for row in kept}
    if () not in alive:
        return None
    cells = sorted({cell for rows in columns for row in rows for cell in row[1]})
    return tuple(columns), tuple(cells), finals


def _weighted_sums(board: FerrersBoard, family, kind: str, lo: int, hi: int) -> list:
    """[p_lo, ..., p_hi], the weighted sums over placements of each size,
    from one sweep.  A numeric sum beyond the double range is an
    EvaluationError."""
    if hi < 0:
        raise DomainError("placement count k must be nonnegative")
    symbolic = getattr(family, "symbolic", False)
    heights = board.heights
    for m in range(len(heights)):
        # the prefixes in ascending order, each found or built from the
        # one before it, so no plan build recurses deeper than one level
        _sweep_plan(heights[:m], kind, 0, min(hi, m))
    plan = _sweep_plan(heights, kind, lo, hi)
    if plan is None:
        return [WeightPolynomial.zero() if symbolic else 0.0 + 0.0j
                for _ in range(lo, hi + 1)]
    columns, cells, _ = plan
    if symbolic:
        # a column adds each (s, t) at most once to a monomial, so no
        # exponent exceeds the number of columns; in one packed frame a
        # move's product is the sum of the packed monomials, and every
        # coefficient is a positive count
        basis = _cell_basis(cells, len(columns))
        acc = {(): {0: 1}}
        for rows in columns:
            nxt: dict = {}
            for source, row_cells, targets, starts in rows:
                tails = _suffix_monomials(basis, row_cells)
                part = acc[source]
                for target, start in zip(targets, starts):
                    tail = tails[start]
                    out = nxt.setdefault(target, {})
                    for m, c in part.items():
                        m += tail
                        out[m] = out.get(m, 0) + c
            acc = nxt
        sums = [{} for _ in range(lo, hi + 1)]
        for state, part in acc.items():
            terms = sums[len(state) - lo]
            for m, c in part.items():
                terms[m] = terms.get(m, 0) + c
        return [_poly(terms, *basis) for terms in sums]
    weight = {cell: family.small(*cell) for cell in cells}
    acc = {(): 1.0 + 0.0j}
    for rows in columns:
        nxt = {}
        for source, row_cells, targets, starts in rows:
            factors = [weight[cell] for cell in row_cells]
            base = acc[source]
            for target, start in zip(targets, starts):
                nxt[target] = nxt.get(target, 0.0) + prod(factors[start:], start=base)
        acc = nxt
    sums = [0.0 + 0.0j] * (hi - lo + 1)
    for state, value in acc.items():
        sums[len(state) - lo] += value
    return [require_finite(value, "weighted board sum") for value in sums]


def rook_poly(board: FerrersBoard, k: int, family, *, every: bool = False):
    """Weighted k-rook polynomial r_k(w; B); with ``every`` the list
    [r_0, ..., r_k] from the same one sweep.

    Nonattacking placements; a rook cancels rightward in its row and
    downward in its column; uncancelled cell (i, j) weighs w(i - r, j).
    Computed by the column sweep over the sets of used rows, so the cost
    is polynomial in the board size for fixed k (times the number of
    output monomials when symbolic), not proportional to the number of
    placements.  The product formula and the normal-ordering
    coefficients need every r_j, hence ``every``.
    """
    sums = _weighted_sums(board, family, "rook", 0 if every else k, k)
    return sums if every else sums[0]


def file_poly(board: FerrersBoard, k: int, family, *, every: bool = False):
    """Weighted k-file polynomial f_k(w; B); with ``every`` the list
    [f_0, ..., f_k] from the same one sweep.

    Distinct-column placements; a file rook cancels only downward;
    uncancelled cell (i, j) weighs w(i - r, j).  Computed by the column
    sweep over the multisets of rook rows, so the cost is polynomial in
    the board size for fixed k (times the number of output monomials
    when symbolic), not proportional to the number of placements.
    """
    sums = _weighted_sums(board, family, "file", 0 if every else k, k)
    return sums if every else sums[0]


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


class SingleIndexCells(WeightFamily):
    """The cells of the product formulas: under the theta weight w of
    ``ps`` a rook cell (s, t) weighs w(1, s - t) and a file cell
    w(1, 1 - t)."""

    def __init__(self, ps, kind: str):
        self.theta = EllipticWeights(ps)
        self.kind = kind

    def small(self, s: int, t: int) -> complex:
        return self.theta.small(1, 1 - t if self.kind == "file" else s - t)


def rook_product_lhs(board: FerrersBoard, z: int, ps) -> complex:
    """The left side of the rook product formula on B embedded in n x n:
    prod_i [z + b_i - i + 1] at (a q^(2(i-1-b_i)), b q^(i-1-b_i))."""
    n = board.n
    if board.heights and board.heights[-1] > n:
        raise DomainError(f"board must fit the {n} x {n} square")
    lhs = 1.0 + 0.0j
    for i in range(1, n + 1):
        b_i = board.heights[i - 1]
        shift = i - 1 - b_i
        lhs *= bracket_z(ps, z + b_i - i + 1, 2 * shift, shift)
    return lhs


def rook_product_sides(board: FerrersBoard, z: int, ps) -> tuple:
    """Both sides of the rook product formula on B embedded in n x n.

    lhs = prod_i [z + b_i - i + 1] at (a q^(2(i-1-b_i)), b q^(i-1-b_i))
    (``rook_product_lhs``);
    rhs = sum_k r_{n-k}(B) [z][z-1]...[z-k+1] with the shifted brackets.
    """
    lhs = rook_product_lhs(board, z, ps)
    n = board.n
    family = SingleIndexCells(ps, "rook")
    rook = rook_poly(board, n, family, every=True)
    rhs = 0.0 + 0.0j
    # falling = [z][z-1]...[z-k+1], the j-th bracket taken with
    # parameters (a q^(2(j-1)), b q^(j-1))
    falling = 1.0 + 0.0j
    for k in range(n + 1):
        if k:
            falling *= bracket_z(ps, z - k + 1, 2 * (k - 1), k - 1)
        r = rook[n - k]
        if r == 0:
            continue
        rhs += r * falling
    return lhs, rhs


def file_product_sides(board: FerrersBoard, z: int, ps) -> tuple:
    """Both sides of the file product formula on B embedded in n x n.

    lhs = prod_i [z + b_i] at (a q^(-2 b_i), b q^(-b_i));
    rhs = sum_k f_{n-k}(B) [z]^k with the unshifted bracket.
    """
    n = board.n
    if board.heights and board.heights[-1] > n:
        raise DomainError(f"board must fit the {n} x {n} square")
    family = SingleIndexCells(ps, "file")
    lhs = 1.0 + 0.0j
    for i in range(1, n + 1):
        b_i = board.heights[i - 1]
        lhs *= bracket_z(ps, z + b_i, -2 * b_i, -b_i)
    base = bracket_z(ps, z)
    files = file_poly(board, n, family, every=True)
    rhs = 0.0 + 0.0j
    for k in range(n + 1):
        f = files[n - k]
        if f == 0:
            continue
        rhs += f * base ** k
    return lhs, rhs


def all_boards_within(n: int, max_height: int | None = None):
    """Every Ferrers board with n columns and heights at most max_height
    (default n), including the empty-height board, in lexicographic
    order of the heights."""
    if max_height is None:
        max_height = n
    if n < 0 or max_height < 0:
        raise DomainError(
            f"board size needs n >= 0 and max_height >= 0, got ({n}, {max_height})")
    return [FerrersBoard(heights)
            for heights in combinations_with_replacement(range(max_height + 1), n)]
