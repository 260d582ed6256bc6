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
Each call sweeps the board once, forward, and keeps nothing: it takes
each column's states in sorted order and each state's moves in order,
no rook first, then a rook on each free row from the bottom up.  One
walk up the column forms a state's cells, their factors and its move
targets, counting the state's rows below each row: the count gives the
cell's s and the new row's place in the target.  A table per call keyed
by (s, t) holds each cell's factor, its packed symbol (a symbolic move
adds them) or its small weight, so each cell is weighed once.  With
lo > 0 a move is dropped when the nonempty columns left cannot bring
its target state to lo rooks, and only the final states with lo..hi
rooks are summed.  A numeric move is one in-order product, ``math.prod`` of its
cells started at the source state's sum, the same multiplications as a
loop over the cells.  ``placements`` enumerates placements directly
and is the reference the sweep is tested against.

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

from collections import namedtuple
from itertools import combinations_with_replacement
from math import prod
from operator import index

from .special_fn import (DomainError, EllipticWeights, WeightFamily, bracket_z,
                         require_finite)
from .weightpoly import _cell_basis, _pack, _poly
from .ncword import parse_word

__all__ = [
    "FerrersBoard", "Placement", "board_from_word", "word_from_board",
    "placements", "rook_poly", "file_poly", "rook_product_lhs",
    "rook_product_sides", "file_product_sides", "SingleIndexCells",
    "all_boards_within",
]


class FerrersBoard(namedtuple("FerrersBoard", "heights")):
    """Nondecreasing column heights; zero-height columns are meaningful
    (they embed the board in an n x n square for the product formulas)."""

    __slots__ = ()

    def __new__(cls, heights):
        try:
            hs = tuple(map(index, heights))
        except TypeError:
            raise DomainError(f"column heights must be integers: {heights!r}") from None
        if any(h < 0 for h in hs):
            raise DomainError(f"column heights must be nonnegative: {hs}")
        if any(hs[i] > hs[i + 1] for i in range(len(hs) - 1)):
            raise DomainError(f"column heights must be nondecreasing: {hs}")
        return tuple.__new__(cls, (hs,))

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


class Placement(namedtuple("Placement", "rooks kind")):
    """A set of rook positions (column, row) with its placement kind."""

    __slots__ = ()

    def __new__(cls, rooks, kind):
        if kind not in ("rook", "file"):
            raise DomainError(f"placement kind must be rook or file: {kind!r}")
        try:
            rooks = tuple(sorted((index(c), index(r)) for c, r in rooks))
        except TypeError:
            raise DomainError(f"rook positions must be integers: {rooks!r}") from None
        except ValueError:
            raise DomainError(f"rook positions must be (column, row) pairs: {rooks!r}") from None
        cols = [c for c, _ in rooks]
        if len(set(cols)) != len(cols):
            raise DomainError("placement has two rooks in one column")
        if kind == "rook":
            rows = [r for _, r in rooks]
            if len(set(rows)) != len(rows):
                raise DomainError("rook placement has two rooks in one row")
        return tuple.__new__(cls, (rooks, kind))


def board_from_word(word: str) -> FerrersBoard:
    """Board outlined by a word: the i-th x gives a column of height
    equal to the number of y's before it.  Zero heights are kept."""
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


def _placement_count(k) -> int:
    """k as an int; a DomainError unless it is a nonnegative integer."""
    try:
        k = index(k)
    except TypeError:
        raise DomainError(f"placement count k must be an integer: {k!r}") from None
    if k < 0:
        raise DomainError("placement count k must be nonnegative")
    return k


def placements(board: FerrersBoard, k: int, kind: str):
    """All k-placements of the given kind, as Placement values.

    Plain enumeration, exponential in the board size; the board
    polynomials do not use it, and it serves as their reference.
    """
    k = _placement_count(k)
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


def _weighted_sums(board: FerrersBoard, family, kind: str, lo: int, hi: int) -> list:
    """[p_lo, ..., p_hi], the weighted sums over placements of each size,
    from one forward sweep.  A numeric sum beyond the double range is an
    EvaluationError."""
    symbolic = getattr(family, "symbolic", False)
    rook = kind == "rook"
    heights = board.heights
    n = len(heights)
    # the zero-height columns come first, so the columns after col hold
    # n - max(col, zeros) nonempty columns, each room for one rook
    zeros = heights.count(0)
    factor: dict = {}  # (s, t) -> packed symbol or small weight
    if symbolic:
        # every cell has 1 <= s <= n and 1 <= t <= the last height, and a
        # column adds each (s, t) at most once to a monomial, so no
        # exponent exceeds n; in one packed frame a move's product is
        # the sum of the packed monomials, and every coefficient is a
        # positive count
        basis = _cell_basis([(1, 1), (n, heights[-1])] if n and heights[-1] else [], n)
        acc = {(): {0: 1}}
    else:
        acc = {(): 1.0 + 0.0j}
    for col, height in enumerate(heights, start=1):
        # a target with fewer rooks than this cannot reach lo
        need = lo - (n - max(col, zeros))
        nxt: dict = {}
        for state in sorted(acc):
            # below counts the state's rows under row j; a rook at the
            # i-th free row leaves the cells above it, so move i goes to
            # targets[i] and weighs factors[i:], move 0 placing no rook
            placed = len(state)
            room = placed < hi
            factors = []
            targets = [state]
            below = 0
            for j in range(1, height + 1):
                at = below
                while at < placed and state[at] == j:
                    at += 1
                if at == below or not rook:
                    cell = (col - placed + below, j)
                    value = factor.get(cell)
                    if value is None:
                        value = factor[cell] = (_pack(basis[0], ((cell, 1),)) if symbolic
                                                else family.small(*cell))
                    factors.append(value)
                    if room:
                        targets.append(state[:below] + (j,) + state[below:])
                below = at
            part = acc[state]
            if symbolic:
                for start, target in enumerate(targets):
                    if len(target) >= need:
                        tail = sum(factors[start:])
                        out = nxt.setdefault(target, {})
                        for m, c in part.items():
                            m += tail
                            out[m] = out.get(m, 0) + c
                continue
            for start, target in enumerate(targets):
                if len(target) >= need:
                    nxt[target] = nxt.get(target, 0.0) + prod(factors[start:], start=part)
        acc = nxt
    finals = [(state, part) for state, part in acc.items() if len(state) >= lo]
    if symbolic:
        sums = [{} for _ in range(lo, hi + 1)]
        for state, part in finals:
            terms = sums[len(state) - lo]
            for m, c in part.items():
                terms[m] = terms.get(m, 0) + c
        return [_poly(terms, *basis) for terms in sums]
    sums = [0.0 + 0.0j] * (hi - lo + 1)
    for state, value in finals:
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
    k = _placement_count(k)
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
    k = _placement_count(k)
    sums = _weighted_sums(board, family, "file", 0 if every else k, k)
    return sums if every else sums[0]


class SingleIndexCells(WeightFamily):
    """The cells of the product formulas: under the theta weight w of
    ``ps`` a rook cell (s, t) weighs w(1, s - t) and a file cell
    w(1, 1 - t)."""

    def __init__(self, ps, kind: str):
        if kind not in ("rook", "file"):
            raise DomainError(f"cell kind must be rook or file: {kind!r}")
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
