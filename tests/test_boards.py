"""Ferrers boards, placements, and the weighted polynomials on them."""

import cmath
import gc
import hashlib
import random
import time
import tracemalloc

import pytest

import ellcomb.boards as boards_mod
import ellcomb.cli as cli
from ellcomb.boards import (
    FerrersBoard,
    Placement,
    SingleIndexCells,
    all_boards_within,
    board_from_word,
    file_poly,
    file_product_sides,
    placements,
    rook_poly,
    rook_product_sides,
    word_from_board,
)
from ellcomb.special_fn import (
    DomainError,
    EllipticWeights,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    QWeights,
    TableWeights,
    WeightFamily,
    _ratio,
    bracket_z,
    path_binom,
    q_bracket,
    qpow,
    theta_quotient,
)
from ellcomb.ncword import RelationSystem, normal_order
from ellcomb.weightpoly import WeightPolynomial


def w(s, t):
    return WeightPolynomial.symbol(s, t)


def draw_annulus(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * phi)


def draw_ps(rng):
    return ParameterSet(
        draw_annulus(rng, 0.2, 2.0), draw_annulus(rng, 0.2, 2.0),
        draw_annulus(rng, 0.3, 0.9), draw_annulus(rng, 0.05, 0.5))


def test_board_validation():
    FerrersBoard((0, 1, 1, 2))
    FerrersBoard(())
    with pytest.raises(DomainError):
        FerrersBoard((2, 1))
    with pytest.raises(DomainError):
        FerrersBoard((-1, 0))
    # a non-integer entry is refused, not truncated, and text is not
    # split into digits (FerrersBoard.from_text("12") is one column)
    for heights in ((1.7, 2.9), "12"):
        with pytest.raises(DomainError, match="must be integers"):
            FerrersBoard(heights)
    with pytest.raises(DomainError, match="must be integers"):
        Placement([(1.9, 2.2)], "rook")
    # a position that is not a (column, row) pair is refused the same way
    for rooks in ([(1, 2, 3)], [(1,)]):
        with pytest.raises(DomainError, match="pairs"):
            Placement(rooks, "rook")


def test_placement_kinds_are_rook_or_file():
    # every entry point that takes a kind refuses any other, so a typo
    # never weighs the cells of the other kind
    ps = ParameterSet(0.3 + 0.1j, 0.4, 0.5 + 0.2j, 0.1)
    for kind in ("File", "rooks", "", None):
        with pytest.raises(DomainError):
            SingleIndexCells(ps, kind)
        with pytest.raises(DomainError):
            Placement(((1, 1),), kind)
        with pytest.raises(DomainError):
            placements(FerrersBoard((1, 2)), 1, kind)
    assert SingleIndexCells(ps, "file").small(2, 1) == EllipticWeights(ps).small(1, 0)
    assert SingleIndexCells(ps, "rook").small(2, 1) == EllipticWeights(ps).small(1, 1)


def test_placement_count_must_be_an_integer():
    # k is read with operator.index, as the heights are: a float or a
    # string is refused, never truncated or compared, and an int-like
    # value counts as its int
    board = FerrersBoard((1, 2, 2))

    class Two:
        def __index__(self):
            return 2

    for k in (1.0, "1", None, 2.5):
        for count in (lambda k: rook_poly(board, k, GenericWeights()),
                      lambda k: file_poly(board, k, GenericWeights(), every=True),
                      lambda k: placements(board, k, "rook")):
            with pytest.raises(DomainError, match="must be an integer"):
                count(k)
    assert rook_poly(board, Two(), GenericWeights()) == rook_poly(board, 2, GenericWeights())
    assert placements(board, Two(), "file") == placements(board, 2, "file")
    with pytest.raises(DomainError, match="nonnegative"):
        file_poly(board, -1, GenericWeights())


def test_board_text_round_trip():
    board = FerrersBoard((1, 2, 2, 3))
    assert FerrersBoard.from_text(board.to_text()) == board
    assert FerrersBoard.from_text("") == FerrersBoard(())
    with pytest.raises(DomainError):
        FerrersBoard.from_text("1,two")


def test_conjugate_frozen_and_involutive():
    assert FerrersBoard((1, 2, 2, 3)).conjugate() == FerrersBoard((0, 1, 3, 4))
    for board in all_boards_within(4):
        assert board.conjugate().conjugate() == board
        assert board.conjugate().cell_count() == board.cell_count()


def test_board_from_word_frozen():
    assert board_from_word("yxyxxyxy") == FerrersBoard((1, 2, 2, 3))
    assert board_from_word("xyxxyxyy") == FerrersBoard((0, 1, 1, 2))
    assert board_from_word("xxx") == FerrersBoard((0, 0, 0))
    assert board_from_word("yy") == FerrersBoard(())


def test_word_board_round_trip():
    rng = random.Random(51)
    for _ in range(40):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 10)))
        board = board_from_word(word)
        # the round trip recovers the board, not necessarily the word:
        # trailing y's never appear in word_from_board output
        assert board_from_word(word_from_board(board)) == board


def test_placement_counts_all_one_weights():
    ones = QWeights(1.0)
    assert abs(rook_poly(FerrersBoard((1, 2, 2, 3)), 2, ones) - 14) < 1e-12
    assert abs(file_poly(FerrersBoard((1, 2)), 2, ones) - 2) < 1e-12
    assert abs(file_poly(FerrersBoard((1,)), 1, ones) - 1) < 1e-12
    # k = 0 always has the single empty placement
    for board in all_boards_within(3):
        assert len(placements(board, 0, "rook")) == 1
        assert len(placements(board, 0, "file")) == 1


def test_placement_sets_match_polynomials():
    ones = QWeights(1.0)
    rng = random.Random(52)
    for board in all_boards_within(3):
        for k in range(4):
            assert abs(rook_poly(board, k, ones) - len(placements(board, k, "rook"))) < 1e-12
            assert abs(file_poly(board, k, ones) - len(placements(board, k, "file"))) < 1e-12
    with pytest.raises(DomainError):
        placements(FerrersBoard((1,)), 1, "queen")


def test_rook_poly_symbolic_frozen():
    gen = GenericWeights()
    # the rook's own cell is cancelled along with its row and column arms
    assert rook_poly(FerrersBoard((1,)), 1, gen) == WeightPolynomial.one()
    got = rook_poly(FerrersBoard((1, 2)), 1, gen)
    assert got == w(1, 1) + w(1, 1) * w(2, 2) + w(2, 2)
    # empty placement keeps the full product of cell weights
    got = rook_poly(FerrersBoard((1, 1)), 0, gen)
    assert got == w(1, 1) * w(2, 1)


def test_file_poly_symbolic_frozen():
    gen = GenericWeights()
    # a file rook cancels only its own cell and the cells below it, so
    # placing on (1,1) leaves (1,2) weighted while (1,2) clears the column
    got = file_poly(FerrersBoard((2,)), 1, gen)
    assert got == 1 + w(1, 2)
    got = file_poly(FerrersBoard((1, 1)), 2, gen)
    assert got == WeightPolynomial.one()


def test_rook_file_polys_on_zero_height_columns():
    gen = GenericWeights()
    board = FerrersBoard((0, 0, 2))
    assert rook_poly(board, 1, gen) == 1 + w(3, 2)
    assert rook_poly(board, 2, gen) == WeightPolynomial.zero()


def oracle_cells(board, placement):
    """(s, t) of every uncancelled cell of one placement, by brute force:
    cancel below each rook (and right of it in rook mode), then count
    the rooks strictly west and weakly north of each remaining cell."""
    rooks = placement.rooks
    cancelled = set(rooks)
    for c, r in rooks:
        cancelled.update((c, r2) for r2 in range(1, r))
        if placement.kind == "rook":
            cancelled.update((c2, r) for c2 in range(c + 1, board.n + 1))
    return [(i - sum(1 for c, r in rooks if c < i and r >= j), j)
            for i, j in board.cells() if (i, j) not in cancelled]


def boards_within(size):
    return [board for n in range(size + 1)
            for board in all_boards_within(n, max_height=size)]


def test_sweep_matches_placement_oracle_symbolic():
    gen = GenericWeights()
    for board in boards_within(4):
        for kind, poly in (("rook", rook_poly), ("file", file_poly)):
            for k in range(board.n + 2):
                want = WeightPolynomial.zero()
                for placement in placements(board, k, kind):
                    term = WeightPolynomial.one()
                    for s, t in oracle_cells(board, placement):
                        term = term.times_symbol(s, t)
                    want = want + term
                assert poly(board, k, gen) == want, (board, kind, k)


def test_sweep_matches_placement_oracle_elliptic():
    # The product-formula cells take the single-index weights w(1, s - t)
    # (rook) and w(1, 1 - t) (file); the sums cancel, so agreement is
    # judged against the absolute-weight mass, whose eps multiple bounds
    # the roundoff.
    rng = random.Random(59)
    for board in boards_within(5):
        while True:
            ps = draw_ps(rng)
            try:
                weight = {m: EllipticWeights(ps).small(1, m) for m in range(-5, 5)}
            except (NearPoleError, DomainError):
                continue
            break
        for kind, poly in (("rook", rook_poly), ("file", file_poly)):
            fam = SingleIndexCells(ps, kind)
            for k in range(board.n + 1):
                want = 0.0 + 0.0j
                mass = 0.0
                for placement in placements(board, k, kind):
                    term = 1.0 + 0.0j
                    for s, t in oracle_cells(board, placement):
                        term *= weight[s - t if kind == "rook" else 1 - t]
                    want += term
                    mass += abs(term)
                got = poly(board, k, fam)
                assert abs(got - want) <= 1e-13 * mass, (board, kind, k)


class AbsSmall(WeightFamily):
    """Absolute values of a family's small weights: the sweep under it
    gives the absolute-weight mass of each placement sum."""

    def __init__(self, family):
        self.family = family

    def small(self, s, t):
        return abs(self.family.small(s, t))


def test_elliptic_sweep_gives_the_normal_ordering_coefficients():
    # Under the theta weight at p != 0, r_k of the outlining board is the
    # coefficient of x^(m-k) y^(n-k) in the Weyl normal form and f_k that
    # of x^(m-k) y^n in the file normal form; the normal forms are
    # evaluated from their symbolic coefficients, the polynomials by the
    # numeric sweep, and agreement is judged against the mass.
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        ps = draw_ps(rng)
        word = "".join(rng.choice("xy") for _ in range(rng.randint(6, 10)))
        board = board_from_word(word)
        m, n = word.count("x"), word.count("y")
        fam = EllipticWeights(ps)
        try:
            cases = [
                (normal_order(word, RelationSystem.ROOK_WEYL).evaluate(fam),
                 rook_poly(board, min(m, n), fam, every=True),
                 rook_poly(board, min(m, n), AbsSmall(fam), every=True),
                 lambda k: (m - k, n - k)),
                (normal_order(word, RelationSystem.FILE).evaluate(fam),
                 file_poly(board, m, fam, every=True),
                 file_poly(board, m, AbsSmall(fam), every=True),
                 lambda k: (m - k, n)),
            ]
        except NearPoleError:
            continue
        for coeffs, sums, masses, key in cases:
            assert set(coeffs) <= {key(k) for k in range(len(sums))}, word
            for k, (got, mass) in enumerate(zip(sums, masses)):
                want = coeffs.get(key(k), 0.0)
                assert abs(got - want) <= 1e-13 * abs(mass), (word, ps, k)
        checked += 1


def test_every_k_sweep_matches_single_k_sweeps():
    # every=True runs the lo = 0 plan, a single k the lo = hi = k plan;
    # the symbolic sums agree exactly, and the numeric sums multiply the
    # same cells and add the same moves in the same order, so they agree
    # to the last bit.
    gen = GenericWeights()
    rng = random.Random(60)
    for board in boards_within(4):
        while True:
            ps = draw_ps(rng)
            try:
                for m in range(-4, 4):
                    EllipticWeights(ps).small(1, m)
            except (NearPoleError, DomainError):
                continue
            break
        for kind, poly in (("rook", rook_poly), ("file", file_poly)):
            fam = SingleIndexCells(ps, kind)
            symbolic = poly(board, board.n, gen, every=True)
            numeric = poly(board, board.n, fam, every=True)
            assert len(symbolic) == len(numeric) == board.n + 1
            for k in range(board.n + 1):
                assert symbolic[k] == poly(board, k, gen), (board, kind, k)
                assert numeric[k] == poly(board, k, fam), (board, kind, k)
    for poly in (rook_poly, file_poly):
        with pytest.raises(DomainError):
            poly(FerrersBoard((1,)), -1, gen, every=True)


def test_long_board_sweeps_without_deep_recursion():
    # 1,502 columns, swept by one loop over the columns
    board = FerrersBoard((0,) * 1500 + (1, 2))
    r0, r1, r2 = rook_poly(board, 2, GenericWeights(), every=True)
    assert str(r0) == "w(1501,1)*w(1502,1)*w(1502,2)"
    assert str(r1) == "w(1501,1) + w(1501,1)*w(1502,2) + w(1502,2)"
    assert str(r2) == "1"


def test_rook_product_carries_falling_brackets(monkeypatch):
    # n brackets for the column product, n more carried into the falling
    # product [z][z-1]...[z-k+1] one factor at a time
    calls = []

    def counting_bracket_z(ps, z, *offsets):
        calls.append(z)
        return bracket_z(ps, z, *offsets)

    monkeypatch.setattr(boards_mod, "bracket_z", counting_bracket_z)
    ps = ParameterSet(0.3 + 0.1j, 0.4, 0.5 + 0.2j, 0.1)
    for board in (FerrersBoard((1, 2)), FerrersBoard((0, 1, 3)), FerrersBoard((1, 2, 3, 4, 5))):
        calls.clear()
        rook_product_sides(board, 3, ps)
        assert len(calls) == 2 * board.n, board


def test_numeric_sweep_is_the_per_move_loop(monkeypatch):
    # math.prod with the source sum as its start does the same
    # multiplications in the same order as a loop over the cells of the
    # move, bottom-up, so every sum is bit for bit the loop's (repr
    # tells every bit of a finite double); each cell weighs an
    # independent draw, so a reordered product would show
    rng = random.Random(62)
    weights = {(s, t): draw_annulus(rng, 0.5, 2.0) for s in range(-6, 7) for t in range(7)}
    table = TableWeights(weights)
    row_of = {value: t for (_, t), value in weights.items()}

    def loop_prod(factors, *, start):
        rows = [row_of[factor] for factor in factors]
        assert rows == sorted(rows)
        value = start
        for factor in factors:
            value *= factor
        return value

    for board in boards_within(5):
        n = board.n
        for kind in ("rook", "file"):
            for lo, hi in [(0, n)] + [(k, k) for k in range(n + 2)]:
                got = boards_mod._weighted_sums(board, table, kind, lo, hi)
                with monkeypatch.context() as patch:
                    patch.setattr(boards_mod, "prod", loop_prod)
                    want = boards_mod._weighted_sums(board, table, kind, lo, hi)
                assert list(map(repr, got)) == list(map(repr, want)), (board, kind, lo)


def test_each_cell_is_weighed_once_per_call():
    # a sweep keeps one factor per (s, t) for the call, so small is asked
    # for each distinct cell at most once, however many states meet it
    rng = random.Random(65)
    weights = {(s, t): draw_annulus(rng, 0.5, 2.0) for s in range(-6, 7) for t in range(7)}

    class Counting(TableWeights):
        def small(self, s, t):
            asked.append((s, t))
            return super().small(s, t)

    table = Counting(weights)
    for board in boards_within(5):
        for poly in (rook_poly, file_poly):
            asked = []
            poly(board, board.n, table, every=True)
            assert len(asked) == len(set(asked)), (board, poly.__name__)


def test_board_polys_keep_nothing_beyond_the_call():
    # a sweep's states, cells and weights live for one call, so once a
    # rook or file number is returned and dropped no memory stays held
    rng = random.Random(64)
    table = TableWeights({(s, t): draw_annulus(rng, 0.5, 2.0)
                          for s in range(1, 9) for t in range(1, 8)})
    board = FerrersBoard((1, 2, 2, 4, 5, 6, 7, 7))
    tracemalloc.start()
    try:
        for poly in (rook_poly, file_poly):
            for family in (table, GenericWeights()):
                before = tracemalloc.get_traced_memory()[0]
                value = poly(board, 4, family)
                del value
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
                assert retained < 1 << 13, (poly.__name__, family, retained)
    finally:
        tracemalloc.stop()


def _old_bracket_z(ps, z):
    # bracket_z with a q^z and the other arguments formed from the
    # unshifted (a, b): the reference for offsets (0, 0)
    a, b, q = ps.a, ps.b, ps.q
    qz = qpow(q, z)
    return theta_quotient([qz, a * qz, b * qpow(q, 2), _ratio(a, b)],
                          [q, a * q, b * qpow(q, z + 1), _ratio(a * qpow(q, z - 1), b)],
                          ps.p)


def test_bracket_without_offsets_is_the_old_formula():
    rng = random.Random(63)
    for _ in range(60):
        ps = draw_ps(rng)
        for point in (ps, ParameterSet(ps.a, ps.b, ps.q, 0.0),
                      ParameterSet(0.0, ps.b, ps.q, 0.0), ParameterSet(0.0, 0.0, ps.q, 0.0)):
            for z in (-2, -1, 0, 1, 2, 3, 5, 0.5, 2.25):
                try:
                    want = _old_bracket_z(point, z)
                except DomainError:
                    with pytest.raises(DomainError):
                        bracket_z(point, z)
                    continue
                assert bracket_z(point, z) == want, (point, z)


def test_bracket_offsets_are_the_shifted_parameter_set():
    # (u, v) forms each argument from its whole exponent, where
    # ps.shift(u, v) rounds a q^u and b q^v first: equal to roundoff
    rng = random.Random(64)
    worst = 0.0
    for _ in range(60):
        ps = draw_ps(rng)
        for u, v in ((0, 0), (2, 1), (-4, -2), (6, 3), (-3, 2), (1, -5)):
            for z in (-1, 0, 1, 2, 4):
                try:
                    want = bracket_z(ps.shift(u, v), z)
                except DomainError:
                    continue
                got = bracket_z(ps, z, u, v)
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    assert worst < 1e-11, worst


def test_product_sides_miss_the_theta_cache_once_per_argument(monkeypatch):
    # the brackets take the unshifted parameters and exact offsets, so
    # an argument that a bracket shares with another bracket or with a
    # cell weight has the same bits and misses the theta cache once:
    # after clear_caches() the misses equal the distinct arguments,
    # counted to 12 significant digits
    import ellcomb
    from ellcomb import special_fn

    seen = []
    theta = special_fn.theta

    def recording_theta(x, p):
        if p != 0:
            seen.append(complex(x))
        return theta(x, p)

    def key(x):
        r = abs(x)
        return f"{r:.11e}", round(x.real / r, 11), round(x.imag / r, 11)

    monkeypatch.setattr(special_fn, "theta", recording_theta)
    rng = random.Random(65)
    for board in (FerrersBoard((1, 2, 3, 5, 5)), FerrersBoard((0, 2, 2, 4)),
                  FerrersBoard((2, 3, 3, 4, 6, 6))):
        for sides in (rook_product_sides, file_product_sides):
            while True:
                ps = draw_ps(rng)
                ellcomb.clear_caches()
                seen.clear()
                try:
                    sides(board, 3, ps)
                except (NearPoleError, DomainError):
                    continue
                break
            misses = special_fn._theta_series.cache_info().misses
            assert misses == len({key(x) for x in seen}), (board, sides, ps)


def test_path_binom_matches_family_binom():
    gen = GenericWeights()
    assert path_binom(2, 1, gen) == 1 + w(1, 1)
    for n in range(7):
        for k in range(n + 1):
            assert path_binom(n, k, gen) == gen.binom(n, k)
    rng = random.Random(53)
    fam = EllipticWeights(draw_ps(rng))
    for n in range(6):
        for k in range(n + 1):
            lhs = path_binom(n, k, fam)
            rhs = fam.binom(n, k)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_all_boards_within_counts():
    assert len(all_boards_within(4)) == 70
    assert len(all_boards_within(3)) == 20
    assert len(all_boards_within(2, max_height=1)) == 3


def _recursive_boards(n, max_height):
    # the boards by appending each allowed height in ascending order: the
    # reference for the order of all_boards_within, which rook-product,
    # file-product and gr-q-degeneration sample from
    if n == 0:
        return [()]
    return [heights + (h,) for heights in _recursive_boards(n - 1, max_height)
            for h in range(heights[-1] if heights else 0, max_height + 1)]


def test_all_boards_within_keeps_the_recursive_order():
    for n in range(6):
        for max_height in range(7):
            boards = all_boards_within(n, max_height)
            assert [b.heights for b in boards] == _recursive_boards(n, max_height), (n, max_height)
        assert all_boards_within(n) == all_boards_within(n, n)


def test_all_boards_within_refuses_negative_sizes():
    for n, max_height in ((-1, None), (-2, 2), (-1, 0), (2, -1), (0, -1)):
        with pytest.raises(DomainError):
            all_boards_within(n, max_height)


def test_rook_product_formula_samples():
    rng = random.Random(54)
    boards = [FerrersBoard((1, 2)), FerrersBoard((0, 1, 3)), FerrersBoard((2, 2, 2))]
    for board in boards:
        for z in range(4):
            for _ in range(3):
                ps = draw_ps(rng)
                lhs, rhs = rook_product_sides(board, z, ps)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_rook_product_lhs_conjugation_invariant():
    rng = random.Random(55)
    for board in (FerrersBoard((1, 2)), FerrersBoard((0, 1, 3)), FerrersBoard((1, 1, 2))):
        for _ in range(3):
            ps = draw_ps(rng)
            z = rng.randint(0, 3)
            lhs, _ = rook_product_sides(board, z, ps)
            clhs, _ = rook_product_sides(board.conjugate(), z, ps)
            assert abs(lhs - clhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_file_product_formula_samples():
    rng = random.Random(56)
    boards = [FerrersBoard((1, 2)), FerrersBoard((0, 2, 2)), FerrersBoard((1, 1, 1))]
    for board in boards:
        for z in range(4):
            for _ in range(3):
                ps = draw_ps(rng)
                lhs, rhs = file_product_sides(board, z, ps)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_product_q_degenerations_frozen():
    # At (0, 0, q, 0) the rook product on B = (1, 2) with z = 2 is
    # [3]_q^2 = 1 + 2q + 3q^2 + 2q^3 + q^4, while the file product on
    # the same board gives [3]_q [4]_q.
    rng = random.Random(57)
    for _ in range(10):
        q = draw_annulus(rng, 0.3, 0.9)
        ps = ParameterSet(0.0, 0.0, q, 0.0)
        lhs, rhs = rook_product_sides(FerrersBoard((1, 2)), 2, ps)
        poly = 1 + 2 * q + 3 * q**2 + 2 * q**3 + q**4
        assert abs(lhs - poly) <= 1e-10 * max(abs(poly), 1.0)
        assert abs(rhs - poly) <= 1e-10 * max(abs(poly), 1.0)
        lhs, rhs = file_product_sides(FerrersBoard((1, 2)), 2, ps)
        prod = q_bracket(3, q) * q_bracket(4, q)
        assert abs(lhs - prod) <= 1e-10 * max(abs(prod), 1.0)
        assert abs(rhs - prod) <= 1e-10 * max(abs(prod), 1.0)


def test_file_product_q_degeneration_general_board():
    # General q-limit: prod_i [z + h_i - i + 1]_q over the columns.
    rng = random.Random(58)
    for board in (FerrersBoard((1, 2)), FerrersBoard((0, 1, 2)), FerrersBoard((2, 2))):
        for _ in range(5):
            q = draw_annulus(rng, 0.3, 0.9)
            ps = ParameterSet(0.0, 0.0, q, 0.0)
            z = rng.randint(0, 4)
            ref = 1.0 + 0.0j
            for i, h in enumerate(board.heights, start=1):
                ref *= q_bracket(z + h - i + 1, q)
            lhs, rhs = rook_product_sides(board, z, ps)
            assert abs(lhs - ref) <= 1e-9 * max(abs(ref), 1.0)
            assert abs(rhs - ref) <= 1e-9 * max(abs(ref), 1.0)


def test_product_sides_reject_overflowing_board():
    ps = ParameterSet(0.3, 0.4, 0.5, 0.1)
    with pytest.raises(DomainError):
        rook_product_sides(FerrersBoard((3,)), 1, ps)
    with pytest.raises(DomainError):
        file_product_sides(FerrersBoard((2, 3)), 1, ps)


_ELLIPTIC = ["--family", "elliptic", "--a", "1.1,0.2", "--b", "0.4",
             "--q", "0.5,0.1", "--p", "0.2"]


# 117,600 rook and 286,720 file placements: the bound fails if the
# polynomials are computed by enumerating them.  The generic case is
# the largest symbolic board the command line admits: about 5 s and
# 140 MB on a 2-core x86 host, against 17 s and 750 MB when the
# polynomial's JSON form was built alongside the printed text.  Its
# printed text is pinned by SHA-1, so the symbolic output cannot change
# while the sweep gets faster.
@pytest.mark.parametrize("command, family, bound, sha1", [
    pytest.param("rook", _ELLIPTIC, 5.0, None, id="rook"),
    pytest.param("file", _ELLIPTIC, 5.0, None, id="file"),
    pytest.param("rook", ["--family", "generic"], 30.0,
                 "af9da28b281bb8c822e7ea044994e2c982ec0846", id="rook-generic"),
])
def test_cli_large_elliptic_board_bounded_time(capsys, command, family, bound, sha1):
    start = time.perf_counter()
    code = cli.main([command, "--board", "8,8,8,8,8,8,8,8", "--k", "4", *family])
    elapsed = time.perf_counter() - start
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip()
    if sha1 is not None:
        assert hashlib.sha1(out.encode()).hexdigest() == sha1
    assert elapsed < bound
