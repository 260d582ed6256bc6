"""Acceptance suite: ten end-to-end criteria with explicit budgets.

Each criterion is one test that prints a single PASS line (visible with
-s; `pytest -v` shows the same pass/fail status per test).  Tolerances
and runtime budgets follow the stated contract for each criterion.
"""

import cmath
import itertools
import random
import time

from ellcomb.boards import (
    SingleIndexCells,
    all_boards_within,
    board_from_word,
    file_poly,
    file_product_sides,
    rook_poly,
    rook_product_sides,
)
from ellcomb.ncword import NormalForm, RelationSystem, expand_power_sum, normal_order
from ellcomb.skewpoly import fib_aq, fib_aq_closed, fib_elliptic, genfun_expand, pincherle_check
from ellcomb.special_fn import (
    AQWeights,
    BQWeights,
    EllipticWeights,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    PoleError,
    QWeights,
    bracket_z,
    q_binomial,
    theta,
)
from ellcomb.verify import list_identities, run_all, run_check
from oracles import q_bracket

GENERIC = GenericWeights()


def report(number, text, elapsed):
    print(f"ACCEPTANCE {number:02d}: PASS ({elapsed:.2f} s) {text}")


def draw_annulus(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * phi)


def draw_ps(rng):
    return ParameterSet(
        draw_annulus(rng, 0.2, 2.0), draw_annulus(rng, 0.2, 2.0),
        draw_annulus(rng, 0.3, 0.9), draw_annulus(rng, 0.05, 0.5))


def rel_err(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


class IllConditioned(Exception):
    """Draw landed too close to a zero of the identity for a relative
    comparison; resample."""


def assert_sides(lhs, rhs, tol):
    # A structurally zero side (an exact theta root) makes the other
    # side a pure cancellation residual: compare absolutely.  A side
    # that is merely tiny has lost significance to cancellation, so the
    # draw is discarded instead of judged.
    if lhs == 0 or rhs == 0:
        assert abs(lhs - rhs) <= tol
        return
    if min(abs(lhs), abs(rhs)) < 1e-6:
        raise IllConditioned
    assert rel_err(lhs, rhs) <= tol


def expected_rook_form(word):
    board = board_from_word(word)
    m = word.count("x")
    n = word.count("y")
    return NormalForm({(m - k, n - k): rook_poly(board, k, GENERIC)
                       for k in range(0, min(m, n) + 1)})


def expected_file_form(word):
    board = board_from_word(word)
    m = word.count("x")
    n = word.count("y")
    return NormalForm({(m - k, n): file_poly(board, k, GENERIC)
                       for k in range(0, m + 1)})


def test_criterion_01_navon_weyl_coefficients():
    # "xyxxyxyy" in the classical Weyl algebra: all weights 1, so each
    # coefficient collapses to its integer total; expect exactly (1, 4, 2).
    start = time.perf_counter()
    nf = normal_order("xyxxyxyy", RelationSystem.ROOK_WEYL)
    totals = {key: sum(poly.terms.values()) for key, poly in nf.coeffs.items()}
    assert totals == {(4, 4): 1, (3, 3): 4, (2, 2): 2}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "Weyl normal ordering of xyxxyxyy gives (1, 4, 2)", elapsed)


def test_criterion_02_normal_order_equals_placement_polynomials():
    # Exhaustive words of length <= 8 (includes all 2^8 of length 8)
    # plus 200 seeded random words of length <= 12; symbolic equality,
    # zero tolerance, for both inhomogeneous systems.
    start = time.perf_counter()
    count = 0
    for length in range(1, 9):
        for bits in itertools.product("xy", repeat=length):
            word = "".join(bits)
            assert normal_order(word, RelationSystem.ROOK_WEYL) == expected_rook_form(word)
            assert normal_order(word, RelationSystem.FILE) == expected_file_form(word)
            count += 1
    rng = random.Random(20260816)
    for _ in range(200):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 12)))
        assert normal_order(word, RelationSystem.ROOK_WEYL) == expected_rook_form(word)
        assert normal_order(word, RelationSystem.FILE) == expected_file_form(word)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"normal ordering matches rook and file polynomials on {count} words", elapsed)


def test_criterion_03_binomial_theorems():
    # (x+y)^n coefficients match the triangle recursion symbolically for
    # n <= 8, and the elliptic / b;q / a;q closed forms at 50 seeded
    # draws each within 1e-8.
    start = time.perf_counter()
    symbolic = {}
    for n in range(9):
        nf = expand_power_sum(n, RelationSystem.HOMOGENEOUS)
        for k in range(n + 1):
            coeff = nf.coeffs.get((k, n - k))
            want = GENERIC.binom(n, k)
            assert coeff == want
            symbolic[(n, k)] = coeff

    def family_draws(seed, make_family):
        rng = random.Random(seed)
        done = 0
        while done < 50:
            try:
                family = make_family(rng)
                cache = {}
                for n in range(9):
                    for k in range(n + 1):
                        lhs = symbolic[(n, k)].evaluate(family, cache)
                        rhs = family.binom(n, k)
                        assert_sides(lhs, rhs, 1e-8)
            except (NearPoleError, PoleError, IllConditioned):
                continue
            done += 1

    family_draws(101, lambda rng: EllipticWeights(draw_ps(rng)))
    family_draws(102, lambda rng: BQWeights(draw_annulus(rng, 0.2, 2.0),
                                            draw_annulus(rng, 0.3, 0.9)))
    family_draws(103, lambda rng: AQWeights(draw_annulus(rng, 0.2, 2.0),
                                            draw_annulus(rng, 0.3, 0.9)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "binomial theorem: symbolic n <= 8 and 3 closed forms x 50 draws", elapsed)


def test_criterion_04_theta_identity_suite():
    # inversion, quasi-periodicity, and the addition formula: 1000 draws
    # each within 1e-10.
    start = time.perf_counter()
    rng = random.Random(104)
    for _ in range(1000):
        x = draw_annulus(rng, 0.2, 3.0)
        p = draw_annulus(rng, 0.05, 0.5)
        assert rel_err(theta(x, p), -x * theta(1.0 / x, p)) <= 1e-10
    for _ in range(1000):
        x = draw_annulus(rng, 0.2, 3.0)
        p = draw_annulus(rng, 0.05, 0.5)
        assert rel_err(theta(p * x, p), -theta(x, p) / x) <= 1e-10
    done = 0
    while done < 1000:
        x, y, u, v = (draw_annulus(rng, 0.3, 1.8) for _ in range(4))
        p = draw_annulus(rng, 0.05, 0.4)
        a = theta(x * y, p) * theta(x / y, p) * theta(u * v, p) * theta(u / v, p)
        b = theta(x * v, p) * theta(x / v, p) * theta(u * y, p) * theta(u / y, p)
        rhs = (u / y) * theta(y * v, p) * theta(y / v, p) * theta(x * u, p) * theta(x / u, p)
        if abs(rhs) < 1e-4 * max(abs(a), abs(b), 1e-30):
            continue
        assert abs((a - b) - rhs) <= 1e-10 * max(abs(a), abs(b), abs(rhs), 1.0)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, "theta inversion, quasi-periodicity, addition: 1000 draws each", elapsed)


class AbsWeights(SingleIndexCells):
    """Same placement sums, absolute-value cell weights.

    The resulting polynomial value is the total magnitude flowing
    through the signed sum, so eps times it bounds the roundoff of the
    signed evaluation.
    """

    def small(self, s, t):
        return abs(SingleIndexCells.small(self, s, t))


def product_noise_mass(board, z, ps, kind):
    """Total magnitude feeding one product-formula evaluation.

    Sums the absolute-weight placement mass of every expansion term and
    adds the bracket product with each near-root factor counted at its
    amplification 1 / |factor|.  Machine epsilon times this mass is the
    achievable absolute agreement of the two sides.
    """
    n = board.n
    absfam = AbsWeights(ps, kind)
    factors = []
    mass = 0.0
    if kind == "rook":
        for i in range(1, n + 1):
            b_i = board.heights[i - 1]
            sh = i - 1 - b_i
            factors.append(abs(bracket_z(ps.shift(2 * sh, sh), z + b_i - i + 1)))
        for k in range(n + 1):
            apoly = rook_poly(board, n - k, absfam)
            if apoly == 0:
                continue
            term = abs(complex(apoly))
            for j in range(1, k + 1):
                term *= abs(bracket_z(ps.shift(2 * (j - 1), j - 1), z - j + 1))
            mass += term
    else:
        for i in range(1, n + 1):
            b_i = board.heights[i - 1]
            factors.append(abs(bracket_z(ps.shift(-2 * b_i, -b_i), z + b_i)))
        base = abs(bracket_z(ps, z))
        for k in range(n + 1):
            apoly = file_poly(board, n - k, absfam)
            if apoly == 0:
                continue
            mass += abs(complex(apoly)) * base ** k
    product = 1.0
    amplification = 0.0
    for f in factors:
        product *= f
    for f in factors:
        amplification += max(1.0, 1.0 / f) if f > 0 else 0.0
    return mass + product * amplification


def check_product_pair(board, z, ps, kind, lhs, rhs, tol):
    if lhs == 0 or rhs == 0:
        # A bracket factor vanished exactly, so a short prefix of the
        # board cannot hold enough rooks and the expansion side vanishes
        # term by term: both sides must be identical float zeros.
        assert lhs == 0 and rhs == 0
        return
    scale = max(abs(lhs), abs(rhs))
    if 1e-15 * product_noise_mass(board, z, ps, kind) > scale * tol / 10.0:
        raise IllConditioned
    assert rel_err(lhs, rhs) <= tol


def test_criterion_05_product_formulas_all_boards():
    # rook and file product theorems on all 70 boards within 4 x 4,
    # z in {0..4}, 10 draws each, within 1e-7.  Draws whose roundoff
    # floor reaches the tolerance are resampled, never judged; measured
    # over this grid that discards under 3 percent of draws and every
    # judged pair sits a factor 20 below the tolerance.
    start = time.perf_counter()
    boards = all_boards_within(4)
    assert len(boards) == 70
    rng = random.Random(105)
    checked = 0
    for board in boards:
        for z in range(5):
            done = 0
            attempts = 0
            while done < 10:
                attempts += 1
                assert attempts < 400
                try:
                    ps = draw_ps(rng)
                    lhs, rhs = rook_product_sides(board, z, ps)
                    check_product_pair(board, z, ps, "rook", lhs, rhs, 1e-7)
                    lhs, rhs = file_product_sides(board, z, ps)
                    check_product_pair(board, z, ps, "file", lhs, rhs, 1e-7)
                except (NearPoleError, PoleError, IllConditioned):
                    continue
                done += 1
                checked += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, f"rook and file product formulas: {checked} sides on 70 boards", elapsed)


def test_criterion_06_operator_suite():
    # Pincherle base identity (k = 1) and k-th order up to 5, n <= 8,
    # 20 draws, residual <= 1e-7.
    start = time.perf_counter()
    rng = random.Random(106)
    done = 0
    while done < 20:
        try:
            ps = draw_ps(rng)
            for k in range(1, 6):
                for n in range(0, 9):
                    assert pincherle_check(k, n, ps) <= 1e-7
        except (NearPoleError, PoleError):
            continue
        done += 1
    elapsed = time.perf_counter() - start
    report(6, "Pincherle identity: k <= 5, n <= 8, 20 draws", elapsed)


def test_criterion_07_fibonacci_suite():
    # elliptic recursion vs generating function to degree 12 at 1e-8;
    # one-parameter recursion vs closed form for n <= 15 at 1e-8, with
    # the closed form's exponent choice documented where it is defined.
    start = time.perf_counter()
    rng = random.Random(107)
    done = 0
    while done < 3:
        try:
            ps = draw_ps(rng)
            coeffs = genfun_expand(12, ps)
            for n in range(1, 13):
                assert rel_err(coeffs[n - 1], fib_elliptic(n, ps)) <= 1e-8
        except (NearPoleError, PoleError):
            continue
        done += 1
    done = 0
    while done < 10:
        try:
            a = draw_annulus(rng, 0.2, 1.5)
            q = draw_annulus(rng, 0.3, 0.9)
            for n in range(0, 16):
                assert rel_err(fib_aq(n, a, q), fib_aq_closed(n, a, q)) <= 1e-8
        except (NearPoleError, PoleError):
            continue
        done += 1
    # the exponent resolution is recorded at the definition site
    assert "n-j+2" in fib_aq_closed.__doc__
    assert "n-j-2" in fib_aq_closed.__doc__
    elapsed = time.perf_counter() - start
    report(7, "Fibonacci: genfun degree 12 and closed form n <= 15", elapsed)


def test_criterion_08_exponential_suite():
    # Cauchy identities for both one-parameter exponentials, both
    # q-exponential identities (degree 8, 1e-9), and the F-relations
    # (degree 12, 1e-9), through the registered checks.
    start = time.perf_counter()
    by_id = {c.id: c for c in list_identities()}
    for check_id in ("bq-cauchy", "aq-cauchy", "qexp-cauchy", "qexp-braiding"):
        check = by_id[check_id]
        assert check.tolerance <= 1e-9
        assert check.default_sizes.get("degree") == 8
        rep = run_check(check_id, seed=42)
        assert rep.passed, check_id
    check = by_id["f-relations"]
    assert check.tolerance <= 1e-9
    assert check.default_sizes.get("degree") == 12
    rep = run_check("f-relations", seed=42)
    assert rep.passed
    elapsed = time.perf_counter() - start
    report(8, "exponential identities to degree 8 and F-relations to degree 12", elapsed)


def test_criterion_09_degeneration_chain():
    # p, a, b -> 0 in order turns the theta binomial into the Gaussian
    # one, and the product formula collapses to the q-bracket product.
    start = time.perf_counter()
    rng = random.Random(109)
    for _ in range(25):
        q = draw_annulus(rng, 0.3, 0.9)
        fam = EllipticWeights(ParameterSet(0.0, 0.0, q, 0.0))
        for n in range(9):
            for k in range(n + 1):
                assert rel_err(fam.binom(n, k), q_binomial(n, k, q)) <= 1e-9
    for board in all_boards_within(3):
        for _ in range(5):
            q = draw_annulus(rng, 0.3, 0.9)
            z = rng.randint(0, 4)
            ps = ParameterSet(0.0, 0.0, q, 0.0)
            ref = 1.0 + 0.0j
            for i, h in enumerate(board.heights, start=1):
                ref *= q_bracket(z + h - i + 1, q)
            lhs, rhs = rook_product_sides(board, z, ps)
            assert rel_err(lhs, ref) <= 1e-9
            assert rel_err(rhs, ref) <= 1e-9
    elapsed = time.perf_counter() - start
    report(9, "degeneration chain to Gaussian binomials and q-bracket products", elapsed)


def test_criterion_10_full_verify_deterministic():
    # every registered check passes for seeds 42 and 43, and rerunning a
    # seed reproduces the identical report apart from timing.
    start = time.perf_counter()
    checks = list_identities()
    assert len(checks) >= 31
    first_42 = run_all(42)
    second_42 = run_all(42)
    reports_43 = run_all(43)
    assert all(rep.passed for rep in first_42)
    assert all(rep.passed for rep in reports_43)
    for one, two in zip(first_42, second_42):
        a = one.to_json()
        b = two.to_json()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(10, f"full verify: {len(checks)} checks x seeds 42, 43, reproducible", elapsed)
