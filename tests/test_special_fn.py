"""Theta products, shifted factorials, and the weight families."""

import cmath
import random

import pytest

from ellcomb import special_fn
from ellcomb.special_fn import (
    AQWeights,
    BQWeights,
    DomainError,
    EllipticWeights,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    PoleError,
    QWeights,
    TableWeights,
    bracket_z,
    complex_to_pair,
    exp_coeff_q,
    family_from_spec,
    guarded,
    pair_to_complex,
    q_binomial,
    q_bracket,
    q_factorial,
    q_falling_bracket,
    qp_factorial,
    qpow,
    theta,
)


def draw_annulus(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * phi)


def draw_ps(rng):
    return ParameterSet(
        draw_annulus(rng, 0.2, 2.0), draw_annulus(rng, 0.2, 2.0),
        draw_annulus(rng, 0.3, 0.9), draw_annulus(rng, 0.05, 0.5))


def test_theta_p_zero_is_linear():
    assert theta(0.5, 0) == 0.5
    assert theta(2.0, 0) == -1.0
    assert theta(1.0, 0.3) == 0.0


def test_theta_p_zero_is_one_minus_x_everywhere():
    for x in (0.25, -3.5, 1.0, 2.0 - 0.75j, 1e-300, 1e300j):
        assert theta(x, 0) == 1 - complex(x)
    assert theta(0, 0) == 1
    assert theta(0.0, 0.0j) == 1


def test_theta_domain():
    with pytest.raises(DomainError):
        theta(0.0, 0.1)
    with pytest.raises(DomainError):
        theta(0.5, 1.0)
    with pytest.raises(DomainError):
        theta(0.5, 1.2)


def test_theta_matches_direct_product():
    rng = random.Random(11)
    for _ in range(50):
        x = draw_annulus(rng, 0.2, 3.0)
        p = draw_annulus(rng, 0.05, 0.5)
        direct = 1.0 + 0.0j
        for j in range(120):
            direct *= (1.0 - p**j * x) * (1.0 - p**(j + 1) / x)
        assert abs(theta(x, p) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_theta_cache_is_bounded():
    series = special_fn._theta_series
    series.cache_clear()
    maxsize = series.cache_info().maxsize
    first = theta(0.5, 0.01)
    for i in range(1, maxsize + 1000):
        theta(complex(0.5, i * 1e-6), 0.01)
    info = series.cache_info()
    assert info.misses == maxsize + 1000
    assert info.currsize <= maxsize
    # the first value was evicted and is computed again, bit for bit
    assert theta(0.5, 0.01) == first
    assert series.cache_info().misses == info.misses + 1


def test_theta_inversion():
    rng = random.Random(5)
    for _ in range(300):
        x = draw_annulus(rng, 0.2, 3.0)
        p = draw_annulus(rng, 0.05, 0.5)
        lhs = theta(x, p)
        rhs = -x * theta(1.0 / x, p)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_theta_quasi_periodicity():
    rng = random.Random(6)
    for _ in range(300):
        x = draw_annulus(rng, 0.2, 3.0)
        p = draw_annulus(rng, 0.05, 0.5)
        lhs = theta(p * x, p)
        rhs = -theta(x, p) / x
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_theta_addition_formula():
    # theta(xy, x/y, uv, u/v) - theta(xv, x/v, uy, u/y)
    #   = (u/y) theta(yv, y/v, xu, x/u)
    rng = random.Random(7)
    done = 0
    while done < 200:
        x, y, u, v = (draw_annulus(rng, 0.3, 1.8) for _ in range(4))
        p = draw_annulus(rng, 0.05, 0.4)
        a = theta(x * y, p) * theta(x / y, p) * theta(u * v, p) * theta(u / v, p)
        b = theta(x * v, p) * theta(x / v, p) * theta(u * y, p) * theta(u / y, p)
        rhs = (u / y) * theta(y * v, p) * theta(y / v, p) * theta(x * u, p) * theta(x / u, p)
        if abs(rhs) < 1e-4 * max(abs(a), abs(b), 1e-30):
            continue
        assert abs((a - b) - rhs) <= 1e-10 * max(abs(a), abs(b), abs(rhs), 1.0)
        done += 1


def test_q_factorial_frozen():
    a, q = 0.3, 0.5
    assert abs(q_factorial(a, q, 3) - (1 - a) * (1 - a * q) * (1 - a * q * q)) < 1e-15
    assert q_factorial(a, q, 0) == 1.0


def test_q_factorial_negative_index():
    rng = random.Random(8)
    for _ in range(30):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 0.9)
        n = rng.randint(1, 6)
        prod = q_factorial(a, q, -n) * q_factorial(a * qpow(q, -n), q, n)
        assert abs(prod - 1.0) < 1e-12


def test_qp_factorial_p_zero_matches_q_factorial():
    rng = random.Random(9)
    for _ in range(30):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 0.9)
        n = rng.randint(-4, 6)
        assert qp_factorial(a, q, 0, n) == q_factorial(a, q, n)
    # a = 0 is fine at p = 0 even though the raw theta form is not
    assert qp_factorial(0, 0.5, 0, 4) == 1.0


def test_qp_factorial_is_theta_product():
    rng = random.Random(10)
    for _ in range(30):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 0.9)
        p = draw_annulus(rng, 0.05, 0.4)
        n = rng.randint(0, 5)
        direct = 1.0 + 0.0j
        for j in range(n):
            direct *= theta(a * qpow(q, j), p)
        assert abs(qp_factorial(a, q, p, n) - direct) < 1e-12 * max(1.0, abs(direct))


def test_q_binomial_frozen():
    assert abs(q_binomial(4, 2, 0.5) - 2.1875) < 1e-15
    assert q_binomial(3, -1, 0.7) == 0.0
    assert q_binomial(3, 4, 0.7) == 0.0
    assert q_binomial(0, 0, 0.7) == 1.0


def test_q_binomial_pascal_and_symmetry():
    rng = random.Random(12)
    for _ in range(25):
        q = draw_annulus(rng, 0.3, 0.9)
        n = rng.randint(1, 8)
        for k in range(n + 1):
            sym = q_binomial(n, k, q) - q_binomial(n, n - k, q)
            assert abs(sym) < 1e-10
        for k in range(1, n + 1):
            lhs = q_binomial(n + 1, k, q)
            rhs = q_binomial(n, k, q) + qpow(q, n + 1 - k) * q_binomial(n, k - 1, q)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_q_brackets():
    q = 0.4
    assert abs(q_bracket(3, q) - (1 + q + q * q)) < 1e-15
    assert q_falling_bracket(3, q, 0) == 1.0
    got = q_falling_bracket(3, q, 2)
    assert abs(got - q_bracket(3, q) * q_bracket(2, q)) < 1e-15


def test_guarded_poles():
    with pytest.raises(PoleError):
        guarded(0.0)
    with pytest.raises(NearPoleError):
        guarded(1e-30)
    assert guarded(0.5) == 0.5


def test_parameter_set_shift_and_json():
    ps = ParameterSet(0.3 + 0.1j, 0.4, 0.5 + 0.2j, 0.1)
    shifted = ps.shift(2, 1)
    assert shifted.a == ps.a * ps.q**2
    assert shifted.b == ps.b * ps.q
    assert shifted.q == ps.q and shifted.p == ps.p
    back = ParameterSet.from_json(ps.to_json())
    assert back == ps
    sw = ps.swapped()
    assert sw.a == ps.b and sw.b == ps.a


def test_complex_pair_round_trip():
    z = 1.25 - 0.5j
    assert pair_to_complex(complex_to_pair(z)) == z


def test_small_weight_shift_law():
    # w_{a,b}(s, k + n) = w_{a q^{2k}, b q^k}(s, n)
    rng = random.Random(13)
    for _ in range(40):
        ps = draw_ps(rng)
        fam = EllipticWeights(ps)
        s = rng.randint(1, 4)
        k = rng.randint(0, 3)
        n = rng.randint(1, 4)
        lhs = fam.small(s, k + n)
        rhs = EllipticWeights(ps.shift(2 * k, k)).small(s, n)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_big_weight_is_product_of_smalls():
    rng = random.Random(14)
    for _ in range(25):
        ps = draw_ps(rng)
        fam = EllipticWeights(ps)
        s = rng.randint(1, 4)
        t = rng.randint(0, 5)
        prod = 1.0 + 0.0j
        for k in range(1, t + 1):
            prod *= fam.small(s, k)
        big = fam.big(s, t)
        assert abs(big - prod) <= 1e-9 * max(abs(big), abs(prod), 1.0)


def test_big_weight_shift_law():
    rng = random.Random(15)
    for _ in range(25):
        ps = draw_ps(rng)
        fam = EllipticWeights(ps)
        s = rng.randint(1, 4)
        k = rng.randint(0, 3)
        n = rng.randint(0, 3)
        lhs = fam.big(s, k + n)
        rhs = fam.big(s, k) * EllipticWeights(ps.shift(2 * k, k)).big(s, n)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_small_weight_p_shift_invariance():
    rng = random.Random(16)
    for _ in range(25):
        ps = draw_ps(rng)
        moved = ParameterSet(ps.a * ps.p, ps.b * ps.p, ps.q, ps.p)
        s = rng.randint(1, 3)
        t = rng.randint(1, 3)
        lhs = EllipticWeights(ps).small(s, t)
        rhs = EllipticWeights(moved).small(s, t)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_binom_triangle_recursion_elliptic():
    rng = random.Random(17)
    for _ in range(10):
        ps = draw_ps(rng)
        fam = EllipticWeights(ps)
        for n in range(0, 6):
            for k in range(0, n + 2):
                lhs = fam.binom(n + 1, k)
                rhs = fam.binom(n, k)
                if k >= 1:
                    rhs += fam.binom(n, k - 1) * fam.big(k, n + 1 - k)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_binom_boundary_values():
    rng = random.Random(18)
    fam = EllipticWeights(draw_ps(rng))
    for n in range(6):
        assert abs(fam.binom(n, 0) - 1.0) < 1e-9
        assert abs(fam.binom(n, n) - 1.0) < 1e-9
        assert fam.binom(n, n + 1) == 0.0
        assert fam.binom(n, -1) == 0.0


def test_binom_small_q_does_not_overflow():
    # here the 32-factor theta products of binom(8, 0) overflow on their
    # own; built factor by factor the quotient is exactly 1
    from ellcomb.boards import path_binom
    ps = ParameterSet(0.0565 - 0.2162j, 1.083 - 0.9042j, -0.0274 - 0.3288j, 0.0963 + 0.4707j)
    fam = EllipticWeights(ps)
    assert fam.binom(8, 0) == 1.0
    for k in range(9):
        got = fam.binom(8, k)
        want = path_binom(8, k, fam)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), k


def test_binom_limit_chain_to_q_binomial():
    # p -> 0, then a -> 0, then b -> 0 degenerates [n, k] to the
    # Gaussian binomial coefficient.
    rng = random.Random(19)
    for _ in range(20):
        q = draw_annulus(rng, 0.3, 0.9)
        fam = EllipticWeights(ParameterSet(0.0, 0.0, q, 0.0))
        for n in range(7):
            for k in range(n + 1):
                lhs = fam.binom(n, k)
                rhs = q_binomial(n, k, q)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_elliptic_zero_parameters_need_p_zero():
    with pytest.raises(DomainError):
        EllipticWeights(ParameterSet(0.0, 0.3, 0.5, 0.1)).small(1, 1)
    # a = 0 with b != 0 at p = 0 is the a-before-b degeneration: fine
    fam = EllipticWeights(ParameterSet(0.0, 0.3, 0.5, 0.0))
    fam.small(1, 1)
    # b = 0 with a != 0 violates the a -> 0 first convention
    bad = EllipticWeights(ParameterSet(0.3, 0.0, 0.5, 0.0))
    with pytest.raises(DomainError):
        bad.small(1, 1)


def test_b_zero_with_a_nonzero_is_a_domain_error():
    # the a -> 0 before b -> 0 convention leaves a/b undefined here; every
    # formula with an a/b factor says so with DomainError
    ps0 = ParameterSet(0.3, 0.0, 0.5, 0.0)
    fam = EllipticWeights(ps0)
    for call in (lambda: fam.small(1, 1), lambda: fam.big(1, 2),
                 lambda: fam.binom(3, 1), lambda: fam.single(1),
                 lambda: bracket_z(ps0, 2)):
        with pytest.raises(DomainError):
            call()
    ps = ParameterSet(0.3, 0.0, 0.5, 0.1)
    with pytest.raises(DomainError):
        bracket_z(ps, 2)
    with pytest.raises(DomainError):
        EllipticWeights(ps).single(1)


def test_degenerate_families_match_elliptic_limits():
    rng = random.Random(20)
    for _ in range(15):
        q = draw_annulus(rng, 0.3, 0.9)
        a = draw_annulus(rng, 0.2, 1.5)
        b = draw_annulus(rng, 0.2, 1.5)
        ell_b = EllipticWeights(ParameterSet(0.0, b, q, 0.0))
        bq = BQWeights(b, q)
        aq = AQWeights(a, q)
        qq = QWeights(q)
        for s in range(1, 4):
            for t in range(1, 4):
                assert abs(ell_b.small(s, t) - bq.small(s, t)) < 1e-10
                want = (1 - a * qpow(q, s + 2 * t)) / (1 - a * qpow(q, s + 2 * t - 2)) / q
                assert abs(aq.small(s, t) - want) < 1e-12 * max(1.0, abs(want))
        for n in range(5):
            for k in range(n + 1):
                assert abs(ell_b.binom(n, k) - bq.binom(n, k)) < 1e-9
                assert abs(qq.binom(n, k) - q_binomial(n, k, q)) < 1e-12
        # small weights depend on the cell only through s + 2t (aq)
        # and 2s + t (bq)
        assert abs(aq.small(1, 3) - aq.small(3, 2)) < 1e-12
        assert abs(bq.small(1, 3) - bq.small(2, 1)) < 1e-12
        assert isinstance(bq.dual(), AQWeights)
        assert isinstance(aq.dual(), BQWeights)


def test_q_family_is_constant_weight():
    fam = QWeights(0.7)
    assert fam.small(3, 5) == 0.7
    assert abs(fam.big(2, 3) - 0.7**3) < 1e-15
    assert abs(fam.binom(2, 1) - (1 + 0.7)) < 1e-12
    with pytest.raises(DomainError):
        QWeights(0.0)


def test_q_binom_frozen_value():
    assert abs(QWeights(0.5).binom(2, 1) - 1.5) < 1e-15


def test_table_weights():
    fam = TableWeights({(1, 1): 2.0, (1, 2): 3.0})
    assert fam.small(1, 1) == 2.0
    assert fam.big(1, 2) == 6.0
    with pytest.raises(DomainError):
        fam.small(5, 5)


def test_triangle_binom_has_no_recursion_limit():
    # only the cells [m, j] that [n, k] depends on are read: (1, t) for
    # k = 1 and (s, 1) for k = n - 1
    assert TableWeights({(1, t): 1.0 for t in range(1, 1500)}).binom(1500, 1) == 1500
    assert TableWeights({(s, 1): 1.0 for s in range(1, 1500)}).binom(1500, 1499) == 1500


def test_bracket_z_frozen():
    ps = ParameterSet(0.0, 0.0, 0.5, 0.0)
    assert abs(bracket_z(ps, 3) - 1.75) < 1e-15
    assert abs(bracket_z(ps, 1) - 1.0) < 1e-15
    assert bracket_z(ps, 0) == 0.0


def test_bracket_z_elliptic_normalization():
    rng = random.Random(21)
    for _ in range(20):
        ps = draw_ps(rng)
        assert abs(bracket_z(ps, 1) - 1.0) < 1e-10
        assert abs(bracket_z(ps, 0)) < 1e-12


def test_elliptic_single_is_small_at_s_one():
    # w(m) = theta(a q^(2m+1), b q^m, a q^(m-2)/b; p)
    #      / theta(a q^(2m-1), b q^(m+2), a q^m/b; p) * q  is  w(1, m)
    rng = random.Random(22)
    for _ in range(20):
        ps = draw_ps(rng)
        a, b, q, p = ps.a, ps.b, ps.q, ps.p
        fam = EllipticWeights(ps)
        for m in range(-6, 7):
            assert fam.single(m) == fam.small(1, m)
            num = (theta(a * qpow(q, 2 * m + 1), p) * theta(b * qpow(q, m), p)
                   * theta(a * qpow(q, m - 2) / b, p))
            den = (theta(a * qpow(q, 2 * m - 1), p) * theta(b * qpow(q, m + 2), p)
                   * theta(a * qpow(q, m) / b, p))
            want = num / den * q
            assert abs(fam.single(m) - want) <= 1e-10 * max(abs(want), 1.0)


def test_exp_coeff_q_frozen():
    q = 0.5
    want = 1.0 / ((1 - q) * (1 - q * q))
    assert abs(exp_coeff_q(q, 2) - want) < 1e-14


def test_family_from_spec():
    assert isinstance(family_from_spec("generic"), GenericWeights)
    assert isinstance(family_from_spec("elliptic", a=0.3, b=0.4, q=0.5, p=0.1),
                      EllipticWeights)
    assert isinstance(family_from_spec("bq", b=0.4, q=0.5), BQWeights)
    assert isinstance(family_from_spec("aq", a=0.4, q=0.5), AQWeights)
    assert isinstance(family_from_spec("q", q=0.5), QWeights)
    with pytest.raises(DomainError):
        family_from_spec("bq", q=0.5)
    with pytest.raises(DomainError):
        family_from_spec("elliptic", a=0.3, b=0.4, q=0.5)
    with pytest.raises(DomainError):
        family_from_spec("nonsense")
