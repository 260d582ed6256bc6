"""Skew polynomials, the elliptic derivative pair, and Fibonacci numbers."""

import cmath
import math
import random
import struct

import pytest

from ellcomb import skewpoly, special_fn
from ellcomb.skewpoly import (
    SkewPoly,
    apply_D,
    apply_eta,
    evaluate_together,
    f_relation_sides,
    fib_aq,
    fib_aq_closed,
    fib_elliptic,
    genfun_expand,
    pincherle_check,
    pincherle_coeff,
    pincherle_coeff_bracket,
    pincherle_residuals,
    product_expand,
    skew_mul,
    x_mul,
)
from ellcomb.special_fn import (
    DomainError,
    EvaluationError,
    NearPoleError,
    ParameterSet,
    PoleError,
    exp_coeff_bq,
    guarded,
    q_binomial,
    qp_factorial,
    qpow,
)
from ellcomb.verify import run_check


def draw_annulus(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * phi)


def draw_ps(rng):
    return ParameterSet(
        draw_annulus(rng, 0.2, 2.0), draw_annulus(rng, 0.2, 2.0),
        draw_annulus(rng, 0.3, 0.9), draw_annulus(rng, 0.05, 0.5))


def test_x_mul_shifts_coefficients():
    rng = random.Random(61)
    ps = draw_ps(rng)
    poly = SkewPoly({0: lambda a, b: a + 2 * b}, ps.q)
    moved = x_mul(poly)
    got = moved.evaluate(ps)
    # x f(a, b) = f(a q, b q^2) x
    want = ps.a * ps.q + 2 * ps.b * ps.q**2
    assert set(got) == {1}
    assert abs(got[1] - want) < 1e-14


def test_skew_mul_associative_and_graded():
    rng = random.Random(62)
    ps = draw_ps(rng)
    f = SkewPoly({0: lambda a, b: a, 1: lambda a, b: 1.0 + b}, ps.q)
    g = SkewPoly({1: lambda a, b: a * b}, ps.q)
    h = SkewPoly({0: lambda a, b: 2.0, 2: lambda a, b: a - b}, ps.q)
    left = skew_mul(skew_mul(f, g), h).evaluate(ps)
    right = skew_mul(f, skew_mul(g, h)).evaluate(ps)
    for key in set(left) | set(right):
        assert abs(left.get(key, 0) - right.get(key, 0)) < 1e-12


def test_skew_mul_crossing_shift():
    rng = random.Random(63)
    ps = draw_ps(rng)
    # (x) (f(a,b)) = f(a q, b q^2) x
    x = SkewPoly.x_power(1, ps.q)
    f = SkewPoly({0: lambda a, b: a * a + b}, ps.q)
    got = skew_mul(x, f).evaluate(ps)
    want = (ps.a * ps.q) ** 2 + ps.b * ps.q**2
    assert abs(got[1] - want) < 1e-13
    # multiplying in the other order leaves the coefficient alone
    got = skew_mul(f, x).evaluate(ps)
    want = ps.a**2 + ps.b
    assert abs(got[1] - want) < 1e-13


def test_q_mismatch_rejected():
    poly = SkewPoly({0: lambda a, b: 1.0}, 0.5)
    other = SkewPoly({0: lambda a, b: 1.0}, 0.25)
    with pytest.raises(DomainError):
        skew_mul(poly, other)
    with pytest.raises(DomainError):
        poly + other


def test_negative_degree_rejected():
    with pytest.raises(DomainError):
        SkewPoly({-1: lambda a, b: 1.0}, 0.5)


def test_degrees_and_powers_must_be_integers():
    # degrees and powers are read with operator.index: x^1.5 is refused,
    # never truncated to x^1 or carried as a degree of 2.5
    x = SkewPoly.x_power(1, 0.5)
    for build in (lambda: SkewPoly({1.5: 1.0}, 0.5), lambda: SkewPoly({"1": 1.0}, 0.5),
                  lambda: SkewPoly.x_power(2.7, 0.5), lambda: x_mul(x, 1.5),
                  lambda: x_mul(x, 1.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            build()
    assert x_mul(x, 2).coeffs.keys() == {3}


def test_apply_D_base_cases():
    rng = random.Random(64)
    ps = draw_ps(rng)
    x = SkewPoly.x_power(1, ps.q)
    got = apply_D(x, ps).evaluate(ps)
    assert set(got) == {0}
    assert abs(got[0] - 1.0) < 1e-12
    const = SkewPoly.unit(ps.q)
    assert apply_D(const, ps).evaluate(ps) == {}


def test_apply_D_at_b_zero():
    # its a/b thetas divide through _ratio: at a = b = 0, p = 0 they are
    # theta(0; 0) = 1 and D is the q-derivative, D x^n = [n]_q x^(n-1);
    # b = 0 with a != 0 is outside the domain
    q = 0.5 + 0.2j
    ps = ParameterSet(0.0, 0.0, q, 0.0)
    got = apply_D(SkewPoly.x_power(3, q), ps).evaluate(ps)
    assert set(got) == {2}
    assert abs(got[2] - (1 + q + q * q)) < 1e-14
    ps = ParameterSet(0.3, 0.0, q, 0.0)
    with pytest.raises(DomainError):
        apply_D(SkewPoly.x_power(3, q), ps).evaluate(ps)


def test_pincherle_coeff_at_b_zero():
    # its a/b thetas divide through _ratio: at a = b = 0, p = 0 they are
    # theta(0; 0) = 1 and C_k is [k]_q q^(1-k); b = 0 with a != 0 is
    # outside the domain
    q = 0.5 + 0.2j
    ps = ParameterSet(0.0, 0.0, q, 0.0)
    for k in range(1, 6):
        want = (1 - qpow(q, k)) / (1 - q) * qpow(q, 1 - k)
        assert abs(pincherle_coeff(k, ps) - want) < 1e-14 * max(1.0, abs(want)), k
    ps = ParameterSet(0.3, 0.0, q, 0.0)
    with pytest.raises(DomainError):
        pincherle_coeff(2, ps)


def test_apply_eta_base_case():
    rng = random.Random(65)
    ps = draw_ps(rng)
    got = apply_eta(SkewPoly.unit(ps.q), ps).evaluate(ps)
    assert abs(got[0] - 1.0) < 1e-12


def test_apply_eta_at_b_zero_is_the_one_parameter_diagonal():
    rng = random.Random(66)
    a = draw_annulus(rng, 0.2, 1.5)
    q = draw_annulus(rng, 0.3, 0.9)
    ps = ParameterSet(a, 0.0, q, 0.0)
    got = apply_eta(SkewPoly.x_power(2, q), ps).evaluate(ps)
    want = ((1 - a * qpow(q, 3)) * (1 - a * qpow(q, 4))
            / ((1 - a * q) * (1 - a * q * q)) * qpow(q, -2))
    assert set(got) == {2}
    assert abs(got[2] - want) < 1e-12 * max(1.0, abs(want))


def test_pincherle_coeff_forms_agree():
    rng = random.Random(67)
    for _ in range(15):
        ps = draw_ps(rng)
        for k in range(1, 6):
            lhs = pincherle_coeff(k, ps)
            rhs = pincherle_coeff_bracket(k, ps)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_pincherle_identity_residuals():
    rng = random.Random(68)
    for _ in range(5):
        ps = draw_ps(rng)
        for k in range(1, 4):
            for n in range(0, 6):
                assert pincherle_check(k, n, ps) <= 1e-9



def _bits(values: dict) -> dict:
    return {k: (v.real.hex(), v.imag.hex()) for k, v in values.items()}


def test_pincherle_check_is_one_pair_of_the_batch():
    rng = random.Random(70)
    pairs = [(k, n) for k in range(1, 6) for n in range(0, 9)]
    for _ in range(4):
        ps = draw_ps(rng)
        residuals = pincherle_residuals(pairs, ps)
        assert list(residuals) == pairs
        for k, n in pairs:
            assert pincherle_check(k, n, ps).hex() == residuals[k, n].hex()
    # a q = 1 puts a D factor's denominator on a theta zero
    q = 0.5 + 0.2j
    ps = ParameterSet(1 / q, 0.7 + 0.1j, q, 0.2)
    with pytest.raises(NearPoleError):
        pincherle_check(3, 4, ps)
    with pytest.raises(NearPoleError):
        pincherle_residuals(pairs, ps)
    with pytest.raises(DomainError):
        pincherle_residuals([(1, 0), (0, 2)], ps)


def test_pincherle_indices_must_be_integers():
    # k and n are read with operator.index before the state of ps is
    # touched: a float is never truncated to a neighbouring pair, and a
    # bad pair leaves no state, let alone chains under a float key
    from ellcomb import clear_caches
    ps = draw_ps(random.Random(72))
    clear_caches()
    for pairs in ([(2, 1.5)], [(1.0, 0)], [(2, "1")], [(1, 0), (None, 2)]):
        with pytest.raises(DomainError, match="must be an integer"):
            pincherle_residuals(pairs, ps)
    for k, n in ((2, 1.5), (1.0, 0), (2.5, 1)):
        with pytest.raises(DomainError, match="must be an integer"):
            pincherle_check(k, n, ps)
    assert special_fn._pincherle_states.cache_info().currsize == 0
    for coeff in (pincherle_coeff, pincherle_coeff_bracket):
        for k in (2.5, 2.0, "2", None):
            with pytest.raises(DomainError, match="must be an integer"):
                coeff(k, ps)
    # q's power table holds integer exponents only
    assert all(type(e) is int for e in special_fn._q_powers(ps.q))


def test_pincherle_state_does_the_work_once_and_keeps_every_bit(monkeypatch):
    # the 36 one-pair calls at one point extend one state: they make as
    # many apply_D calls as one batched call over the same pairs, and
    # each residual has the bits of a cold state's
    from ellcomb import clear_caches

    def bits(x):
        return struct.pack("<d", x)

    calls = [0]
    original = skewpoly.apply_D

    def counted(p, ps):
        calls[0] += 1
        return original(p, ps)

    monkeypatch.setattr(skewpoly, "apply_D", counted)
    pairs = [(k, n) for k in range(1, 10) for n in range(4)]
    ps = draw_ps(random.Random(74))
    clear_caches()
    warm = {(k, n): pincherle_check(k, n, ps) for k, n in pairs}
    one_by_one, calls[0] = calls[0], 0
    clear_caches()
    batched = pincherle_residuals(pairs, ps)
    assert one_by_one == calls[0] > 0
    for pair in pairs:
        clear_caches()
        cold = pincherle_check(*pair, ps)
        assert bits(warm[pair]) == bits(cold) == bits(batched[pair]), pair
    # at a = b the denominator theta(a/b; p) of C_k vanishes; C_k is not
    # kept, so every call raises, warm or cold
    ps = ParameterSet(1.1 + 0.2j, 1.1 + 0.2j, 0.5 + 0.1j, 0.2 + 0.05j)
    clear_caches()
    for k, n in ((2, 1), (2, 1), (3, 0), (2, 1)):
        with pytest.raises(PoleError, match="denominator theta factor 3 vanished"):
            pincherle_check(k, n, ps)


def test_pincherle_draw_reaches_each_D_factor_once_per_side(monkeypatch):
    # the left sides share one memo and the right sides another, so a
    # draw computes each D factor (n, i, j) at most twice; the draw starts
    # from no Pincherle state, and leaves none holding the counting leaf
    from ellcomb import clear_caches
    calls: dict = {}
    original = skewpoly._D_factor

    def counted(a, b, i, j, n, q, p):
        key = (n, i, j, q, p)
        calls[key] = calls.get(key, 0) + 1
        return original(a, b, i, j, n, q, p)

    monkeypatch.setattr(skewpoly, "_D_factor", counted)
    clear_caches()
    try:
        report = run_check("pincherle", seed=0, sizes={"draws": 1})
    finally:
        clear_caches()
    assert report.trials == 45
    assert calls and max(calls.values()) <= 2


def test_evaluate_together_matches_each_evaluate():
    # the genfun_expand powers of (x + x^2 eta) x share their nodes, so
    # one memo over all of them must give each one's own values
    ps = draw_ps(random.Random(71))
    terms = [SkewPoly.x_power(1, ps.q)]
    for _ in range(9):
        terms.append(x_mul(terms[-1]) + x_mul(apply_eta(terms[-1], ps), 2))
    together = evaluate_together(terms, ps)
    assert len(together) == len(terms)
    for term, values in zip(terms, together):
        assert _bits(values) == _bits(term.evaluate(ps))

def test_fib_elliptic_base_values():
    ps = ParameterSet(0.4, 0.3, 0.5 + 0.1j, 0.1)
    assert fib_elliptic(0, ps) == 0.0
    assert fib_elliptic(1, ps) == 1.0
    assert abs(fib_elliptic(2, ps) - 1.0) < 1e-12


def test_fib_elliptic_matches_generating_function():
    rng = random.Random(69)
    for _ in range(2):
        ps = draw_ps(rng)
        coeffs = genfun_expand(10, ps)
        for n in range(1, 11):
            want = fib_elliptic(n, ps)
            got = coeffs[n - 1]
            assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_shared_coefficients_evaluate_once_per_offset():
    # (1 + x)^20 f truncated to degree 6 shares f between all its
    # coefficients; f is needed only at the 7 offsets (k, 2k), k <= 6
    calls = []

    def coeff(a, b):
        calls.append((a, b))
        return a + 2 * b

    ps = draw_ps(random.Random(74))
    poly = SkewPoly({0: coeff}, ps.q)
    for _ in range(20):
        poly = (poly + x_mul(poly)).truncated(6)
    got = poly.evaluate(ps)
    # each call gets the shifted point rounded once, a q^k as a * qpow(q, k)
    assert set(calls) == {(ps.a * qpow(ps.q, k), ps.b * qpow(ps.q, 2 * k)) for k in range(7)}
    assert len(calls) == 7
    assert set(got) == set(range(7))
    for k in range(7):
        want = math.comb(20, k) * coeff(ps.a * ps.q**k, ps.b * ps.q**(2 * k))
        assert abs(got[k] - want) <= 1e-12 * abs(want)


def test_generating_function_to_degree_24():
    # a draw whose theta arguments (up to |q|^-24 in size) leave the
    # range of a double raises on both sides and is redrawn, as in verify
    rng = random.Random(75)
    admitted = rejected = 0
    while admitted < 6:
        ps = draw_ps(rng)
        try:
            coeffs = genfun_expand(24, ps)
            wants = [fib_elliptic(n, ps) for n in range(1, 25)]
        except (NearPoleError, EvaluationError):
            rejected += 1
            assert rejected <= 2
            continue
        admitted += 1
        for got, want in zip(coeffs, wants):
            assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_generating_function_finite_where_theta_products_overflow():
    # at this draw the whole five-factor theta products overflow from
    # n = 11 on, and their quotient used to come out as inf / inf = NaN
    ps = ParameterSet(0.1674 + 1.6716j, -0.8108 + 0.6263j,
                      0.0867 - 0.3612j, -0.2131 + 0.4473j)
    coeffs = genfun_expand(14, ps)
    for n in range(1, 15):
        want = fib_elliptic(n, ps)
        got = coeffs[n - 1]
        assert cmath.isfinite(got) and cmath.isfinite(want)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_fib_aq_matches_closed_form():
    rng = random.Random(70)
    for _ in range(8):
        a = draw_annulus(rng, 0.2, 1.5)
        q = draw_annulus(rng, 0.3, 0.9)
        for n in range(0, 16):
            lhs = fib_aq(n, a, q)
            rhs = fib_aq_closed(n, a, q)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


# Copies of the hand-written loops the one-parameter factors used before
# they became theta_quotient calls, with each argument a q^k formed from
# its whole exponent as a * qpow(q, k), the argument rule of special_fn.
# The eta factor and the Fibonacci factor at b = 0, p = 0 keep their
# operation order, so they match bit for bit except where an exactly
# equal numerator and denominator factor is now skipped (n = 0); the
# closed form multiplies its factors in another order and agrees to
# 1e-14 relative.

def _loop_eta_aq_factor(a, n, q):
    num = (1.0 - a * qpow(q, 1 + n)) * (1.0 - a * qpow(q, 2 + n))
    den = guarded(1.0 - a * q, 0, "eta factor")
    den *= guarded(1.0 - a * qpow(q, 2), 1, "eta factor")
    return num / den * qpow(q, -n)


def _loop_fib_aq(n, a, q):
    memo = {}

    def rec(m, i):
        if m == 0:
            return 0.0 + 0.0j
        if m == 1:
            return 1.0 + 0.0j
        if (m, i) not in memo:
            num = (1.0 - a * qpow(q, i + 1 + m)) * (1.0 - a * qpow(q, i + 2 + m))
            den = guarded(1.0 - a * qpow(q, i + 3), 0, "fib factor")
            den *= guarded(1.0 - a * qpow(q, i + 4), 1, "fib factor")
            memo[(m, i)] = rec(m - 1, i + 1) + num / den * qpow(q, 2 - m) * rec(m - 2, i + 2)
        return memo[(m, i)]

    return rec(n, 0)


def _loop_fib_aq_closed(n, a, q):
    if n == 0:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for j in range(0, (n - 1) // 2 + 1):
        binomial = q_binomial(n - j - 1, j, q)
        num = ((1.0 - a * qpow(q, n + 1)) * (1.0 - a * qpow(q, n + 2))) ** j
        den = 1.0 + 0.0j
        for i in range(j):
            den *= guarded(1.0 - a * qpow(q, 3 + i), i, "closed-form factor")
            den *= guarded(1.0 - a * qpow(q, n - j + 2 + i), i, "closed-form factor")
        total += qpow(q, -(n - j - 1) * j) * binomial * num / den
    return total


def test_one_parameter_factors_match_the_loops_they_replace():
    rng = random.Random(72)
    for _ in range(40):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 1.5)
        try:
            for n in range(12):
                new, old = skewpoly._eta_factor(a, 0.0, 0, 0, n, q, 0.0), _loop_eta_aq_factor(a, n, q)
                if n:
                    assert new == old
                else:
                    assert abs(new - old) <= 1e-14 * max(abs(new), abs(old))
                assert fib_aq(n, a, q) == _loop_fib_aq(n, a, q)
                new, old = fib_aq_closed(n, a, q), _loop_fib_aq_closed(n, a, q)
                assert abs(new - old) <= 1e-14 * max(abs(new), abs(old)), (a, q, n)
        except NearPoleError:
            continue


def test_one_parameter_factors_raise_at_exact_and_near_poles():
    # q = 0.5, a = 8 (1 + eps): the factor 1 - a q^3 vanishes at eps = 0
    # and falls below NEAR_POLE_TOL at eps = 1e-14
    q = 0.5
    cases = [
        (lambda a: skewpoly._eta_factor(a / 4, 0.0, 0, 0, 2, q, 0.0), 0),
        (lambda a: skewpoly._eta_factor(a / 2, 0.0, 0, 0, 2, q, 0.0), 1),
        (lambda a: fib_aq(3, a, q), 0),
        (lambda a: fib_aq_closed(3, a, q), 0),
    ]
    for case, index in cases:
        with pytest.raises(PoleError) as info:
            case(8.0)
        assert info.value.index == index
        with pytest.raises(NearPoleError, match="denominator theta factor"):
            case(8.0 * (1 + 1e-14))


def test_fib_aq_classical_limit():
    # a -> 0, q -> 1 recovers the ordinary Fibonacci numbers
    fibs = [0, 1, 1, 2, 3, 5, 8, 13]
    for n, want in enumerate(fibs):
        got = fib_aq(n, 1e-9, 0.99999)
        assert abs(got - want) < 1e-3 * max(want, 1)


def test_fib_aq_frozen_small_case():
    a, q = 0.3 + 0.1j, 0.6
    want = 1.0 + ((1 - a * qpow(q, 4)) * (1 - a * qpow(q, 5))
                  / ((1 - a * qpow(q, 3)) * (1 - a * qpow(q, 4))) * qpow(q, -1))
    assert abs(fib_aq(3, a, q) - want) < 1e-13


def test_product_expand_directions():
    rng = random.Random(71)
    q = draw_annulus(rng, 0.3, 0.9)
    # (1 + a x)(1 + b x) and (1 + b x)(1 + a x) differ in their x^2
    # coefficient because the crossing shifts a and b unequally
    factors = [
        SkewPoly({0: lambda a, b: 1.0, 1: lambda a, b: a}, q),
        SkewPoly({0: lambda a, b: 1.0, 1: lambda a, b: b}, q),
    ]
    ps = ParameterSet(0.4, 0.7, q, 0.2)
    ltr = product_expand(factors, "left-to-right", q).evaluate(ps)
    rtl = product_expand(factors, "right-to-left", q).evaluate(ps)
    assert abs(ltr[2] - ps.a * ps.b * ps.q**2) < 1e-13
    assert abs(rtl[2] - ps.b * ps.a * ps.q) < 1e-13
    assert abs(ltr[2] - rtl[2]) > 1e-3
    assert abs(ltr[1] - rtl[1]) < 1e-13
    with pytest.raises(DomainError):
        product_expand(factors, "sideways", q)
    empty = product_expand([], "left-to-right", q).evaluate(ps)
    assert abs(empty[0] - 1.0) < 1e-15


def test_f_relations_hold():
    rng = random.Random(72)
    for _ in range(10):
        b = draw_annulus(rng, 0.2, 1.5)
        q = draw_annulus(rng, 0.3, 0.9)
        for n in range(1, 13):
            for name, (lhs, rhs) in f_relation_sides(b, q, n).items():
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0), name


def test_f_relation_right_sides_keep_their_own_loops(monkeypatch):
    # the right sides are the independent side of the f-relations check:
    # only the left side's exp_coeff_bq reaches theta_quotient
    calls = []
    original = special_fn.theta_quotient

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(special_fn, "theta_quotient", spy)
    monkeypatch.setattr(skewpoly, "theta_quotient", spy)
    f_relation_sides(0.3 + 0.1j, 0.5 - 0.2j, 5)
    assert len(calls) == 1


def test_f_relation_commuting_reading_is_false():
    # Treating x as central would turn the shift relation into
    # F_n(b)(1 - q^n) = F_(n-1)(b/q) / (1 - b q); that variant fails.
    b, q, n = 0.3, 0.5, 2
    lhs = exp_coeff_bq(b, q, n) * (1.0 - qpow(q, n))
    wrong = 1.0 / (qp_factorial(q, q, 0, n - 1) * qp_factorial(b, q, 0, n - 1)) / (1.0 - b * q)
    assert abs(lhs - wrong) > 1e-2
    right = f_relation_sides(b, q, n)["shift"][1]
    assert abs(lhs - right) < 1e-12


def test_fib_elliptic_at_b_zero_is_fib_aq():
    # the inverted a/b thetas are theta(0; 0) = 1 at b = 0, p = 0, so the
    # two-parameter recursion is the one-parameter one, a = 0 included
    rng = random.Random(76)
    for a in [0.0] + [draw_annulus(rng, 0.2, 1.5) for _ in range(10)]:
        q = draw_annulus(rng, 0.3, 0.9)
        for n in range(12):
            got = fib_elliptic(n, ParameterSet(a, 0.0, q, 0.0))
            assert got == _loop_fib_aq(n, complex(a), q) == fib_aq(n, a, q)


def test_fib_aq_checks_its_own_n():
    # fib_aq delegates to fib_elliptic, but a negative n is refused in
    # fib_aq's own name, before any parameter is checked
    for fn in (fib_aq, fib_aq_closed):
        with pytest.raises(DomainError, match=f"^{fn.__name__} needs n >= 0$"):
            fn(-1, 0.3, 0.5)
    with pytest.raises(DomainError, match="^fib_aq needs n >= 0$"):
        fib_aq(-2, complex("nan"), 0.5)


def test_fib_elliptic_b_zero_needs_p_zero():
    # theta(0; p) is undefined for p != 0
    with pytest.raises(DomainError):
        fib_elliptic(4, ParameterSet(0.4, 0.0, 0.5, 0.1))


def test_fib_elliptic_and_eta_need_a_when_b_is_nonzero():
    # the inverted thetas divide b by a; a = b = 0 stays legal
    ps = ParameterSet(0.0, 0.4, 0.5, 0.0)
    with pytest.raises(DomainError):
        fib_elliptic(4, ps)
    with pytest.raises(DomainError):
        apply_eta(SkewPoly.x_power(2, ps.q), ps).evaluate(ps)


def test_fib_elliptic_approaches_fib_aq_as_b_vanishes():
    rng = random.Random(73)
    for _ in range(5):
        a = draw_annulus(rng, 0.2, 1.2)
        q = draw_annulus(rng, 0.3, 0.8)
        ps = ParameterSet(a, 1e-9, q, 0.0)
        for n in range(0, 8):
            lhs = fib_elliptic(n, ps)
            rhs = fib_aq(n, a, q)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1.0)


def test_fibonacci_factors_find_the_theta_values_of_the_expansion():
    # each theta argument c q^k is formed from its whole exponent, in the
    # eta leaves of genfun_expand and in fib_elliptic alike, so after the
    # expansion every Fibonacci factor is a theta cache hit
    from ellcomb import clear_caches
    from ellcomb.special_fn import _theta_series
    rng = random.Random(77)
    N = 12
    for _ in range(4):
        ps = draw_ps(rng)
        clear_caches()
        genfun_expand(N, ps)
        misses = _theta_series.cache_info().misses
        for n in range(N + 1):
            fib_elliptic(n, ps)
        assert _theta_series.cache_info().misses == misses, ps
