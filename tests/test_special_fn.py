"""Theta products, shifted factorials, and the weight families."""

import ast
import cmath
import functools
import math
import random
import struct
import sys
from pathlib import Path

import pytest

import ellcomb
from ellcomb import special_fn
from ellcomb.boards import SingleIndexCells
from ellcomb.special_fn import (
    AQWeights,
    BQWeights,
    DomainError,
    EllipticWeights,
    EvaluationError,
    GenericWeights,
    NearPoleError,
    ParameterSet,
    PoleError,
    QWeights,
    bracket_z,
    complex_to_pair,
    exp_coeff_bq,
    family_from_spec,
    guarded,
    path_binom,
    q_binomial,
    qp_factorial,
    qpow,
    theta,
    theta_quotient,
)
from oracles import TableWeights, q_bracket


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


def test_theta_series_cache_is_keyed_on_the_arguments_as_given():
    # theta passes x and p to the series cache unconverted; spellings
    # that compare equal share one entry, as their complex forms did, so
    # each gets the bits of the one miss, zero signs included
    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    series = special_fn._theta_series
    for xs in ((1, 1.0, 1 + 0j, complex(1, -0.0)), (0.5, 0.5 + 0j, complex(0.5, -0.0))):
        series.cache_clear()
        want = bits(theta(complex(xs[0]), 0.3))
        for x in xs:
            for p in (0.3, 0.3 + 0j):
                assert bits(theta(x, p)) == want, (x, p)
        assert (series.cache_info().misses, series.cache_info().currsize) == (1, 1)
        # p = 0 never reaches the cache
        for x in xs:
            for p in (0, 0.0, 0j):
                assert bits(theta(x, p)) == bits(1.0 - complex(x)), (x, p)
        assert (series.cache_info().misses, series.cache_info().currsize) == (1, 1)
    # a bad x raises on every call and leaves no entry
    series.cache_clear()
    nan, inf = math.nan, math.inf
    for bad in (nan, inf, -inf, complex(1.0, nan), complex(inf, 0.0), 0, 0.0, 0j):
        error = DomainError if bad == 0 else EvaluationError
        for p in (0.3, 0.3 + 0j):
            for _ in range(2):
                with pytest.raises(error):
                    theta(bad, p)
        if bad != 0:
            for _ in range(2):
                with pytest.raises(EvaluationError, match="non-finite theta argument"):
                    theta(bad, 0)
    assert series.cache_info().currsize == 0


# the caches bounded by one draw's working set: the theta family, the
# power tables and the Pincherle states
DRAW_CACHES = ("_theta_series", "_elliptic_small", "_elliptic_big",
               "_power_tables", "_pincherle_states")


def _misses_per_step(steps, monkeypatch) -> list:
    # the misses of each draw cache after each step, the caches looked up
    # by module name as ``theta``, the elliptic weights and the Pincherle
    # residuals do, and last the powers the power tables formed; every
    # cache of the package starts empty, so no run inherits a value
    ellcomb.clear_caches()
    caches = [getattr(special_fn, name) for name in DRAW_CACHES]
    forms = [0]
    missing = special_fn._Powers.__missing__

    def counted(table, k):
        forms[0] += 1
        return missing(table, k)

    out = []
    with monkeypatch.context() as m:
        m.setattr(special_fn._Powers, "__missing__", counted)
        for label, step in steps:
            try:
                step()
            except (ArithmeticError, ValueError):
                pass
            out.append((label, [cache.cache_info().misses for cache in caches] + forms))
    return out


def _lost_hits(steps, monkeypatch) -> tuple:
    # (misses with the shipped bounds, misses with unbounded stand-ins
    # and power tables, the stand-ins' final sizes)
    shipped = _misses_per_step(steps, monkeypatch)
    with monkeypatch.context() as m:
        for name in DRAW_CACHES:
            m.setattr(special_fn, name,
                      functools.lru_cache(maxsize=None)(getattr(special_fn, name).__wrapped__))
        m.setattr(special_fn, "_POWERS_PER_TABLE", math.inf)
        unbounded = _misses_per_step(steps, monkeypatch)
        sizes = [getattr(special_fn, name).cache_info().currsize
                 for name in DRAW_CACHES]
    return shipped, unbounded, sizes


def test_theta_family_bounds_lose_no_hit_in_the_registry(monkeypatch):
    # each bound holds one draw's working set: every numeric-sampled
    # check at its default sizes, one after another as a registry pass
    # runs them, misses no value an unbounded cache would have kept,
    # although the theta series alone outgrows its bound many times over
    from ellcomb.verify import list_identities, run_check
    steps = [(check.id, lambda check_id=check.id: run_check(check_id, seed=1))
             for check in list_identities() if check.kind == "numeric-sampled"]
    shipped, unbounded, sizes = _lost_hits(steps, monkeypatch)
    assert shipped == unbounded
    assert sizes[0] > 4 * special_fn._theta_series.cache_info().maxsize


def test_theta_family_bounds_lose_no_hit_on_one_draw(monkeypatch):
    # one numeric benchmark draw written with library calls: big weights
    # and the small weights of their columns, binomials and path sums, the
    # Fibonacci expansion, Pincherle residuals and the product formulas
    # on three boards; then y^6 x^6 (Weyl) and (x + y)^12 under one
    # elliptic draw and under the constant weight 1
    from ellcomb import (FerrersBoard, RelationSystem, expand_power_sum,
                         fib_elliptic, file_product_sides, genfun_expand,
                         normal_order, pincherle_check, rook_product_sides)
    rng = random.Random(29)
    ps = draw_ps(rng)
    fam = EllipticWeights(ps)

    def big_weights():
        for s in range(1, 4):
            for t in range(1, 6):
                fam.small(s, t)
                fam.big(s, t)

    def binomials():
        for n in range(9):
            for k in range(n + 1):
                fam.binom(n, k)
                path_binom(n, k, fam)

    def fibonacci():
        genfun_expand(13, ps)
        for m in range(1, 14):
            fib_elliptic(m, ps)

    def pincherle():
        for k in range(1, 9):
            for n in range(4):
                pincherle_check(k, n, ps)

    def products():
        for heights, z in (((0, 1, 1, 2, 3), 1), ((1, 2, 2, 3, 4), 3), ((2, 3, 4, 5, 5), 2)):
            rook_product_sides(FerrersBoard(heights), z, ps)
            file_product_sides(FerrersBoard(heights), z, ps)

    forms = [normal_order("y" * 6 + "x" * 6, RelationSystem.ROOK_WEYL),
             expand_power_sum(12, RelationSystem.HOMOGENEOUS)]
    words_ps = draw_ps(rng)
    steps = [("big", big_weights), ("binom", binomials), ("fib", fibonacci),
             ("pincherle", pincherle), ("products", products)]
    for index, nf in enumerate(forms):
        steps.append((f"elliptic {index}", lambda nf=nf: nf.evaluate(EllipticWeights(words_ps))))
    for index, nf in enumerate(forms):
        steps.append((f"weight 1 {index}", lambda nf=nf: nf.evaluate(QWeights(1))))
    shipped, unbounded, _ = _lost_hits(steps, monkeypatch)
    assert shipped == unbounded
    # every cache was asked for values
    assert all(shipped[-1][1]), shipped[-1]


def _theta_product_loop(x, p):
    # the series loop as it stood before p^(j+1) was formed once per
    # factor, copied literally: the current loop must match it bit for bit
    result = 1.0 + 0.0j
    pj = 1.0 + 0.0j
    inv_x = 1.0 / x
    for _ in range(special_fn._MAX_FACTORS):
        t1 = pj * x
        t2 = pj * p * inv_x
        if abs(t1) < special_fn._FACTOR_EPS and abs(t2) < special_fn._FACTOR_EPS:
            break
        result *= (1.0 - t1) * (1.0 - t2)
        pj *= p
    return result


def test_theta_series_is_bit_identical_to_the_product_loop():
    compared = 0
    for x_exp in range(-8, 8):
        for p_mod in (0.05, 0.3, 0.6, 0.9):
            for x_phase in (0.0, 0.7, 2.0, -2.9):
                for p_phase in (0.0, 1.1, -2.4):
                    x = 1.37 * 10.0 ** x_exp * cmath.exp(1j * x_phase)
                    p = p_mod * cmath.exp(1j * p_phase)
                    expected = _theta_product_loop(x, p)
                    if math.isfinite(expected.real) and math.isfinite(expected.imag):
                        assert theta(x, p) == expected, (x, p)
                        compared += 1
                    else:
                        with pytest.raises(EvaluationError):
                            theta(x, p)
    assert compared > 600


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
    # the q-shifted factorial (a; q)_n is the theta one at p = 0
    a, q = 0.3, 0.5
    assert abs(qp_factorial(a, q, 0, 3) - (1 - a) * (1 - a * q) * (1 - a * q * q)) < 1e-15
    assert qp_factorial(a, q, 0, 0) == 1.0


def test_q_factorial_negative_index():
    rng = random.Random(8)
    for _ in range(30):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 0.9)
        n = rng.randint(1, 6)
        prod = qp_factorial(a, q, 0, -n) * qp_factorial(a * qpow(q, -n), q, 0, n)
        assert abs(prod - 1.0) < 1e-12


def test_qp_factorial_p_zero_matches_q_factorial():
    rng = random.Random(9)
    for _ in range(30):
        a = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 0.9)
        n = rng.randint(-4, 6)
        # (a; q)_n, or 1 / (a q^n; q)_(-n) for n < 0, as plain factors
        direct = 1.0 + 0.0j
        for j in range(min(n, 0), max(n, 0)):
            direct *= 1.0 - a * qpow(q, j)
        want = direct if n >= 0 else 1.0 / direct
        assert abs(qp_factorial(a, q, 0, n) - want) <= 1e-12 * max(1.0, abs(want))
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
    # [z] at a = b = p = 0 is the q-number (1 - q^z) / (1 - q), bit for
    # bit the one theta quotient of the test oracle
    q = 0.4
    assert abs(q_bracket(3, q) - (1 + q + q * q)) < 1e-15
    for z in (0, 1, 3, -2, 0.5):
        assert bracket_z(ParameterSet(0, 0, q, 0), z) == q_bracket(z, q), z


def test_qpow_out_of_range_is_an_evaluation_error():
    # complex ** raises ZeroDivisionError for a negative power of 0, also
    # when the power of q underflows first, and OverflowError past the
    # double range: both are EvaluationError
    for q, z in ((0, -1), (0.0, -3.0), (1e-200, -2), (1e-200j, -2), (1e200, 2), (1e200, 3.0)):
        with pytest.raises(EvaluationError, match="out of range"):
            qpow(q, z)
    assert qpow(0, 0) == 1 and qpow(0, 2) == 0 and qpow(2, -1) == 0.5



def test_qpow_of_zero_at_a_non_integer_power():
    # 0^z is 0 for Re z > 0; otherwise it is undefined, a DomainError,
    # not cmath.log's bare ValueError
    assert qpow(0, 0.5) == 0 and qpow(0j, 2.5 + 1j) == 0
    for z in (-0.5, 0j, 1j, -1.5 + 2j):
        with pytest.raises(DomainError, match="Re z > 0"):
            qpow(0, z)
    with pytest.raises(DomainError):
        bracket_z(ParameterSet(0, 0, 0, 0), 0.5)


def _bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


# spellings of q, among them pairs that compare equal but differ in the
# sign of a zero part; CPython forms z ** k by repeated squaring for
# |k| <= 100 and by exp and log beyond, so k runs past both edges
POWER_TABLE_SPELLINGS = (
    0.5, 0.5 + 0j, complex(0.5, -0.0), complex(-0.0, 0.5), complex(0.0, 0.5),
    complex(-0.5, -0.0), 2, 0.5 + 0.1j, -1.5 - 0.2j)


def test_power_table_keeps_the_bits_of_qpow():
    tables = special_fn._power_tables
    tables.cache_clear()
    for q in POWER_TABLE_SPELLINGS:
        table = special_fn._q_powers(q)
        for k in range(-300, 301):
            assert _bits(table[k]) == _bits(qpow(q, k)), (q, k)
        # the table stores its first powers only, and a second read,
        # stored or formed afresh, has the same bits
        assert len(table) == special_fn._POWERS_PER_TABLE
        assert all(_bits(table[k]) == _bits(qpow(q, k)) for k in (-300, -101, -1, 0, 1, 100, 101, 300))
    # the two spellings of i/2 compare and hash equal, but their first
    # powers differ in the sign of the real zero, so each has its table
    minus, plus = complex(-0.0, 0.5), complex(0.0, 0.5)
    assert minus == plus and hash(minus) == hash(plus)
    assert special_fn._q_powers(minus) is not special_fn._q_powers(plus)
    assert math.copysign(1.0, special_fn._q_powers(minus)[1].real) == -1.0
    assert math.copysign(1.0, special_fn._q_powers(plus)[1].real) == 1.0
    assert special_fn._q_powers(0.5) is not special_fn._q_powers(complex(0.5, -0.0))
    # a complex q with both parts nonzero is found again by value
    assert special_fn._q_powers(0.5 + 0.1j) is special_fn._q_powers(complex(0.5, 0.1))


def test_power_table_raises_what_qpow_raises_and_stores_nothing():
    for q, k in ((10.0 + 1j, 400), (10.0, 400), (1e200, 2), (0, -1), (0j, -3), (1e-200j, -2)):
        with pytest.raises(EvaluationError) as want:
            qpow(q, k)
        table = special_fn._q_powers(q)
        size = len(table)
        for _ in range(2):
            with pytest.raises(EvaluationError, match="^q\\^z out of range") as got:
                table[k]
            assert str(got.value) == str(want.value)
        assert k not in table and len(table) == size


def test_clear_caches_empties_the_power_table():
    import ellcomb
    special_fn._q_powers(0.5 + 0.1j)[3]
    assert special_fn._power_tables.cache_info().currsize
    ellcomb.clear_caches()
    assert special_fn._power_tables.cache_info().currsize == 0


# every use of qpow left in the library modules, by module and enclosing
# function, with the reason it forms its power without the table
QPOW_USES = {
    "special_fn:_Powers.__missing__": "the table's miss path",
    "special_fn:ParameterSet.shift": "reference side: the shifted parameters of weight-shift",
    "special_fn:bracket_z": "non-integer exponent: q^z off the integers",
    "skewpoly:f_relation_sides": "reference side: the right sides of f-relations",
    "skewpoly:f_relation_sides.series_coeff": "reference side: the right sides of f-relations",
}


def _qpow_uses(path) -> set:
    # enclosing class and function names of every name qpow read in path
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if ((isinstance(child, ast.Name) and child.id == "qpow")
                    or (isinstance(child, ast.Attribute) and child.attr == "qpow")):
                uses.add(f"{path.stem}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return uses


def test_no_library_site_bypasses_the_power_table():
    # a new theta argument or prefactor formed with qpow in place of the
    # table fails here until it is listed with one of the three reasons
    package = Path(special_fn.__file__).parent
    uses = set()
    for name in ("special_fn", "skewpoly", "boards"):
        uses |= _qpow_uses(package / f"{name}.py")
    assert uses == set(QPOW_USES)
    reasons = ("the table's miss path", "non-integer exponent:", "reference side:")
    assert all(reason.startswith(reasons) for reason in QPOW_USES.values())
    # the references in verify form every power of their own
    source = (package / "verify.py").read_text()
    assert "_q_powers" not in source and "_power_tables" not in source
    assert _qpow_uses(package / "verify.py") >= {
        f"verify:{name}" for name in ("_small_ref", "_qfac_ref", "_qfac_ref_guarded",
                                      "_full_binom_ref", "_aq_binom_ref",
                                      "_choice_coeff_ref")}


def test_theta_series_length_edges():
    # |p| / |x| overflows: the series is non-finite
    for x in (5e-324, 5e-324j, 1e-310):
        with pytest.raises(EvaluationError):
            theta(x, 0.3)
    # the 300-factor cap: at |p| = 0.99 the terms are still far above
    # the stopping bound after 300 factors
    for x, p in ((0.5 + 0.5j, 0.99 + 0j), (2.0 + 0j, -0.99j), (0.7j, 0.95 + 0.2j)):
        assert abs(p) ** 300 * abs(x) > 1e-10
        capped = 1.0 + 0.0j
        pj = 1.0 + 0.0j
        for _ in range(300):
            t1 = pj * x
            pj = pj * p
            capped *= (1.0 - t1) * (1.0 - pj * (1.0 / x))
        assert theta(x, p) == capped


def test_theta_quotient_raises_what_theta_raises():
    # the nome is checked once per call, each argument once per factor;
    # the exception types are those of a theta call on the factor
    for p in (1.0, 1.2, 0.6 + 0.8j, -1.0, cmath.inf):
        with pytest.raises(DomainError):
            theta_quotient([0.5], [0.25], p)
        with pytest.raises(DomainError):
            theta(0.5, p)
    for nums, dens in (([0.5, 0.0], [0.25, 0.75]), ([0.5], [0.25, 0j])):
        with pytest.raises(DomainError, match="x = 0"):
            theta_quotient(nums, dens, 0.3)
    # x = 0 is a factor 1 at p = 0
    assert theta_quotient([0.0], [0.5], 0.0) == 1.0 / 0.5
    nan, inf = math.nan, math.inf
    for p in (0.0, 0.3, 0.2 - 0.1j):
        for bad in (nan, inf, -inf, complex(1.0, nan), complex(inf, 0.0)):
            for nums, dens in (([0.5, bad], [0.25, 0.75]), ([0.5], [0.25, bad]),
                               ([bad], [bad])):
                with pytest.raises(EvaluationError, match="theta argument"):
                    theta_quotient(nums, dens, p)
            with pytest.raises(EvaluationError):
                theta(bad, p)
    with pytest.raises(EvaluationError):
        theta_quotient([0.5], [0.25], nan)
    with pytest.raises(EvaluationError):
        theta(0.5, complex(0.1, nan))


def test_theta_quotient_forms_each_factor_with_theta(monkeypatch):
    # theta is the one per-factor rule, looked up by its module name, so
    # a wrapper installed on special_fn.theta sees every factor
    seen = []
    plain = special_fn.theta

    def counted(x, p):
        seen.append(x)
        return plain(x, p)

    monkeypatch.setattr(special_fn, "theta", counted)
    for p in (0.0, 0.3):
        seen.clear()
        theta_quotient([0.5, 0.25, 2.0], [0.75], p)
        assert seen == [0.5, 0.75, 0.25, 2.0]


def test_one_factor_theta_quotient_is_theta_bit_for_bit():
    # theta_quotient([x], [], p) is theta(x, p) in every bit, zero signs
    # included, however the quotient forms its factors: at p = 0, at
    # x = 0 there, and at x = 1, where theta(1; p) = 0 exactly
    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    xs = (0.0, -0.0, complex(-0.0, -0.0), 1.0, 1.0 + 0.0j, -1.0, 0.5,
          -0.5 + 0.25j, 2.0 - 1.0j, 1e-3, 1e3, 1j)
    for p in (0.0, 0j, 0.3, -0.2 + 0.3j, 0.9j, 1e-12):
        for x in xs:
            if x == 0 and p != 0:
                continue
            assert bits(theta_quotient([x], [], p)) == bits(theta(x, p)), (x, p)
        assert theta_quotient([1.0], [], p) == 0
    # a non-finite x raises the same EvaluationError from both
    nan, inf = math.nan, math.inf
    for p in (0.0, 0.3, 0.2 - 0.1j):
        for bad in (nan, inf, -inf, complex(1.0, nan), complex(inf, 0.0)):
            with pytest.raises(EvaluationError, match="^non-finite theta argument") as direct:
                theta(bad, p)
            with pytest.raises(EvaluationError) as quotient:
                theta_quotient([bad], [], p)
            assert str(quotient.value) == str(direct.value)


def test_theta_quotient_pole_indices():
    # an exact pole is a PoleError carrying the index of its factor pair,
    # a near pole a NearPoleError naming it; an exact pole raises before
    # any later factor is formed
    q = 0.5
    cases = (
        ([0.3, 0.4], [0.6, 1.0], 0.0, 1),
        ([0.3], [1.0, 0.6, 0.7], 0.0, 0),
        ([], [0.6, 0.7, 1.0 + 0.0j], 0.0, 2),
        ([0.3, 0.4, 0.5], [0.6, 0.7, 1.0], 0.3, 2),
        ([0.3], [0.6, 0.3, 1.0], 0.2j, 2),
        ([], [q ** 2, q, 1.0, 0.0], 0.1, 2),
    )
    for nums, dens, p, index in cases:
        with pytest.raises(PoleError) as info:
            theta_quotient(nums, dens, p)
        assert info.value.index == index
        near = [d * (1 + 1e-14) if d == 1.0 else d for d in dens]
        with pytest.raises(NearPoleError, match=f"denominator theta factor {index}"):
            theta_quotient(nums, near, p)


def test_guarded_poles():
    with pytest.raises(PoleError):
        guarded(0.0)
    with pytest.raises(NearPoleError):
        guarded(1e-30)
    assert guarded(0.5) == 0.5


def test_one_sided_theta_quotient_pads_with_factors_one():
    rng = random.Random(31)
    for p in (0.0, draw_annulus(rng, 0.05, 0.5)):
        xs = [draw_annulus(rng, 0.3, 2.0) for _ in range(4)]
        product = 1.0 + 0.0j
        for x in xs:
            product *= theta(x, p)
        assert special_fn.theta_quotient(xs, (), p) == product
        assert special_fn.theta_quotient((), xs, p) == 1.0 / product
        assert special_fn.theta_quotient(xs[:1], xs, p) == (
            special_fn.theta_quotient(xs[:1], xs[:1], p)
            * special_fn.theta_quotient((), xs[1:], p))
        assert special_fn.theta_quotient((), (), p) == 1.0
    with pytest.raises(PoleError) as info:
        special_fn.theta_quotient((), [0.5, 1.0], 0.3)
    assert info.value.index == 1
    with pytest.raises(NearPoleError, match="denominator theta factor 0"):
        special_fn.theta_quotient((), [1.0 + 1e-14], 0.0)


# Literal copies of the hand-written loops that every q- and
# theta-factorial quotient used before it became a theta_quotient call.
# Where the operation order is unchanged the results match them bit for
# bit; where an exactly equal numerator and denominator factor is now
# skipped (k = 0, z = 1), or the factors are multiplied in another
# order, they agree to 1e-14 relative.

def _loop_qp_factorial(a, q, p, n):
    a = complex(a)
    q = complex(q)
    if n >= 0:
        result = 1.0 + 0.0j
        for j in range(n):
            result *= theta(a * qpow(q, j), p)
        return result
    denom = 1.0 + 0.0j
    for j in range(-n):
        factor = theta(a * qpow(q, n + j), p)
        guarded(factor, j, "theta-factorial factor")
        denom *= factor
    return 1.0 / denom


def _loop_q_binomial(n, k, q):
    if k < 0 or k > n:
        return 0.0 + 0.0j
    q = complex(q)
    num = _loop_qp_factorial(qpow(q, 1 + k), q, 0, n - k)
    den = 1.0 + 0.0j
    for j in range(n - k):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "q-binomial factor")
    return num / den


def _loop_q_bracket(z, q):
    q = complex(q)
    guarded(1.0 - q, 0, "q-bracket denominator")
    return (1.0 - qpow(q, z)) / (1.0 - q)


def _loop_aq_binom(a, q, n, k):
    if k < 0 or k > n:
        return 0.0 + 0.0j
    a = complex(a)
    q = complex(q)
    m = n - k
    num = (_loop_qp_factorial(qpow(q, 1 + k), q, 0, m)
           * _loop_qp_factorial(a * qpow(q, 1 + k), q, 0, m))
    den = 1.0 + 0.0j
    for j in range(m):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "aq binom denominator")
        den *= guarded(1.0 - a * qpow(q, 1 + j), j, "aq binom denominator")
    return num / den * qpow(q, k * (k - n))


def _loop_exp_coeff_bq(b, q, n):
    b = complex(b)
    den = 1.0 + 0.0j
    for j in range(n):
        den *= guarded(1.0 - qpow(q, 1 + j), j, "exp coefficient factor")
        den *= guarded(1.0 - b * qpow(q, 1 + j), j, "exp coefficient factor")
    return 1.0 / den


def _loop_reversal_coeff_bq(b, q, l, k):
    b = complex(b)
    num = _loop_qp_factorial(b * qpow(q, 1 + k), q, 0, 2 * l)
    den = 1.0 + 0.0j
    for j in range(2 * l):
        den *= guarded(1.0 - b * qpow(q, 1 + j), j, "reversal denominator")
    return num / den * qpow(q, -k * l)


def assert_parity(new, old, exact):
    if exact:
        assert new == old
    else:
        assert abs(new - old) <= 1e-14 * max(abs(new), abs(old))


def test_factorial_quotients_match_the_loops_they_replace():
    rng = random.Random(32)
    for draw in range(40):
        a = draw_annulus(rng, 0.2, 2.0)
        b = draw_annulus(rng, 0.2, 2.0)
        q = draw_annulus(rng, 0.3, 1.5)
        p = 0.0 if draw % 2 else draw_annulus(rng, 0.05, 0.6)
        try:
            for n in range(-6, 8):
                assert_parity(qp_factorial(a, q, p, n), _loop_qp_factorial(a, q, p, n), True)
                assert_parity(qp_factorial(a, q, 0, n), _loop_qp_factorial(a, q, 0, n), True)
            for n in range(8):
                assert_parity(exp_coeff_bq(b, q, n), _loop_exp_coeff_bq(b, q, n), True)
                assert_parity(exp_coeff_bq(0, q, n), _loop_exp_coeff_bq(0, q, n), True)
                for k in range(-1, n + 2):
                    assert_parity(q_binomial(n, k, q), _loop_q_binomial(n, k, q), k != 0)
                    assert_parity(AQWeights(a, q).binom(n, k), _loop_aq_binom(a, q, n, k),
                                  k == n or not 0 <= k <= n)
                for l in range(4):
                    assert_parity(special_fn.reversal_coeff_bq(b, q, l, n),
                                  _loop_reversal_coeff_bq(b, q, l, n), n != 0)
            for z in (0, 1, 2, 5, -3, 0.5, 1.5 - 0.25j):
                assert_parity(q_bracket(z, q), _loop_q_bracket(z, q), z != 1)
        except NearPoleError:
            continue


def test_factorial_quotients_raise_at_exact_and_near_poles():
    # q = 0.5: the factor 1 - 4 q^2 (or theta(4 q^2; p)) vanishes
    # exactly; 4 (1 + 1e-14) puts it within NEAR_POLE_TOL of zero
    q = 0.5
    cases = [
        (lambda x: qp_factorial(x * q ** 4, q, 0, -3), 1),
        (lambda x: qp_factorial(x * q ** 4, q, 0.3, -3), 1),
        (lambda x: q_binomial(3, 1, -x / 4), 1),
        (lambda x: q_bracket(3, x * q ** 2), 0),
        (lambda x: AQWeights(x, q).binom(3, 0), 3),
        (lambda x: exp_coeff_bq(x, q, 3), 3),
        (lambda x: special_fn.reversal_coeff_bq(x, q, 2, 1), 1),
    ]
    for case, index in cases:
        with pytest.raises(PoleError) as info:
            case(4.0)
        assert info.value.index == index
        with pytest.raises(NearPoleError, match="denominator theta factor"):
            case(4.0 * (1 + 1e-14))


def test_guarded_is_called_only_by_theta_quotient_and_f_relation_sides():
    # every q- and theta-factorial quotient goes through theta_quotient;
    # f_relation_sides keeps its own guarded factorials as the reference
    # side of the f-relations check
    package = Path(special_fn.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "guarded" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}:{getattr(top, 'name', None)}")
    assert callers == {"special_fn:theta_quotient", "skewpoly:f_relation_sides"}


def test_parameter_set_shift_and_json():
    ps = ParameterSet(0.3 + 0.1j, 0.4, 0.5 + 0.2j, 0.1)
    shifted = ps.shift(2, 1)
    assert shifted.a == ps.a * ps.q**2
    assert shifted.b == ps.b * ps.q
    assert shifted.q == ps.q and shifted.p == ps.p
    sw = ps.swapped()
    assert sw.a == ps.b and sw.b == ps.a


def test_complex_pair_round_trip():
    z = 1.25 - 0.5j
    assert complex(*complex_to_pair(z)) == z


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


def test_big_weight_closed_form_is_evaluated_once_per_cell(monkeypatch):
    # the full triangle n <= 8 asks for W(s, t) at every lattice cell;
    # there are 28 distinct cells with s, t >= 1, s + t <= 8
    fam = EllipticWeights(ParameterSet(0.83 + 0.21j, 0.47 - 0.36j, 0.62 + 0.18j, 0.11 - 0.07j))
    closed_forms = 0
    quotient = special_fn.theta_quotient

    def counting(nums, dens, p):
        nonlocal closed_forms
        if sys._getframe(1).f_code.co_name in ("big", "_elliptic_big"):
            closed_forms += 1
        return quotient(nums, dens, p)

    special_fn._elliptic_big.cache_clear()
    monkeypatch.setattr(special_fn, "theta_quotient", counting)
    for n in range(9):
        for k in range(n + 1):
            path_binom(n, k, fam)
    assert 0 < closed_forms <= 28


def test_closed_big_weight_equals_column_product_on_grid():
    # the closed form of _elliptic_big against the column product of
    # _elliptic_small, s in -2..3, t in 1..5, relative 1e-10 against
    # max(|closed|, |product|, 1e-30); near-pole draws are redrawn
    rng = random.Random(26)
    done = 0
    while done < 20:
        ps = draw_ps(rng)
        try:
            for s in range(-2, 4):
                product = 1.0 + 0.0j
                for t in range(1, 6):
                    product *= special_fn._elliptic_small(ps, s, t)
                    closed = special_fn._elliptic_big(ps, s, t)
                    scale = max(abs(closed), abs(product), 1e-30)
                    assert abs(closed - product) <= 1e-10 * scale, (ps, s, t)
        except NearPoleError:
            continue
        done += 1


def test_big_weight_is_finite_where_a_small_weight_of_its_column_is_a_pole():
    # b = q^-4: small(1, 2) has the denominator 1 - b q^4 = 0, which the
    # column product cancels; the closed b;q value is 3.5
    fam = BQWeights(16, 0.5)
    with pytest.raises(PoleError):
        fam.small(1, 2)
    assert fam.big(1, 4) == 3.5


def test_dual_weight_is_the_reciprocal_at_exchanged_indices():
    # w*(s, t) = 1 / w(t, s): the theta weight with a and b exchanged at
    # p != 0, and the a;q weight against the b;q weight at p = 0
    rng = random.Random(27)
    checked = 0
    while checked < 20:
        ps = draw_ps(rng)
        a, q = ps.a, ps.q
        try:
            for s in range(-2, 4):
                for t in range(-2, 4):
                    prod = (EllipticWeights(ps.swapped()).small(s, t)
                            * EllipticWeights(ps).small(t, s))
                    assert abs(prod - 1.0) <= 2e-14, (ps, s, t)
                    prod = AQWeights(a, q).small(s, t) * BQWeights(a, q).small(t, s)
                    assert abs(prod - 1.0) <= 2e-14, (a, q, s, t)
        except NearPoleError:
            continue
        checked += 1
    # the theta weight at a = 0 is the b;q weight, whose dual is the a;q
    # weight at a = b: the constant 1/q at b = 0
    assert AQWeights(0, 0.5).small(1, 2) == 2.0
    bq = EllipticWeights(ParameterSet(0, 0.4, 0.5, 0))
    for s in range(-2, 4):
        for t in range(-2, 4):
            assert abs(AQWeights(0.4, 0.5).small(s, t) * bq.small(t, s) - 1.0) <= 2e-14, (s, t)
    # at a = q^-5 the a;q weight has an exact zero and an exact pole
    aq = AQWeights(0.5 ** -5, 0.5)
    assert aq.small(1, 2) == 0
    with pytest.raises(PoleError):
        aq.small(1, 3)


def test_memoised_big_weight_equals_a_fresh_evaluation():
    rng = random.Random(25)
    fresh = special_fn._elliptic_big.__wrapped__
    for _ in range(20):
        ps = draw_ps(rng)
        fam = EllipticWeights(ps)
        s = rng.randint(1, 5)
        t = rng.randint(1, 5)
        first = fam.big(s, t)
        hits = special_fn._elliptic_big.cache_info().hits
        assert fam.big(s, t) == first == fresh(ps, s, t)
        assert special_fn._elliptic_big.cache_info().hits == hits + 1


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
    from ellcomb.special_fn import path_binom
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
                 lambda: fam.binom(3, 1),
                 lambda: SingleIndexCells(ps0, "rook").small(2, 1),
                 lambda: bracket_z(ps0, 2)):
        with pytest.raises(DomainError):
            call()
    ps = ParameterSet(0.3, 0.0, 0.5, 0.1)
    with pytest.raises(DomainError):
        bracket_z(ps, 2)
    with pytest.raises(DomainError):
        SingleIndexCells(ps, "rook").small(2, 1)


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
                want = (1 - b * qpow(q, 2 * s + t - 2)) / (1 - b * qpow(q, 2 * s + t)) * q
                assert abs(bq.small(s, t) - want) < 1e-12 * max(1.0, abs(want))
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


class _CountingTable(TableWeights):
    def __init__(self, table):
        super().__init__(table)
        self.calls = 0

    def small(self, s, t):
        self.calls += 1
        return super().small(s, t)


def test_triangle_binom_carries_column_weights():
    # each column's big weight W(j, t) = W(j, t - 1) w(j, t) comes from the
    # row before, so [n, k] reads each cell weight once instead of
    # rebuilding a column product per triangle cell, in the same order
    rng = random.Random(24)
    table = {(s, t): complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
             for s in range(1, 201) for t in range(1, 201)}
    reference = TableWeights(table)
    row = [1.0 + 0.0j]
    for m in range(1, 201):
        row = [(row[j] if j < m else 0.0 + 0.0j)
               + (row[j - 1] * reference.big(j, m - j) if j else 0.0 + 0.0j)
               for j in range(m + 1)]
    for k, cap in ((1, 400), (100, 20_000)):
        fam = _CountingTable(table)
        assert fam.binom(200, k) == row[k]
        assert fam.calls <= cap, (k, fam.calls)


def test_path_binom_reads_each_cell_weight_once():
    # path_binom builds each column's big weights as one running product,
    # so under a family without a closed big weight [200, 100] reads the
    # 100 x 100 small weights once each, not t of them per cell
    rng = random.Random(39)
    table = {(s, t): complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
             for s in range(1, 101) for t in range(1, 101)}
    fam = _CountingTable(table)
    got = path_binom(200, 100, fam)
    assert fam.calls <= 20_000, fam.calls
    assert got == TableWeights(table).binom(200, 100)


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
    #      / theta(a q^(2m-1), b q^(m+2), a q^m/b; p) * q  is  w(1, m),
    # the weight of the rook cell (m + t, t) and the file cell (s, 1 - m)
    rng = random.Random(22)
    for _ in range(20):
        ps = draw_ps(rng)
        a, b, q, p = ps.a, ps.b, ps.q, ps.p
        fam = EllipticWeights(ps)
        rook = SingleIndexCells(ps, "rook")
        file = SingleIndexCells(ps, "file")
        for m in range(-6, 7):
            single = rook.small(m + 2, 2)
            assert single == rook.small(m + 1, 1) == file.small(3, 1 - m) == fam.small(1, m)
            num = (theta(a * qpow(q, 2 * m + 1), p) * theta(b * qpow(q, m), p)
                   * theta(a * qpow(q, m - 2) / b, p))
            den = (theta(a * qpow(q, 2 * m - 1), p) * theta(b * qpow(q, m + 2), p)
                   * theta(a * qpow(q, m) / b, p))
            want = num / den * q
            assert abs(single - want) <= 1e-10 * max(abs(want), 1.0)


def test_exp_coeff_q_frozen():
    q = 0.5
    want = 1.0 / ((1 - q) * (1 - q * q))
    assert abs(exp_coeff_bq(0, q, 2) - want) < 1e-14


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


def test_out_of_range_powers_and_quotients_are_evaluation_errors():
    for z in (-2000, -2000.0, -2000.5):
        with pytest.raises(EvaluationError):
            qpow(0.5, z)
    with pytest.raises(EvaluationError, match="non-finite theta quotient"):
        theta_quotient([3.0] * 1100, [], 0)
    # a quotient that underflows is finite: 0 is a value, not an error
    assert theta_quotient([], [3.0] * 1100, 0) == 0
