"""Word parsing, rewriting systems, and normal ordering."""

import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from ellcomb.ncword import (
    NormalForm,
    RelationSystem,
    WordParseError,
    expand_power_sum,
    normal_order,
    parse_word,
)
from ellcomb.special_fn import DomainError, GenericWeights, QWeights
from ellcomb.weightpoly import WeightPolynomial
from oracles import multiply, poly_from_json

HOM = RelationSystem.HOMOGENEOUS
WEYL = RelationSystem.ROOK_WEYL
FILE = RelationSystem.FILE


def w(s, t):
    return WeightPolynomial.symbol(s, t)


def all_words(length):
    return ["".join(bits) for bits in itertools.product("xy", repeat=length)]


def test_parse_word():
    assert parse_word("xYxy") == "xyxy"
    assert parse_word("") == ""
    with pytest.raises(WordParseError) as info:
        parse_word("xyz")
    assert info.value.position == 2


def test_relation_system_tags():
    assert RelationSystem.from_tag("comm") is HOM
    assert RelationSystem.from_tag("WEYL") is WEYL
    assert RelationSystem.from_tag("file") is FILE
    with pytest.raises(DomainError):
        RelationSystem.from_tag("boson")


def test_single_descent_normal_forms():
    got = normal_order("yx", HOM)
    assert got == NormalForm({(1, 1): w(1, 1)})
    got = normal_order("yx", WEYL)
    assert got == NormalForm({(1, 1): w(1, 1), (0, 0): 1})
    got = normal_order("yx", FILE)
    assert got == NormalForm({(1, 1): w(1, 1), (0, 1): 1})


def test_already_ordered_words_are_fixed():
    for rs in RelationSystem:
        assert normal_order("xxyy", rs) == NormalForm({(2, 2): 1})
        assert normal_order("", rs) == NormalForm.unit()
        assert normal_order("x", rs) == NormalForm({(1, 0): 1})
        assert normal_order("y", rs) == NormalForm({(0, 1): 1})


def test_scalar_commutation_shifts_symbols():
    # x y x: the descent yx creates w(1,1); moving it past the leading x
    # shifts it to w(2,1).
    got = normal_order("xyx", HOM)
    assert got == NormalForm({(2, 1): w(2, 1)})
    got = normal_order("yyx", HOM)
    assert got == NormalForm({(1, 2): w(1, 1).times_symbol(1, 2)})


def test_weyl_word_frozen_at_q_one():
    # x y x x y x y y with all weights 1 leaves exactly three terms.
    nf = normal_order("xyxxyxyy", WEYL)
    totals = {}
    for (i, j), poly in nf.coeffs.items():
        totals[(i, j)] = sum(poly.terms.values())
    assert totals == {(4, 4): 1, (3, 3): 4, (2, 2): 2}


def test_homogeneous_strategy_independence_exhaustive():
    for length in range(7):
        for word in all_words(length):
            r = normal_order(word, HOM, strategy="rightmost")
            l = normal_order(word, HOM, strategy="leftmost")
            assert r == l


def test_inhomogeneous_strategies_diverge_symbolically():
    # yxyx is the smallest word where the rewrite order changes the
    # symbolic lower-order terms in the inhomogeneous systems.
    for rs in (WEYL, FILE):
        r = normal_order("yxyx", rs, strategy="rightmost")
        l = normal_order("yxyx", rs, strategy="leftmost")
        assert r != l


def test_inhomogeneous_strategies_agree_at_constant_weights():
    rng = random.Random(41)
    for fam in (QWeights(1.0), QWeights(0.7 + 0.1j)):
        for rs in (WEYL, FILE):
            words = ["yxyx"] + ["".join(rng.choice("xy") for _ in range(rng.randint(1, 9)))
                                for _ in range(25)]
            for word in words:
                r = normal_order(word, rs, strategy="rightmost").evaluate(fam)
                l = normal_order(word, rs, strategy="leftmost").evaluate(fam)
                keys = set(r) | set(l)
                for key in keys:
                    diff = abs(r.get(key, 0) - l.get(key, 0))
                    scale = max(abs(r.get(key, 0)), abs(l.get(key, 0)), 1.0)
                    assert diff <= 1e-10 * scale


def test_unknown_strategy_rejected():
    with pytest.raises(DomainError):
        normal_order("yx", HOM, strategy="middle")


def test_grading_homogeneous_and_file_preserve_y_count():
    rng = random.Random(42)
    for _ in range(40):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 10)))
        m = word.count("x")
        n = word.count("y")
        hom = normal_order(word, HOM)
        assert set(hom.coeffs) <= {(m, n)}
        fil = normal_order(word, FILE)
        assert all(j == n and i <= m for (i, j) in fil.coeffs)
        wey = normal_order(word, WEYL)
        assert all(m - i == n - j and i <= m for (i, j) in wey.coeffs)


def test_multiply_homogeneous_matches_concatenation():
    rng = random.Random(43)
    for _ in range(30):
        u = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
        direct = normal_order(u + v, HOM)
        piecewise = multiply(normal_order(u, HOM), normal_order(v, HOM), HOM)
        assert direct == piecewise


def test_multiply_inhomogeneous_matches_under_constant_weights():
    # Concatenation and normal-form multiplication may disagree on the
    # symbol indices of lower-order terms; at constant weights they
    # coincide.
    rng = random.Random(44)
    fam = QWeights(0.6 + 0.2j)
    for rs in (WEYL, FILE):
        for _ in range(20):
            u = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
            v = "".join(rng.choice("xy") for _ in range(rng.randint(0, 5)))
            direct = normal_order(u + v, rs).evaluate(fam)
            piecewise = multiply(normal_order(u, rs), normal_order(v, rs), rs).evaluate(fam)
            keys = set(direct) | set(piecewise)
            for key in keys:
                diff = abs(direct.get(key, 0) - piecewise.get(key, 0))
                scale = max(abs(direct.get(key, 0)), 1.0)
                assert diff <= 1e-9 * scale


def test_expand_power_sum_square():
    got = expand_power_sum(2, HOM)
    want = NormalForm({(2, 0): 1, (1, 1): 1 + w(1, 1), (0, 2): 1})
    assert got == want
    assert str(got) == "x^2 + (1 + w(1,1)) x y + y^2"


def test_expand_power_sum_counts_at_weight_one():
    # With every weight set to 1 the coefficients collapse to the
    # classical binomial coefficients.
    import math
    for n in range(7):
        nf = expand_power_sum(n, HOM)
        for (i, j), poly in nf.coeffs.items():
            assert i + j == n
            assert sum(poly.terms.values()) == math.comb(n, i)


def test_normal_form_json_round_trip():
    rng = random.Random(45)
    for _ in range(20):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 8)))
        for rs in RelationSystem:
            nf = normal_order(word, rs)
            doc = json.loads(json.dumps(nf.to_json()))
            back = NormalForm({(term["i"], term["j"]): poly_from_json(term["coeff"])
                               for term in doc["terms"]})
            assert back == nf


def test_evaluate_returns_numeric_terms():
    nf = normal_order("yx", WEYL)
    values = nf.evaluate(QWeights(0.5))
    assert set(values) == {(1, 1), (0, 0)}
    assert abs(values[(1, 1)] - 0.5) < 1e-15
    assert abs(values[(0, 0)] - 1.0) < 1e-15


def test_str_sorting_descending_degree():
    nf = normal_order("xyxxyxyy", WEYL)
    text = str(nf)
    assert text.index("x^4 y^4") < text.index("x^3 y^3") < text.index("x^2 y^2")


def _rewriting_oracle(rs, strategy):
    """Normal ordering by literal descent rewriting: replace one descent
    yx (the rightmost or the leftmost), move the new symbol to the front
    past the prefix, and recurse on the rewritten words."""
    memo = {}

    def descent(word):
        positions = [i for i in range(len(word) - 1) if word[i:i + 2] == "yx"]
        if not positions:
            return -1
        return positions[-1] if strategy == "rightmost" else positions[0]

    def rewrite(word):
        hit = memo.get(word)
        if hit is not None:
            return hit
        pos = descent(word)
        if pos < 0:
            m = word.count("x")
            result = NormalForm.monomial(m, len(word) - m)
        else:
            prefix, suffix = word[:pos], word[pos + 2:]
            s = 1 + prefix.count("x")
            t = 1 + prefix.count("y")
            swapped = rewrite(prefix + "xy" + suffix)
            result = NormalForm({key: c.times_symbol(s, t) for key, c in swapped.coeffs.items()})
            if rs is WEYL:
                result = result + rewrite(prefix + suffix)
            elif rs is FILE:
                result = result + rewrite(prefix + "y" + suffix)
        memo[word] = result
        return result

    return rewrite


def test_sweep_equals_descent_rewriting_exhaustive():
    for rs in RelationSystem:
        for strategy in ("rightmost", "leftmost"):
            oracle = _rewriting_oracle(rs, strategy)
            for length in range(11):
                for word in all_words(length):
                    assert normal_order(word, rs, strategy) == oracle(word), (rs, strategy, word)


def test_expand_power_sum_equals_iterated_multiplication():
    x_plus_y = NormalForm({(1, 0): 1, (0, 1): 1})
    for rs in RelationSystem:
        power = NormalForm.unit()
        for n in range(9):
            assert expand_power_sum(n, rs) == power, (rs, n)
            power = multiply(power, x_plus_y, rs)


def test_long_words_do_not_recurse_per_letter():
    # longer than the default recursion limit, in both sweep directions
    # and in both tables of one-step rewrites
    word = "x" * 3000 + "yx"
    for strategy in ("rightmost", "leftmost"):
        got = normal_order(word, WEYL, strategy)
        assert got == NormalForm({(3001, 1): w(3001, 1), (3000, 0): 1})
    n = 1500
    x_side = y_side = WeightPolynomial.one()
    for k in range(1, n + 1):
        x_side = x_side.times_symbol(k, 1)
        y_side = y_side.times_symbol(1, k)
    assert normal_order("y" + "x" * n, HOM) == NormalForm({(n, 1): x_side})
    assert normal_order("y" * n + "x", HOM, "leftmost") == NormalForm({(1, n): y_side})


def test_dropped_normal_form_leaves_no_memory_behind():
    # no cache outlives the call with the normal forms of a word's
    # suffixes: those of y^7 x^7 alone take about 20 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nf = normal_order("y" * 7 + "x" * 7, WEYL)
        assert len(nf.coeffs) == 8
        del nf
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


def test_normal_form_json_bytes_are_pinned():
    # SHA-1 of the JSON bytes of every word up to 8 letters, both
    # strategies, all three systems, then (x + y)^0..10, so a change to
    # any coefficient, monomial or output order of a normal form shows
    digest = hashlib.sha1()
    for rs in RelationSystem:
        for strategy in ("rightmost", "leftmost"):
            for length in range(9):
                for word in all_words(length):
                    nf = normal_order(word, rs, strategy)
                    digest.update(json.dumps(nf.to_json(), sort_keys=True).encode())
    for rs in RelationSystem:
        for n in range(11):
            digest.update(json.dumps(expand_power_sum(n, rs).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == "1781464a47accd1b936fc9da8df30f0208ff1e0d"


def _add(total, key, piece):
    prior = total.get(key)
    total[key] = piece if prior is None else prior + piece


def _recursive_y_power_x(j, rs):
    # the normal form of y^j x by the one-step recursion, kept here as
    # the reference for the table that appending x builds per call
    if j == 0:
        return NormalForm.monomial(1, 0)
    rest = _recursive_y_power_x(j - 1, rs)
    total = {(a, b + 1): d.times_symbol(1, j) for (a, b), d in rest.coeffs.items()}
    if rs is WEYL:
        _add(total, (0, j - 1), WeightPolynomial.one())
    elif rs is FILE:
        _add(total, (0, j), WeightPolynomial.one())
    return NormalForm(total)


def _recursive_append(nf, letter, rs):
    if letter == "y":
        return NormalForm({(i, j + 1): c for (i, j), c in nf.coeffs.items()})
    total = {}
    for (i, j), c in nf.coeffs.items():
        for (a, b), d in _recursive_y_power_x(j, rs).coeffs.items():
            _add(total, (i + a, b), c * d.shift(i, 0))
    return NormalForm(total)


def _layout(nf):
    # keys in order, and each coefficient's packed terms in order:
    # evaluate sums a coefficient's monomials in this order
    return [(key, c._frame, list(c.terms.items())) for key, c in nf.coeffs.items()]


@pytest.mark.parametrize("rs", list(RelationSystem))
def test_appending_x_keeps_the_recursive_table_order(rs):
    # expand_power_sum and the leftmost strategy append x through the
    # per-call y^j x table; each result equals the one built from the
    # recursive table, in key order and in the order of every
    # coefficient's terms
    power = NormalForm.unit()
    for n in range(11):
        if n:
            power = _recursive_append(power, "x", rs) + _recursive_append(power, "y", rs)
        got = expand_power_sum(n, rs)
        assert got == power and _layout(got) == _layout(power), n
    for length in range(1, 9):
        for word in all_words(length):
            want = NormalForm.unit()
            for letter in word:
                want = _recursive_append(want, letter, rs)
            got = normal_order(word, rs, "leftmost")
            assert got == want and _layout(got) == _layout(want), word
