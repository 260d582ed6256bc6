"""Exact polynomial ring in the weight symbols w(s, t)."""

import gc
import json
import random
import struct
import tracemalloc

import pytest

from ellcomb import special_fn
from ellcomb.special_fn import (DomainError, EllipticWeights, EvaluationError,
                                GenericWeights, ParameterSet, QWeights)
from ellcomb.weightpoly import WeightPolynomial
from oracles import TableWeights, poly_from_json


def w(s, t):
    return WeightPolynomial.symbol(s, t)


def test_constructors_and_zero_normalization():
    assert WeightPolynomial.zero().is_zero()
    assert not WeightPolynomial.one().is_zero()
    assert WeightPolynomial.from_int(0).is_zero()
    assert WeightPolynomial({(): 0, (((1, 1), 1),): 0}).is_zero()
    assert WeightPolynomial.from_int(3) == 3


def test_ring_axioms_on_random_elements():
    rng = random.Random(31)

    def random_poly():
        poly = WeightPolynomial.zero()
        for _ in range(rng.randint(0, 4)):
            term = WeightPolynomial.from_int(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                term = term * w(rng.randint(1, 3), rng.randint(1, 3))
            poly = poly + term
        return poly

    for _ in range(60):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == WeightPolynomial.zero()
        assert a * WeightPolynomial.one() == a
        assert a * 0 == WeightPolynomial.zero()


def test_times_symbol_matches_multiplication():
    poly = 2 * w(1, 1) + 3 * w(2, 1) * w(1, 1) + WeightPolynomial.one()
    assert poly.times_symbol(1, 1) == poly * w(1, 1)


def test_shift_renames_symbols():
    poly = w(1, 2) * w(3, 1) + 5
    shifted = poly.shift(2, -1)
    assert shifted == w(3, 1) * w(5, 0) + 5
    assert poly.shift(0, 0) is poly


def test_str_rendering():
    assert str(WeightPolynomial.zero()) == "0"
    assert str(WeightPolynomial.one()) == "1"
    assert str(w(1, 1)) == "w(1,1)"
    assert str(w(1, 1) * w(1, 1)) == "w(1,1)^2"
    assert str(1 + w(1, 1)) == "1 + w(1,1)"
    assert str(2 * w(2, 1) * w(1, 1)) == "2*w(1,1)*w(2,1)"


def test_evaluate_against_families():
    poly = 1 + 2 * w(1, 1) + w(1, 1) * w(2, 2)
    got = poly.evaluate(QWeights(0.5))
    assert abs(got - (1 + 2 * 0.5 + 0.25)) < 1e-14
    table = TableWeights({(1, 1): 2.0, (2, 2): 3.0})
    assert abs(poly.evaluate(table) - (1 + 4 + 6)) < 1e-14


def test_evaluate_rejects_symbolic_family():
    with pytest.raises(DomainError):
        (1 + w(1, 1)).evaluate(GenericWeights())


def test_evaluate_beyond_the_double_range_is_an_evaluation_error():
    # a product of weights that overflows, and inf - inf, are errors on
    # every call; so is a power of one weight that overflows
    table = TableWeights({(1, 1): 1e200, (1, 2): 1e200, (2, 2): 1e200})
    for poly in (w(1, 1) * w(2, 2), w(1, 1) * w(2, 2) - w(1, 1) * w(1, 2),
                 w(1, 1) * w(1, 1)):
        for _ in range(3):
            with pytest.raises(EvaluationError):
                poly.evaluate(table)
    assert (w(1, 1) + w(2, 2)).evaluate(table) == 2e200


def test_evaluate_shares_cache():
    poly = w(1, 1) * w(1, 1) + w(1, 1)
    cache = {}
    poly.evaluate(QWeights(0.3), cache)
    assert cache == {(1, 1): 0.3 + 0j}


def test_json_round_trip():
    rng = random.Random(32)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(sorted(
                ((rng.randint(-2, 4), rng.randint(-2, 4)), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))))
            mono = tuple(dict(mono).items())
            terms[mono] = rng.randint(-5, 5)
        poly = WeightPolynomial(terms)
        back = poly_from_json(json.loads(json.dumps(poly.to_json())))
        assert back == poly


def test_equality_with_ints():
    assert WeightPolynomial.one() == 1
    assert WeightPolynomial.zero() == 0
    assert (w(1, 1) - w(1, 1)) == 0
    assert w(1, 1) != 1


def test_arithmetic_with_non_integers_is_a_type_error():
    # the ring has integer coefficients: a float or complex operand is
    # refused by every operator, never read as a polynomial
    p = w(1, 1)
    for other in (1.5, 2j, "1"):
        for op in (lambda: p + other, lambda: other + p, lambda: p - other,
                   lambda: other - p, lambda: p * other, lambda: other * p):
            with pytest.raises(TypeError):
                op()
    assert p + True == p + 1 and p - 2 == p + (-2)


def test_hash_consistency():
    a = 1 + w(1, 1)
    b = w(1, 1) + 1
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_from_json_adds_repeated_symbols():
    got = poly_from_json([{"monomial": [["1,1", 1], ["1,1", 1]], "c": 1}])
    assert got == w(1, 1) * w(1, 1)
    assert str(got) == "w(1,1)^2"


def test_from_json_rejects_exponent_zero():
    with pytest.raises(ValueError):
        poly_from_json([{"monomial": [["1,1", 0]], "c": 3}])


def test_from_json_rejects_negative_exponent():
    with pytest.raises(ValueError):
        poly_from_json([{"monomial": [["1,1", -1]], "c": 3}])


def test_from_json_adds_repeated_monomials():
    entry = {"monomial": [["1,1", 1]], "c": 2}
    got = poly_from_json([entry, {"monomial": [["1,1", 1]], "c": -2}])
    assert got == 0
    assert poly_from_json([entry, entry]) == 4 * w(1, 1)
    # the constructor adds the coefficients of one monomial spelled twice
    assert WeightPolynomial({(((1, 1), 1), ((1, 2), 1)): 2,
                             (((1, 2), 1), ((1, 1), 1)): 3}) == 5 * w(1, 1) * w(1, 2)


# -- the tuple-monomial reference --------------------------------------
#
# Monomials as sorted tuples of ((s, t), e) pairs, with the arithmetic
# and evaluation order the packed form must reproduce exactly: the same
# dict insertion order, so evaluated sums are bit-identical.

def _merge(m1, m2):
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    out = dict(m1)
    for key, e in m2:
        out[key] = out.get(key, 0) + e
    return tuple(sorted(out.items()))


def _oracle_add(a, b):
    out = dict(a)
    for m, c in b.items():
        n = out.get(m, 0) + c
        if n:
            out[m] = n
        elif m in out:
            del out[m]
    return out


def _oracle_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _merge(m1, m2)
            n = out.get(m, 0) + c1 * c2
            if n:
                out[m] = n
            elif m in out:
                del out[m]
    return out


def _oracle_shift(a, ds, dt):
    return {tuple(((s + ds, t + dt), e) for (s, t), e in m): c for m, c in a.items()}


def _oracle_evaluate(a, family):
    """Per monomial, c times its row products in ascending s, a row
    product being the weights of one s multiplied in ascending t."""
    total = 0.0 + 0.0j
    for m, c in a.items():
        rows: dict = {}
        for (s, t), e in m:
            weight = complex(family.small(s, t))
            weight = weight if e == 1 else weight ** e
            rows[s] = rows[s] * weight if s in rows else weight
        value = complex(c)
        for product in rows.values():
            value *= product
        total += value
    return total


def _oracle_str(a):
    if not a:
        return "0"
    parts = []
    for m, c in sorted(a.items()):
        factors = [str(c)] if c != 1 or not m else []
        factors += [f"w({s},{t})" if e == 1 else f"w({s},{t})^{e}" for (s, t), e in m]
        parts.append("*".join(factors))
    return " + ".join(parts)


def _oracle_json(a):
    return [{"monomial": [[f"{s},{t}", e] for (s, t), e in m], "c": c}
            for m, c in sorted(a.items())]


class _AnyCellWeights:
    """A numeric weight at every integer cell, negative indices included."""

    def __init__(self, shift=0):
        self.shift = shift

    def small(self, s, t):
        return complex(1 + (s + self.shift) / 1300, (t % 17 - 8) / 9)


# index ranges of s and of t: negative, small, wide, and t up to 1200;
# a packed monomial spans its polynomial's whole box of cells, so each
# polynomial draws from one box and mixing boxes makes wide frames
_RANGES = [(-40, -30), (1, 6), (-40, 40), (1100, 1200)]


def _random_pair(rng):
    """A random polynomial built by arithmetic (so its frame comes from
    the operations) and its tuple-monomial twin."""
    s_range, t_range = rng.choice(_RANGES), rng.choice(_RANGES)
    poly, ref = WeightPolynomial.zero(), {}
    for _ in range(rng.randint(0, 5)):
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        term, mono = WeightPolynomial.from_int(c), {(): c}
        for _ in range(rng.randint(0, 4)):
            s, t = rng.randint(*s_range), rng.randint(*t_range)
            if rng.random() < 0.5:
                term = term.times_symbol(s, t)
            else:
                term = term * w(s, t)
            mono = _oracle_mul(mono, {(((s, t), 1),): 1})
        poly, ref = poly + term, _oracle_add(ref, mono)
    return poly, ref


def _assert_matches(poly, ref):
    assert poly.monomials() == sorted(ref.items())
    assert str(poly) == _oracle_str(ref)
    assert json.dumps(poly.to_json()) == json.dumps(_oracle_json(ref))
    assert list(poly.terms.values()) == list(ref.values())
    # three calls under three families
    for family in (_AnyCellWeights(), _AnyCellWeights(7), _AnyCellWeights(-3)):
        assert poly.evaluate(family) == _oracle_evaluate(ref, family)
    assert poly == WeightPolynomial(ref)
    assert hash(poly) == hash(WeightPolynomial(ref))


def test_packed_arithmetic_matches_tuple_monomials():
    rng = random.Random(33)
    for _ in range(60):
        a, ra = _random_pair(rng)
        b, rb = _random_pair(rng)
        _assert_matches(a, ra)
        _assert_matches(a + b, _oracle_add(ra, rb))
        _assert_matches(a - b, _oracle_add(ra, {m: -c for m, c in rb.items()}))
        _assert_matches(a * b, _oracle_mul(ra, rb))
        _assert_matches(a.shift(-3, 5) * b, _oracle_mul(_oracle_shift(ra, -3, 5), rb))
        _assert_matches(b * a.shift(-3, 5) + a, _oracle_add(
            _oracle_mul(rb, _oracle_shift(ra, -3, 5)), ra))
        # the same polynomial in two frames: equal, one hash, one set entry
        moved = (a.shift(-3, 5) + b).shift(3, -5) - b.shift(3, -5)
        assert moved == a and hash(moved) == hash(a)
        assert len({moved, a}) == 1 and moved in {a}
        assert (a == b) == (ra == rb)


def test_exponents_beyond_one_byte_widen_the_field():
    # w(1,1)^300 by repeated squaring: 128 + 128 would carry out of a byte
    powers = [w(1, 1)]
    for _ in range(8):
        powers.append(powers[-1] * powers[-1])
    p300 = powers[8] * powers[5] * powers[3] * powers[2]
    ref = {(((1, 1), 300),): 1}
    _assert_matches(p300, ref)
    assert str(p300) == "w(1,1)^300"
    mixed = (p300 + w(2, 1)) * (w(1, 1) + w(-4, 9))
    _assert_matches(mixed, _oracle_mul(_oracle_add(ref, {(((2, 1), 1),): 1}),
                                       {(((1, 1), 1),): 1, (((-4, 9), 1),): 1}))
    _assert_matches(p300.shift(-3, 5).times_symbol(-2, 6),
                    {(((-2, 6), 301),): 1})
    # the exact bound reads every monomial, not only the first (here 1)
    later = WeightPolynomial.one() + powers[7] * powers[6]
    ref192 = {(): 1, (((1, 1), 192),): 1}
    _assert_matches(later * later, _oracle_mul(ref192, ref192))
    # cancellation leaves no stale field: the square of w^300 - w^300 is 0
    assert (p300 - powers[8] * powers[5] * powers[3] * powers[2]) * p300 == 0


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _power(poly, n):
    out = WeightPolynomial.one()
    for _ in range(n):
        out = out * poly
    return out


def test_first_and_later_evaluations_agree_bit_for_bit():
    # every call multiplies in one order, so repeated calls give one value
    rng = random.Random(34)
    polys = [_random_pair(rng)[0] for _ in range(30)]
    polys.append(_power(w(1, 1) + 2 * w(1, 3) + w(2, 1) * w(2, 2) - w(4, 9), 6))
    for poly in polys:
        for family in (_AnyCellWeights(5), QWeights(0.7)):
            fresh = poly + 0
            assert len({_bits(fresh.evaluate(family)) for _ in range(3)}) == 1


def test_value_does_not_depend_on_the_frame():
    # a far-off symbol added and taken away leaves the same terms, in the
    # same order, in a frame with another origin and row width
    rng = random.Random(35)
    far = w(-45, -90)
    family = _AnyCellWeights(2)
    for _ in range(20):
        poly, ref = _random_pair(rng)
        wide = poly + far - far
        assert wide == poly and wide._frame != poly._frame
        assert list(wide.terms.values()) == list(poly.terms.values())
        expected = _bits(_oracle_evaluate(ref, family))
        for _ in range(3):
            assert _bits(wide.evaluate(family)) == expected
            assert _bits(poly.evaluate(family)) == expected


def _streamed_value(poly, family):
    """The value in the order of every call: per monomial of ``terms``,
    in its order, the coefficient times each nonzero row's product in
    ascending row, a row product being its weights (qpow for a power)
    in ascending field; read here from the packed fields directly."""
    s0, t0, width, nb = poly._frame or (0, 0, 8, 1)
    total = 0.0 + 0.0j
    for m, c in poly.terms.items():
        fields = m.to_bytes(-(-m.bit_length() // (8 * nb)) * nb, "little")
        exponents = [int.from_bytes(fields[i:i + nb], "little")
                     for i in range(0, len(fields), nb)]
        value = complex(c)
        for r in range(0, len(exponents), width):
            product = None
            for dt, e in enumerate(exponents[r:r + width]):
                if e:
                    weight = complex(family.small(s0 + r // width, t0 + dt))
                    weight = weight if e == 1 else special_fn.qpow(weight, e)
                    product = weight if product is None else product * weight
            if product is not None:
                value *= product
        total += value
    return total


def _elliptic_draw():
    return EllipticWeights(ParameterSet(complex(1.1, 0.2), 0.4, complex(0.5, 0.1), 0.2))


def test_first_call_keeps_the_bits_of_the_row_by_row_order():
    # the first call forms each distinct head (coefficient and lower
    # rows) and tail (upper rows) once; the value must not move a bit
    from ellcomb import RelationSystem, expand_power_sum, normal_order
    powers = [w(1, 1)]
    for _ in range(8):
        powers.append(powers[-1] * powers[-1])
    p300 = powers[8] * powers[5] * powers[3] * powers[2]
    wide = {}
    for s in range(1, 301):
        wide[(((s, 1), 1), ((s + 1, 2), 2))] = s % 7 - 3 or 5
        wide[(((s, 3), 1),)] = 2
    cases = [
        ("constant", WeightPolynomial.from_int(7)),
        ("constant monomial", 3 + w(1, 1) * w(2, 2) - 2 * w(3, 1)),
        # two rows, split at row 1: w(1,2) has no tail, w(2,3) no head
        ("empty head or tail", w(1, 1) * w(2, 1) + w(1, 2) - 4 * w(2, 3)),
        ("one row", w(1, 1) + 2 * w(1, 2) * w(1, 2) * w(1, 2) + w(1, 1) * w(1, 5)),
        ("three rows", _power(w(1, 1) + w(2, 2) - w(3, 1) + 2 * w(3, 3), 5)),
        ("four rows", _power(w(1, 1) + w(2, 2) - w(4, 1) + w(3, 3) * w(1, 2), 5)),
        ("two-byte fields", (p300 + w(2, 1)) * (w(1, 1) + w(3, 2) - w(2, 2))),
        ("over 256 rows", WeightPolynomial(wide)),
    ]
    assert cases[1][1]._frame and 0 in cases[1][1].terms
    assert cases[6][1]._frame[3] == 2 and len(cases[7][1].terms) == 600

    def rows(poly):
        _, _, width, nb = poly._frame
        return -(-max(poly.terms).bit_length() // (8 * nb * width))

    assert [rows(poly) for _, poly in cases[2:6]] == [2, 1, 3, 4]
    # the normal forms under one elliptic draw (theta leaves the double
    # range on the far cells of the cases above)
    weyl = normal_order("y" * 6 + "x" * 6, RelationSystem.from_tag("weyl"))
    binomial = expand_power_sum(12, RelationSystem.from_tag("comm"))
    forms = [(f"{name} {key}", c) for name, nf in (("y^6x^6", weyl), ("(x+y)^12", binomial))
             for key, c in nf.coeffs.items()]
    for family, polys in ((_AnyCellWeights(3), cases + forms), (_elliptic_draw(), forms)):
        for name, poly in polys:
            fresh = poly + 0
            expected = _bits(_streamed_value(fresh, family))
            assert _bits(fresh.evaluate(family)) == expected, name
            assert _bits(fresh.evaluate(family)) == expected, name
            assert _bits(fresh.evaluate(family)) == expected, name


def test_first_call_keeps_nothing_beyond_the_call():
    # the heads, tails and rows of one call go when it returns; kept,
    # those of the 130,922 monomials of y^7 x^7 would pass the bound
    from ellcomb import RelationSystem, normal_order
    nf = normal_order("y" * 7 + "x" * 7, RelationSystem.from_tag("weyl"))
    family = _elliptic_draw()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values = nf.evaluate(family)
        assert len(values) == 8
        del values
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained
