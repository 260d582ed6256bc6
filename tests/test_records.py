"""The record types (ParameterSet, FerrersBoard, Placement, IdentityCheck,
CheckReport): their repr text, hash, immutability, keyword construction
and checks."""

import cmath

import pytest

from ellcomb import clear_caches, special_fn
from ellcomb.boards import FerrersBoard, Placement
from ellcomb.special_fn import DomainError, EllipticWeights, EvaluationError, ParameterSet
from ellcomb.verify import CheckReport, IdentityCheck


def _runner():
    pass


PS = ParameterSet(1.1 + 0.2j, 0.4, 0.5 + 0.1j, 0.2)
BOARD = FerrersBoard((0, 1, 2))
PLACEMENT = Placement([(2, 1), (1, 2)], "rook")
REPORT = CheckReport(id="x", trials=3, failures=0, max_rel_err=1e-15, seed=0,
                     elapsed_ms=5, passed=True, samples=("abc",))
CHECK = IdentityCheck("x", "an example", "numeric-sampled", {"draws": 4}, 1e-10,
                      ("special_fn:theta",), ("verify:_theta_ref",), "draws", _runner)

# the text each repr had when the records were frozen dataclasses
REPRS = [
    (PS, "ParameterSet(a=(1.1+0.2j), b=(0.4+0j), q=(0.5+0.1j), p=(0.2+0j))"),
    (BOARD, "FerrersBoard(heights=(0, 1, 2))"),
    (PLACEMENT, "Placement(rooks=((1, 2), (2, 1)), kind='rook')"),
    (REPORT, "CheckReport(id='x', trials=3, failures=0, max_rel_err=1e-15, "
             "seed=0, elapsed_ms=5, passed=True, samples=('abc',))"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=lambda r: type(r).__name__)
def test_repr_text_is_unchanged(record, text):
    assert repr(record) == text


def test_identity_check_repr_lists_every_field():
    assert repr(CHECK) == (
        "IdentityCheck(id='x', description='an example', kind='numeric-sampled', "
        "default_sizes={'draws': 4}, tolerance=1e-10, "
        "lhs_path=('special_fn:theta',), rhs_path=('verify:_theta_ref',), "
        f"order_key='draws', runner={_runner!r})")


# each record with its field values in order
FIELDS = [
    (PS, dict(a=PS.a, b=PS.b, q=PS.q, p=PS.p)),
    (BOARD, dict(heights=(0, 1, 2))),
    (PLACEMENT, dict(rooks=((1, 2), (2, 1)), kind="rook")),
    (REPORT, dict(id="x", trials=3, failures=0, max_rel_err=1e-15, seed=0,
                  elapsed_ms=5, passed=True, samples=("abc",))),
]


@pytest.mark.parametrize("record, fields", FIELDS, ids=lambda r: type(r).__name__)
def test_hash_is_the_tuple_hash_of_the_fields(record, fields):
    assert hash(record) == hash(tuple(fields.values()))


@pytest.mark.parametrize("record, fields", FIELDS + [(CHECK, dict(id="x"))],
                         ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record, fields):
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) == fields[name]
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, fields", FIELDS, ids=lambda r: type(r).__name__)
def test_keyword_construction(record, fields):
    assert type(record)(**fields) == record
    assert type(record)(**dict(reversed(fields.items()))) == record


def test_check_report_json_round_trip():
    assert CheckReport.from_json(REPORT.to_json()) == REPORT


def test_parameter_set_entries_are_complex_and_checked():
    ps = ParameterSet(1, 0, 0.5, 0)
    assert all(type(v) is complex for v in (ps.a, ps.b, ps.q, ps.p))
    with pytest.raises(EvaluationError, match="^non-finite b: "):
        ParameterSet(0.3, complex("nan"), 0.5, 0.1)
    with pytest.raises(EvaluationError, match="^non-finite q: "):
        ParameterSet(0.3, 0.4, cmath.inf, 0.1)
    with pytest.raises(DomainError, match=r"^nome must satisfy \|p\| < 1, got \|p\| = 1.0$"):
        ParameterSet(0.3, 0.4, 0.5, 1j)


def test_equal_parameter_sets_share_cache_entries():
    # the small-weight cache is keyed on the ParameterSet: an equal one
    # built separately hits the entry the first one made
    clear_caches()
    try:
        args = (1.1 + 0.2j, 0.4, 0.5 + 0.1j, 0.2)
        first = EllipticWeights(ParameterSet(*args)).small(1, 2)
        second = EllipticWeights(ParameterSet(*args)).small(1, 2)
        info = special_fn._elliptic_small.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert second == first
    finally:
        clear_caches()
