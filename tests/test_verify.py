"""Registry, determinism, and reporting of the verification harness."""

import functools
import gc
import hashlib
import importlib
import itertools
import json
import pkgutil
import random
import sys

import pytest

import ellcomb
from ellcomb.ncword import RelationSystem, expand_power_sum, normal_order, power_sum_values
from ellcomb.special_fn import (AQWeights, BQWeights, DomainError, EllipticWeights,
                                EvaluationError, NearPoleError, theta)
from ellcomb.verify import (
    CheckContext,
    CheckReport,
    VerifyError,
    list_identities,
    run_all,
    run_check,
)

REQUIRED_IDS = [
    "theta-inversion", "theta-quasiperiod", "theta-addition",
    "weight-shift", "bigweight-closed-vs-product",
    "binom-recursion-closed", "binom-limit-chain",
    "aq-symmetry", "aq-recurrences",
    "wdep-binomial-thm", "elliptic-binomial-thm", "prop-product-expansion",
    "bq-binomial-thm", "bq-reversal", "bq-finite-product",
    "bq-cauchy", "aq-cauchy", "qexp-cauchy", "qexp-braiding", "f-relations",
    "pincherle", "pincherle-k",
    "fib-genfun", "fib-aq-closed", "lemma-xeta-power",
    "normalorder-rook", "normalorder-file",
    "rook-product", "file-product", "gr-q-degeneration", "chebyshev-weight",
]


def test_registry_has_all_required_checks():
    checks = list_identities()
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 31
    for required in REQUIRED_IDS:
        assert required in ids


def test_check_metadata_is_complete():
    for check in list_identities():
        assert check.description
        assert check.kind in ("exact-symbolic", "numeric-sampled")
        assert check.tolerance >= 0.0
        assert isinstance(check.default_sizes, dict)
        if check.kind == "exact-symbolic":
            assert check.tolerance == 0.0


def test_lhs_rhs_paths_are_disjoint():
    # the two sides of every identity must be computed through disjoint
    # code paths, recorded as module:function labels
    for check in list_identities():
        assert check.lhs_path and check.rhs_path
        overlap = set(check.lhs_path) & set(check.rhs_path)
        assert not overlap, (check.id, overlap)


# labels that name an inline computation inside a draw function, not a
# library attribute
INLINE_PATH_LABELS = {"verify:sine-ratio", "verify:raw-linear-factors",
                      "verify:raw-q-brackets"}


def test_path_labels_name_real_code():
    # every module:name label, after stripping a :lhs / :rhs side suffix,
    # resolves to an attribute of ellcomb.<module>, so a refactor that
    # deletes a function cannot leave the disjointness test comparing
    # stale names
    unresolved = set()
    for check in list_identities():
        for label in check.lhs_path + check.rhs_path:
            module, _, name = label.removesuffix(":lhs").removesuffix(":rhs").partition(":")
            target = importlib.import_module(f"ellcomb.{module}")
            try:
                for part in name.split("."):
                    target = getattr(target, part)
            except AttributeError:
                unresolved.add(label)
    assert unresolved == INLINE_PATH_LABELS


def _label_code(label):
    # the code object a module:name label names, through any wrapper
    module, _, name = label.removesuffix(":lhs").removesuffix(":rhs").partition(":")
    target = importlib.import_module(f"ellcomb.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    while hasattr(target, "__wrapped__"):
        target = target.__wrapped__
    return target.__code__


def _codes_run(fn):
    # every code object that starts running while fn does
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_every_path_label_names_code_its_check_runs():
    # a label that names a function its check never calls makes the
    # disjointness test compare a side that is not computed; each check
    # runs once at one or two draws, under a profile hook
    never_run = []
    for check in list_identities():
        ran = _codes_run(lambda: run_check(check.id, seed=0, sizes={"order": 2}))
        for label in check.lhs_path + check.rhs_path:
            if label not in INLINE_PATH_LABELS and _label_code(label) not in ran:
                never_run.append((check.id, label))
    assert never_run == []


def test_run_check_is_deterministic():
    for check_id in ("theta-inversion", "pincherle", "normalorder-rook"):
        first = run_check(check_id, seed=7)
        second = run_check(check_id, seed=7)
        a = first.to_json()
        b = second.to_json()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b


def test_different_seeds_draw_different_samples():
    first = run_check("theta-inversion", seed=1)
    second = run_check("theta-inversion", seed=2)
    assert first.samples != second.samples


def test_unknown_check_id_raises_key_error():
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_order_override_changes_workload():
    base = run_check("binom-recursion-closed", seed=3)
    small = run_check("binom-recursion-closed", seed=3, sizes={"order": 4})
    assert small.trials < base.trials
    assert small.passed


def test_tolerance_override():
    report = run_check("theta-inversion", seed=4, tolerance=1e-3)
    assert report.passed
    strict = run_check("theta-inversion", seed=4, tolerance=0.0)
    assert not strict.passed


def test_report_json_round_trip():
    report = run_check("theta-quasiperiod", seed=5)
    doc = report.to_json()
    assert doc["pass"] is True
    assert doc["id"] == "theta-quasiperiod"
    back = CheckReport.from_json(doc)
    assert back == report


def test_exact_checks_record_zero_error():
    report = run_check("wdep-binomial-thm", seed=6)
    assert report.passed
    assert report.max_rel_err == 0.0


def test_pincherle_check_is_numeric_sampled():
    report = run_check("pincherle", seed=8, sizes={"draws": 5, "k": 3, "n": 5})
    assert report.passed
    # one trial per (draw, order, degree) triple
    assert report.trials == 5 * 3 * 6
    assert 0.0 < report.max_rel_err <= 1e-7


def test_binomial_order_zero_is_trivial():
    # n = 0: both sides of the binomial theorem collapse to the empty
    # product; the check must still run and pass
    report = run_check("wdep-binomial-thm", seed=9, sizes={"n": 0})
    assert report.passed


def test_run_all_covers_registry():
    # spot-run the cheap half through run_check elsewhere; here make sure
    # run_all reports one entry per registered check, in registry order
    reports = run_all(11)
    assert [r.id for r in reports] == [c.id for c in list_identities()]
    assert all(r.seed == 11 for r in reports)
    assert all(r.passed for r in reports)


def test_samples_expose_digest_material():
    report = run_check("theta-addition", seed=10)
    assert report.samples
    assert len(report.samples) <= 8


def test_zero_draws_raise_instead_of_passing_vacuously():
    with pytest.raises(VerifyError, match="no comparisons recorded"):
        run_check("theta-inversion", sizes={"draws": 0})
    # pincherle at n = -1 draws parameters but compares nothing
    with pytest.raises(VerifyError, match="no comparisons recorded"):
        run_check("pincherle", sizes={"order": -1})


def test_undeclared_size_key_raises():
    # "trials" is the theta checks' name for "draws" before the rename
    with pytest.raises(VerifyError, match=r"theta-inversion has no size 'trials'; "
                                          r"its sizes are \['draws'\] and 'order'"):
        run_check("theta-inversion", sizes={"trials": 5})
    with pytest.raises(VerifyError, match="no size 'draw'"):
        run_check("pincherle", sizes={"draw": 5, "order": 3})
    assert run_check("theta-inversion", sizes={"draws": 5}).trials == 5


def _context(draws):
    return CheckContext(random.Random(0), {"draws": draws}, 1e-10)


def test_run_gives_up_after_sixty_rejected_draws():
    calls = []

    def draw(ctx):
        calls.append(ctx.rng.random())
        raise NearPoleError("always near a pole")

    ctx = _context(3)
    with pytest.raises(VerifyError, match="resample cap exceeded"):
        ctx.run(draw)
    assert len(calls) == 60
    assert ctx.total_draws == ctx.rejected == 60
    assert ctx.trials == 0 and ctx.samples == []


def test_finalize_refuses_a_run_with_too_many_rejections():
    calls = []

    def draw(ctx):
        calls.append(None)
        if len(calls) % 10 == 0:
            raise EvaluationError("every tenth draw")
        return (1.0,), [(1.0, 1.0)]

    ctx = _context(90)
    ctx.run(draw)
    # 90 admitted draws take 99 calls, 9 of them rejected
    assert ctx.trials == 90 and ctx.failures == 0
    assert (ctx.total_draws, ctx.rejected) == (99, 9)
    with pytest.raises(VerifyError, match="only 90 of 99 draws admissible"):
        ctx.finalize()


def test_admitted_draw_records_its_pairs_and_digest():
    z = 0.5 + 0.25j

    def draw(ctx):
        return (z,), [(z, z), (z, 1.5 * z), (1e-3, None)]

    ctx = _context(10)
    ctx.run(draw)
    ctx.finalize()
    # per draw: one exact pair, one off by 1/3, one residual of 1e-3
    assert ctx.trials == 30 and ctx.failures == 20
    assert ctx.max_rel_err == pytest.approx(1.0 / 3.0)
    digest = hashlib.sha1(b"5.000000000000e-01,2.500000000000e-01").hexdigest()[:12]
    # only the first 8 samples are kept
    assert ctx.samples == [digest] * 8


def test_non_finite_comparisons_fail_and_show_in_max_rel_err():
    # NaN compares false both ways, so err > tolerance would let it pass
    nan, inf = float("nan"), float("inf")
    for lhs, rhs in ((nan, 1.0), (inf, inf), (nan, None), (complex(1.0, nan), 1.0)):
        ctx = _context(1)
        ctx.record(0.5, 0.5)
        ctx.record(lhs, rhs)
        assert (ctx.trials, ctx.failures) == (2, 1), (lhs, rhs)
        assert ctx.max_rel_err == inf, (lhs, rhs)
    ctx = _context(1)
    ctx.record(1.0 + 1e-12, 1.0)
    assert ctx.failures == 0 and 0.0 < ctx.max_rel_err < 1e-10


# Reports at seed 0, pinned so that any change in the order of generator
# calls shows: theta-addition makes 403 draws, 3 of them rejected.
PINNED_SEED_0 = {
    "theta-addition": {
        "trials": 400, "failures": 0, "max_rel_err": 5.171857331553735e-12,
        "samples": ["9e8c194c3a17", "113ff6bfbeb0", "a8579dfc0239",
                    "d3fd5fa243bd", "00a54c8ff1a4", "5659e2939f66",
                    "cefc0d98bcd2", "9ad46096c2d4"],
    },
    "weight-shift": {
        "trials": 120, "failures": 0, "max_rel_err": 5.202546167691068e-15,
        "samples": ["35790d6edb44", "47f2f4c8201b", "c0ec2ea3f06a",
                    "39e8c944725a", "f0587e0b3cfe", "39e3ae5a39e4",
                    "494b734cd8b0", "0c1eda90dd1a"],
    },
    "normalorder-rook": {
        "trials": 570, "failures": 0, "max_rel_err": 0.0, "samples": [],
    },
}


@pytest.mark.parametrize("check_id", sorted(PINNED_SEED_0))
def test_seed_zero_reports_are_pinned(check_id):
    expected = dict(PINNED_SEED_0[check_id], id=check_id, seed=0)
    expected["pass"] = True
    doc = run_check(check_id, seed=0).to_json()
    doc.pop("elapsed_ms")
    assert doc.pop("max_rel_err") == pytest.approx(
        expected.pop("max_rel_err"), rel=1e-9)
    assert doc == expected


def _module_caches():
    return {f"{name}.{attr}": value
            for name, module in sorted(sys.modules.items())
            if name == "ellcomb" or name.startswith("ellcomb.")
            for attr, value in vars(module).items()
            if hasattr(value, "cache_info")}


COLD_CHECKS = ("binom-recursion-closed", "normalorder-rook", "pincherle")


def test_clear_caches_empties_every_module_cache():
    # found by scanning the modules, so a cache added later without a
    # line in _CACHES fails here, and so does a line left for a cache
    # that is gone
    for check_id in COLD_CHECKS:
        run_check(check_id, seed=3)
    ellcomb.EllipticWeights(ellcomb.ParameterSet(1.1 + 0.2j, 0.4, 0.5 + 0.1j, 0.2)).small(1, 2)
    caches = _module_caches()
    assert caches == {f"ellcomb.{name}": c for name, c in ellcomb._CACHES.items()}
    empty = sorted(name for name, c in caches.items() if not c.cache_info().currsize)
    assert not empty, empty
    ellcomb.clear_caches()
    filled = {name: c.cache_info().currsize for name, c in caches.items()
              if c.cache_info().currsize}
    assert not filled, filled


def test_every_lru_cache_is_registered():
    # a module-level lru_cache missing from _CACHES would hide from
    # clear_caches() and verify --stats; every module of the package is
    # imported first, so one that nothing has loaded yet is scanned too
    found = {}
    for info in pkgutil.iter_modules(ellcomb.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"ellcomb.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper):
                found[f"{info.name}.{attr}"] = value
    assert found == ellcomb._CACHES


@pytest.mark.parametrize("check_id", COLD_CHECKS)
def test_cold_run_after_clear_caches_matches_a_warm_rerun(check_id):
    run_check(check_id, seed=4)
    warm = run_check(check_id, seed=4).to_json()
    ellcomb.clear_caches()
    cold = run_check(check_id, seed=4).to_json()
    warm.pop("elapsed_ms")
    cold.pop("elapsed_ms")
    assert cold == warm


def test_bigweight_reference_is_the_column_product_carried_over_t():
    # the draw builds W(s, 0..5) as one running product of _small_ref;
    # each value equals the column product formed afresh by _big_ref
    verify = importlib.import_module("ellcomb.verify")
    check = next(c for c in list_identities() if c.id == "bigweight-closed-vs-product")
    assert check.rhs_path == ("verify:_small_ref", "verify:_theta_ref")
    compared = 0
    for seed in range(12):
        ctx = CheckContext(random.Random(seed), {"draws": 1}, 1e-7)
        try:
            (a, b, q, p), pairs = verify._draw_bigweight_closed(ctx)
        except (NearPoleError, EvaluationError):
            continue
        ps = verify.ParameterSet(a, b, q, p)
        cells = [(s, t) for s in range(1, 4) for t in range(0, 6)]
        assert len(pairs) == len(cells)
        for (s, t), (_, ref) in zip(cells, pairs):
            assert ref == verify._big_ref(ps, s, t), (seed, s, t)
            compared += 1
    assert compared >= 180


def test_theta_reference_at_zero_nome_is_one_minus_x():
    # theta(x; 0) = 1 - x for every x, x = 0 included
    verify = importlib.import_module("ellcomb.verify")
    assert verify._theta_ref(0, 0) == theta(0, 0) == 1
    assert verify._theta_ref(0.5j, 0) == 1 - 0.5j
    with pytest.raises(DomainError):
        verify._theta_ref(0, 0.1)


def test_reference_memo_keeps_every_value():
    # a memo shared by many weights of one draw gives the bits of the
    # weights formed alone, each with a fresh memo
    verify = importlib.import_module("ellcomb.verify")
    ps = verify.ParameterSet(0.7 + 0.4j, 1.3 - 0.2j, 0.6 + 0.3j, 0.2 - 0.1j)
    memo = {}
    for s in range(1, 4):
        for t in range(0, 6):
            assert verify._big_ref(ps, s, t, memo) == verify._big_ref(ps, s, t)
            assert verify._small_ref(ps, s, t, memo) == verify._small_ref(ps, s, t)
    assert memo


class _AbsWeights:
    """A numeric family whose weights are the absolute values of another's."""

    def __init__(self, family):
        self.family = family

    def small(self, s, t):
        return abs(complex(self.family.small(s, t)))


# |sweep - symbolic evaluate| <= C eps M for every coefficient of
# (x + y)^n, n <= 8, M the coefficient under |w|.  Both sides sum the
# same lattice-path products, with positive integer multiplicities, so
# each computed side is within (m mu + a u) M of the exact value, m the
# complex products and a the additions a path's term passes through,
# u = eps / 2 and mu = sqrt(2) eps the bound of one complex product
# (Higham, Lemma 3.5).  The sweep: m <= k (n - k) <= 16 weight products,
# a <= n <= 8 additions, 16 sqrt(2) + 8 / 2 = 26.7.  The symbolic
# evaluate: m <= 16 + 1 (the integer coefficient), a <= C(8, 4) - 1 =
# 69 additions over the monomials, 17 sqrt(2) + 69 / 2 = 58.5.  The sum,
# 85.2, rounded up:
POWER_SUM_C = 86


def test_power_sum_sweep_matches_the_symbolic_powers():
    # the numeric append sweep against each symbolic power evaluated
    # alone, under elliptic, b;q and a;q draws as the registry makes them
    eps = sys.float_info.epsilon
    compared = 0
    for seed in range(20):
        ctx = CheckContext(random.Random(seed), {}, 0.0)
        ps, b, a, q = ctx.draw_ps(), ctx.draw_ab(), ctx.draw_ab(), ctx.draw_q()
        for fam in (EllipticWeights(ps), BQWeights(b, q), AQWeights(a, q)):
            try:
                swept = power_sum_values(8, fam)
            except (NearPoleError, EvaluationError):
                continue
            assert len(swept) == 9
            for n, values in enumerate(swept):
                power = expand_power_sum(n)
                symbolic = power.evaluate(fam)
                mass = power.evaluate(_AbsWeights(fam))
                assert values.keys() == symbolic.keys(), (seed, fam, n)
                for key, value in values.items():
                    bound = POWER_SUM_C * eps * mass[key].real
                    assert abs(value - symbolic[key]) <= bound, (seed, fam, key)
                    compared += 1
            assert power_sum_values(0, fam) == [{(0, 0): 1}]
    assert compared >= 45 * 50
    with pytest.raises(DomainError):
        power_sum_values(-1, AQWeights(0.8, 0.5))


# SHA-1 of each reference-weight and power-sum report, timing stripped,
# at seeds 0-3: forming each reference theta value and cell weight once
# per draw must leave every report as it was
REFERENCE_REPORTS = {
    ("bigweight-closed-vs-product", 0): "eb5d8b9a079d11844bb4fad72412ab3422840055",
    ("bigweight-closed-vs-product", 1): "b4f2868fb725b1226b856e2f377fa582a36e9123",
    ("bigweight-closed-vs-product", 2): "30bf0c072b1656f43cbc48c3542a344c11466368",
    ("bigweight-closed-vs-product", 3): "b670c51146ac9521acf85e5e01af8b45dd66e45e",
    ("weight-shift", 0): "5309659d4482f1f2471151e882fcc635eed1cd9e",
    ("weight-shift", 1): "37bff78c25bece2497f278774e4f527c2395f922",
    ("weight-shift", 2): "0018a708e6ecc439b7669f3143973ea0af015ca1",
    ("weight-shift", 3): "4442aaae8dde2c1c62679599e6166acba1524b27",
    ("aq-binomial-thm", 0): "a2e1ce0417fe7debb528bde500f931cae8ad5bd0",
    ("aq-binomial-thm", 1): "4eac789fd618329f18fc5d618392883b6cc49c5f",
    ("aq-binomial-thm", 2): "11389a40e2ae0d0bbc9fdbc62f47223782b61aed",
    ("aq-binomial-thm", 3): "4e32225cc5f67cc16093c4195acb989555861f1c",
    ("aq-cauchy", 0): "b159841cd1992af8ae4bc05d6a2a8102fc42496a",
    ("aq-cauchy", 1): "f631357ca7b87d6e00e19484796336ebfa189b99",
    ("aq-cauchy", 2): "7f8c788abab4056be686600e8442e86322e96e0c",
    ("aq-cauchy", 3): "e01d32a54ffcf8747621bc0a0f4915822d9cd7a2",
}


def _report_sha1(check_id, seed):
    doc = run_check(check_id, seed=seed).to_json()
    doc.pop("elapsed_ms")
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("check_id, seed", sorted(REFERENCE_REPORTS))
def test_reference_reports_keep_their_bytes(check_id, seed):
    assert _report_sha1(check_id, seed) == REFERENCE_REPORTS[check_id, seed]


# SHA-1 of each normal-ordering report, timing stripped, at seeds 0-3:
# building the exhaustive forms by prepending to a checked suffix must
# leave every report as it was
NORMALORDER_REPORTS = {
    ("normalorder-rook", 0): "691bb7a6bfe8f0a7f2b049598e849c45d0e3874f",
    ("normalorder-rook", 1): "57e7472b61e384e46d746f622f725418e2ee996e",
    ("normalorder-rook", 2): "654459ac7361a0451e5c0e9e842d5442beceee86",
    ("normalorder-rook", 3): "98484d483a75437066e10066850739428f9624cb",
    ("normalorder-file", 0): "7ac3312ab6d1a32cd25c3dc0009b1b796a05bafa",
    ("normalorder-file", 1): "8e80b76638996c2b84678e2cc873d6a262463744",
    ("normalorder-file", 2): "a1013a98c7e6c3d660ee2e620e156dac85d09a5f",
    ("normalorder-file", 3): "d92a0a76f4de14c06c051233d6d5e40adc50070d",
}


@pytest.mark.parametrize("check_id, seed", sorted(NORMALORDER_REPORTS))
def test_normalorder_reports_keep_their_bytes(check_id, seed):
    assert _report_sha1(check_id, seed) == NORMALORDER_REPORTS[check_id, seed]


@pytest.mark.parametrize("check_id, poly", [("normalorder-rook", "rook_poly"),
                                            ("normalorder-file", "file_poly")])
def test_normalorder_sweeps_each_board_once_per_run(monkeypatch, check_id, poly):
    # the 510 exhaustive words outline 256 boards, as trailing y's add no
    # column; each board's numbers are swept once and read for every word
    verify = importlib.import_module("ellcomb.verify")
    plain = getattr(verify, poly)
    boards = []

    def counted(board, *args, **kwargs):
        boards.append(board.heights)
        return plain(board, *args, **kwargs)

    monkeypatch.setattr(verify, poly, counted)
    report = run_check(check_id, sizes={"random": 0})
    assert (report.passed, report.trials) == (True, 510)
    assert len(boards) == len(set(boards)) == 256


@pytest.mark.parametrize("rs", [RelationSystem.ROOK_WEYL, RelationSystem.FILE])
def test_exhaustive_walk_gives_the_forms_of_normal_order(rs):
    # the right side is normal_order itself, so each comparison the walk
    # records is its form against the public function's, with ==
    verify = importlib.import_module("ellcomb.verify")
    seen = []

    def expected(word):
        seen.append(word)
        return normal_order(word, rs)

    ctx = CheckContext(random.Random(0), {"exhaustive": 8, "random": 0, "max_len": 12}, 0.0)
    verify._normalorder(ctx, rs, expected)
    words = ["".join(w) for n in range(1, 9) for w in itertools.product("xy", repeat=n)]
    assert sorted(seen) == sorted(words)
    assert (ctx.trials, ctx.failures, ctx.max_rel_err) == (510, 0, 0.0)


def test_library_calls_leave_no_cyclic_garbage():
    # memos, node trees and recursive walks are freed by reference
    # counting when a call returns, so with the cyclic collector off each
    # call leaves nothing for it to find
    from ellcomb.boards import FerrersBoard, all_boards_within, placements
    from ellcomb.skewpoly import SkewPoly, genfun_expand, pincherle_residuals
    from ellcomb.special_fn import ParameterSet
    ps = ParameterSet(0.3 + 0.1j, 0.4, 0.5 + 0.2j, 0.1)
    calls = [
        lambda: pincherle_residuals([(1, 2), (2, 3)], ps),
        lambda: genfun_expand(6, ps),
        lambda: SkewPoly({0: 1.0, 2: lambda a, b: a + b}, ps.q).evaluate(ps),
        lambda: placements(FerrersBoard((1, 2, 3)), 2, "rook"),
        lambda: all_boards_within(3),
        lambda: run_check("pincherle", 0, {"order": 1}),
        lambda: run_check("lemma-xeta-power", 0, {"order": 1}),
        lambda: run_check("prop-product-expansion", 0, {"order": 1}),
        lambda: run_check("fib-genfun", 0, {"order": 1}),
        lambda: run_check("rook-product", 0, {"order": 1}),
        lambda: run_check("normalorder-rook", 0, {"exhaustive": 3, "random": 2}),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        left = []
        for call in calls:
            call()
            left.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert left == [0] * len(calls)
