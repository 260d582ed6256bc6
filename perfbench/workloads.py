"""Inputs, passes and output checks of the three benchmark workloads.

A pass is one cold batch of items in a fresh interpreter (``run.py``
starts it), so every memo table of the library starts empty.  Items run
one after another with a single caller: a closed loop with one client.
Inputs come only from the pass seed.  Outputs are kept during the timed
batch and checked after it, so checking costs no measured time.

The checks do not trust the library's own answer:

* ``registry``: each check's JSON report is read for pass/fail and
  ``max_rel_err``; the report must be well formed and agree with the
  exit code.
* ``words``: each normal form, evaluated with every weight 1, must
  satisfy the Goldman-Joichi-White factorisations, with the Ferrers
  board computed here from the word.  Both sides are polynomials of
  degree m in z (m = number of x's), so they are compared at the m + 1
  points z = 0..m, which decides equality.
* ``numeric``: each identity pair must agree within the tolerance of
  the registered check that states the same identity.

A failed output counts in ``ops_failed``; it never stops the pass.
``correct`` turns false only for a wrong exact result (a symbolic
identity or a malformed report); a sampled comparison outside its
tolerance is a failed op, as ``verify`` counts it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time

# Share of --seconds per pass: the batch (about 1.7-2.2 s on a shared
# 2-core x86 host with Python 3.11) plus its fresh interpreter, one
# speed probe and one set-up sample.  run.py runs round(seconds / share)
# passes.
PASS_SECONDS = {"registry": 2.0, "words": 2.0, "numeric": 2.0}
WORDS_PER_PASS = 96
WORD_LENGTHS = (9, 13)
WORD_POOL_FACTOR = 20
DRAWS_PER_PASS = 18

# The two normal-ordering checks add 60 random words of length 9-12
# each.  Their board enumeration makes a cold registry take 5.6 s to
# 17 s depending on the seed, so the registry pass runs their
# exhaustive part (all 510 words up to length 8) only.
EXHAUSTIVE_ONLY = {"normalorder-rook": {"random": 0},
                   "normalorder-file": {"random": 0}}


class Pass:
    """Counters and outputs of one pass."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.ops = 0
        self.ops_failed = 0
        self.correct = True
        self.problems: list = []
        self.items_ms: list = []
        self.max_rel_err: dict = {}
        self._digest = hashlib.sha1(f"{workload}:{seed}".encode())

    def digest_update(self, text: str) -> None:
        self._digest.update(text.encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def fail(self, message: str, exact: bool = False) -> None:
        self.ops_failed += 1
        if exact:
            self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)


def _annulus(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def draw_params(rng: random.Random) -> tuple:
    """(a, b, q, p) from the annuli the sampled registry checks use."""
    return (_annulus(rng, 0.2, 2.0), _annulus(rng, 0.2, 2.0),
            _annulus(rng, 0.3, 0.9), _annulus(rng, 0.05, 0.5))


def _fmt(z) -> str:
    z = complex(z)
    return f"{z.real:.10e},{z.imag:.10e}"


def rel_err(lhs, rhs) -> float:
    lhs, rhs = complex(lhs), complex(rhs)
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        return math.inf
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def timed_items(items, run_item, tracer=None) -> tuple:
    """Run items in order; return (outputs, per-item ms, wall s, cpu s)."""
    outputs = []
    items_ms = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.on = True
    wall0 = clock()
    cpu0 = time.process_time()
    for item in items:
        t0 = clock()
        outputs.append(run_item(item))
        items_ms.append((clock() - t0) * 1e3)
    cpu = time.process_time() - cpu0
    wall = clock() - wall0
    if tracer is not None:
        tracer.on = False
    return outputs, items_ms, wall, cpu


# ---------------------------------------------------------------------------
# registry: every registered check through the command line


def registry_plan(seed: int) -> list:
    import ellcomb
    return [(check.id, check.kind, seed) for check in ellcomb.list_identities()]


def registry_item(item) -> tuple:
    """One check as ``ellcomb verify --id <id> --seed <seed> --json``.
    Returns (exit code, stdout, stderr)."""
    from ellcomb import cli, verify
    check_id, _kind, seed = item
    out, err = io.StringIO(), io.StringIO()
    try:
        if check_id in EXHAUSTIVE_ONLY:
            report = verify.run_check(check_id, seed=seed, sizes=EXHAUSTIVE_ONLY[check_id])
            out.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
            return (0 if report.passed else 1), out.getvalue(), ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--id", check_id, "--seed", str(seed), "--json"])
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        # an error the command line does not turn into exit code 2
        return 2, "", repr(exc)
    return code, out.getvalue(), err.getvalue()


def registry_check(run: Pass, item, output) -> None:
    check_id, kind, _seed = item
    code, stdout, stderr = output
    run.ops += 1
    if code == 2:
        run.digest_update(f"{check_id} error")
        run.fail(f"{check_id}: {stderr.strip() or 'exit 2'}")
        return
    try:
        report = json.loads(stdout)
        passed = report["pass"]
        err = float(report["max_rel_err"])
        wellformed = (report["id"] == check_id and isinstance(passed, bool)
                      and int(report["trials"]) >= 1
                      and code == (0 if passed else 1))
    except (ValueError, KeyError, TypeError) as exc:
        run.fail(f"{check_id}: unreadable report ({exc})", exact=True)
        return
    if not wellformed:
        run.fail(f"{check_id}: report disagrees with exit code {code}", exact=True)
        return
    run.max_rel_err[check_id] = max(err, run.max_rel_err.get(check_id, 0.0))
    report.pop("elapsed_ms", None)
    run.digest_update(json.dumps(report, sort_keys=True))
    if not passed:
        run.fail(f"{check_id}: FAIL max_rel_err={err:.3e}",
                 exact=(kind == "exact-symbolic"))


# ---------------------------------------------------------------------------
# words: symbolic normal ordering, then evaluation under theta weights


def board_heights(word: str) -> list:
    """Column heights of the Ferrers board a word outlines: the i-th x
    gives a column as high as the number of y's before it."""
    heights = []
    ys = 0
    for ch in word:
        if ch == "y":
            ys += 1
        else:
            heights.append(ys)
    return heights


def inversions(word: str) -> int:
    """Pairs of a y before an x: the cells of the word's board.  Normal
    ordering cost grows about 1.35x per inversion."""
    return sum(board_heights(word))


def quantile_sample(pool: list, count: int, key) -> list:
    """The middle element of each of ``count`` equal blocks of the pool
    sorted by ``key``: a sample with the pool's quantiles of ``key``."""
    ranked = sorted(pool, key=key)
    return [ranked[(2 * i + 1) * len(ranked) // (2 * count)] for i in range(count)]


def words_plan(seed: int, count: int = WORDS_PER_PASS) -> list:
    """Random words of length 9-13 alternating the rook-Weyl and file
    systems, plus y^6 x^6 and (x + y)^12 at seeded positions.  Each item
    carries its own elliptic parameter draw.

    Cost grows about 1.35x per inversion, so a plain random sample is
    decided by its rare most skewed words.  The words are instead the
    middle words of equal blocks of a larger random pool sorted by
    inversions: every pass gets the same quantiles of the inversion
    count, and the extreme skew is carried by the fixed y^6 x^6."""
    rng = random.Random(f"words:{seed}")
    pool = ["".join(rng.choice("xy") for _ in range(rng.randint(*WORD_LENGTHS)))
            for _ in range(count * WORD_POOL_FACTOR)]
    words = quantile_sample(pool, count, lambda w: (inversions(w), len(w), w))
    rng.shuffle(words)
    items = [("word", word, "weyl" if index % 2 == 0 else "file", draw_params(rng))
             for index, word in enumerate(words)]
    for extra in (("word", "y" * 6 + "x" * 6, "weyl"), ("power_sum", 12, "comm")):
        items.insert(rng.randint(0, len(items)), extra + (draw_params(rng),))
    return items


def words_item(item) -> tuple:
    from ellcomb import (EllipticWeights, ParameterSet, RelationSystem,
                         expand_power_sum, normal_order)
    kind, arg, system, params = item
    rs = RelationSystem.from_tag(system)
    nf = normal_order(arg, rs) if kind == "word" else expand_power_sum(arg, rs)
    try:
        values = nf.evaluate(EllipticWeights(ParameterSet(*params)))
    except (ArithmeticError, ValueError) as exc:
        values = exc
    return nf, values


def falling(z: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= z - i
    return out


def gjw_mismatch(word: str, system: str, coeffs: dict):
    """Check integer normal-form coefficients (all weights 1) against the
    Goldman-Joichi-White factorisations at z = 0..m; None when they hold.

    rook (Weyl):  prod_i (z + b_i - i + 1) = sum_k r_k (z)_(m-k)
    file:         prod_i (z + b_i)         = sum_k f_k z^(m-k)
    where r_k, f_k are the coefficients of x^(m-k) y^(n-k) and
    x^(m-k) y^n, m and n counting the word's x's and y's."""
    heights = board_heights(word)
    m, n = len(heights), len(word) - len(heights)
    if system == "weyl":
        keys = {(m - k, n - k): k for k in range(min(m, n) + 1)}
    else:
        keys = {(m - k, n): k for k in range(m + 1)}
    stray = set(coeffs) - set(keys)
    if stray:
        return f"unexpected monomials {sorted(stray)}"
    numbers = {k: coeffs.get(key, 0) for key, k in keys.items()}
    for z in range(m + 1):
        if system == "weyl":
            lhs = math.prod(z + b - i for i, b in enumerate(heights))
            rhs = sum(r * falling(z, m - k) for k, r in numbers.items())
        else:
            lhs = math.prod(z + b for b in heights)
            rhs = sum(f * z ** (m - k) for k, f in numbers.items())
        if lhs != rhs:
            return f"z={z}: product {lhs} != expansion {rhs}"
    return None


def _as_integers(values: dict):
    out = {}
    for key, v in values.items():
        v = complex(v)
        if v.imag != 0 or v.real != int(v.real):
            return None
        if v.real:
            out[key] = int(v.real)
    return out


def words_check(run: Pass, item, output) -> None:
    from ellcomb import QWeights
    kind, arg, system, _params = item
    nf, values = output
    run.ops += 1
    label = f"{system}:{arg}"
    coeffs = _as_integers(nf.evaluate(QWeights(1)))
    if coeffs is None:
        run.fail(f"{label}: non-integer coefficients at weight 1", exact=True)
        return
    if kind == "word":
        problem = gjw_mismatch(arg, system, coeffs)
    else:
        expected = {(k, arg - k): math.comb(arg, k) for k in range(arg + 1)}
        problem = None if coeffs == expected else "binomial coefficients differ"
    run.digest_update(label + " " + json.dumps(sorted(coeffs.items())))
    if problem is not None:
        run.fail(f"{label}: {problem}", exact=True)
        return
    if isinstance(values, Exception):
        run.fail(f"{label}: elliptic evaluation raised {values!r}")
        return
    if set(values) != set(nf.coeffs) or not all(cmath.isfinite(v) for v in values.values()):
        run.fail(f"{label}: elliptic evaluation not finite on every monomial")
        return
    run.digest_update(" ".join(_fmt(values[k]) for k in sorted(values)))


# ---------------------------------------------------------------------------
# numeric: theta weights, skew operators and product formulas per draw

_BOARDS_5X5 = [tuple(h) for h in itertools.combinations_with_replacement(range(6), 5)]

# which registered check states the same identity, for its tolerance
NUMERIC_TOLERANCE_OF = {
    "big": "bigweight-closed-vs-product",
    "binom": "binom-recursion-closed",
    "genfun": "fib-genfun",
    "pincherle": "pincherle",
    "rook": "rook-product",
    "file": "file-product",
}


def numeric_plan(seed: int, count: int = DRAWS_PER_PASS) -> list:
    """Parameter draws, each with a Fibonacci degree, a Pincherle order and
    three boards within 5 x 5 with their z.  Board cost grows steeply
    with the cell count, so boards are not drawn at random."""
    rng = random.Random(f"numeric:{seed}")
    # every pass uses the same 3 * count boards spread over the cell
    # counts; each draw gets one small, one middle and one large board
    boards = quantile_sample(_BOARDS_5X5, 3 * count, lambda h: (sum(h), h))
    tiers = [boards[t * count:(t + 1) * count] for t in range(3)]
    for tier in tiers:
        rng.shuffle(tier)
    items = []
    for index in range(count):
        params = draw_params(rng)
        degree = rng.randint(12, 14)
        k_max = rng.randint(7, 9)
        chosen = [(tier[index], rng.randint(0, 4)) for tier in tiers]
        items.append((params, degree, k_max, chosen))
    return items


def _attempt(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return exc


def numeric_item(item) -> list:
    """All comparisons of one draw as (kind, label, lhs, rhs) tuples; a
    residual is stored as (kind, label, residual, None).  A side that
    raises is stored as the exception."""
    from ellcomb import (EllipticWeights, FerrersBoard, ParameterSet,
                         file_product_sides, fib_elliptic, genfun_expand,
                         path_binom, pincherle_check, rook_product_sides)
    params, degree, k_max, boards = item
    ps = ParameterSet(*params)
    fam = EllipticWeights(ps)
    out = []

    def column_product(s, t):
        value = 1.0 + 0.0j
        for j in range(1, t + 1):
            value *= fam.small(s, j)
        return value

    for s in range(1, 4):
        for t in range(1, 6):
            out.append(("big", f"{s},{t}", _attempt(lambda: fam.big(s, t)),
                        _attempt(lambda: column_product(s, t))))
    for n in range(9):
        for k in range(n + 1):
            out.append(("binom", f"{n},{k}", _attempt(lambda: fam.binom(n, k)),
                        _attempt(lambda: path_binom(n, k, fam))))
    series = _attempt(lambda: genfun_expand(degree, ps))
    for m in range(1, degree + 1):
        lhs = series if isinstance(series, Exception) else series[m - 1]
        out.append(("genfun", str(m), lhs, _attempt(lambda: fib_elliptic(m, ps))))
    for k in range(1, k_max + 1):
        for n in range(4):
            out.append(("pincherle", f"{k},{n}",
                        _attempt(lambda: pincherle_check(k, n, ps)), None))
    for heights, z in boards:
        board = FerrersBoard(heights)
        for kind, sides in (("rook", rook_product_sides), ("file", file_product_sides)):
            pair = _attempt(lambda: sides(board, z, ps))
            lhs, rhs = (pair, pair) if isinstance(pair, Exception) else pair
            out.append((kind, f"{heights}:{z}", lhs, rhs))
    return out


def numeric_tolerances() -> dict:
    import ellcomb
    by_id = {check.id: check.tolerance for check in ellcomb.list_identities()}
    return {kind: by_id[check_id] for kind, check_id in NUMERIC_TOLERANCE_OF.items()}


def numeric_check(run: Pass, item, output, tolerances: dict) -> None:
    for kind, label, lhs, rhs in output:
        run.ops += 1
        tag = f"{kind}[{label}]"
        raised = next((x for x in (lhs, rhs) if isinstance(x, Exception)), None)
        if raised is not None:
            run.digest_update(f"{tag} raised")
            run.fail(f"{tag}: draw raised {raised!r}")
            continue
        err = float(lhs) if rhs is None else rel_err(lhs, rhs)
        run.digest_update(f"{tag} {_fmt(lhs)}" + ("" if rhs is None else f" {_fmt(rhs)}"))
        if not err <= tolerances[kind]:
            run.fail(f"{tag}: rel_err {err:.3e} > {tolerances[kind]:.0e}")


# ---------------------------------------------------------------------------


def run_pass(workload: str, seed: int, tracer=None, size: int | None = None) -> Pass:
    """Plan, run and check one pass.  ``size`` shrinks the plan (self-test)."""
    run = Pass(workload, seed)
    if workload == "registry":
        plan = registry_plan(seed)
        if size is not None:
            plan = plan[:size]
        run_item, check = registry_item, registry_check
    elif workload == "words":
        plan = words_plan(seed, WORDS_PER_PASS if size is None else size)
        run_item, check = words_item, words_check
    elif workload == "numeric":
        plan = numeric_plan(seed, DRAWS_PER_PASS if size is None else size)
        tolerances = numeric_tolerances()
        run_item = numeric_item

        def check(run, item, output):
            numeric_check(run, item, output, tolerances)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    outputs, run.items_ms, run.wall_s, run.cpu_s = timed_items(plan, run_item, tracer)
    for item, output in zip(plan, outputs):
        check(run, item, output)
    return run
