"""Command-line interface: contract outputs, exit codes, JSON round trips."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ellcomb.cli as cli
from ellcomb.boards import FerrersBoard, file_poly, rook_poly
from ellcomb.ncword import NormalForm, RelationSystem, normal_order, parse_word
from ellcomb.special_fn import (
    _FAMILY_TAGS, GenericWeights, ParameterSet, pair_to_complex, theta,
)
from ellcomb.verify import CheckReport, VerifyError, list_identities
from ellcomb.weightpoly import WeightPolynomial


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_normal_order_weyl_frozen_output(capsys):
    code, out, err = run_cli(
        capsys, "normal-order", "--system", "weyl", "--word", "xyxxyxyy",
        "--family", "q", "--q", "1,0")
    assert code == 0
    assert out == "x^4 y^4 + 4 x^3 y^3 + 2 x^2 y^2"


def test_binom_q_frozen_output(capsys):
    code, out, err = run_cli(
        capsys, "binom", "--family", "q", "--q", "0.5,0", "--n", "2", "--k", "1")
    assert code == 0
    assert out == "1.5"


def test_theta_value_and_json(capsys):
    code, out, _ = run_cli(capsys, "theta", "--x", "0.5", "--p", "0")
    assert code == 0 and out == "0.5"
    code, out, _ = run_cli(capsys, "theta", "--x", "0.5,0.25", "--p", "0.1,0", "--json")
    assert code == 0
    doc = json.loads(out)
    want = theta(0.5 + 0.25j, 0.1)
    assert abs(pair_to_complex(doc["value"]) - want) < 1e-15


def test_theta_at_zero_nome_accepts_zero_argument(capsys):
    code, out, _ = run_cli(capsys, "theta", "--x", "0", "--p", "0")
    assert code == 0 and out == "1"


def test_text_keeps_an_imaginary_part_beside_a_zero_real_part(capsys):
    # the imaginary part is hidden only when it is below 1e-12 of the
    # real part, so a purely imaginary value never prints as 0
    code, out, _ = run_cli(capsys, "theta", "--x", "1,1e-13", "--p", "0")
    assert code == 0 and out == "0.0-1e-13j"
    code, out, _ = run_cli(capsys, "weight", "--family", "q", "--q", "0,1e-13",
                           "--s", "1", "--t", "1")
    assert code == 0 and out == "0.0+1e-13j"
    code, out, _ = run_cli(capsys, "weight", "--family", "q", "--q", "0,1e-13",
                           "--s", "1", "--t", "1", "--json")
    assert code == 0 and json.loads(out)["value"] == [0.0, 1e-13]


def test_complex_flag_accepts_bare_real(capsys):
    code_bare, out_bare, _ = run_cli(capsys, "theta", "--x", "0.4", "--p", "0.2")
    code_pair, out_pair, _ = run_cli(capsys, "theta", "--x", "0.4,0", "--p", "0.2,0")
    assert code_bare == code_pair == 0
    assert out_bare == out_pair


@pytest.mark.parametrize("argv", [
    ("theta", "--x", "{}", "--p", "0.1"),
    ("theta", "--x", "0.3", "--p", "{}"),
    ("binom", "--family", "elliptic", "--a", "{}", "--b", "0.4", "--q", "0.5,0.1",
     "--p", "0.2", "--n", "4", "--k", "2"),
    ("binom", "--family", "bq", "--b", "{}", "--q", "0.5,0.1", "--n", "4", "--k", "2"),
    ("binom", "--family", "q", "--q", "{}", "--n", "4", "--k", "2"),
])
def test_complex_flag_reads_a_negative_value_after_a_space(capsys, argv):
    # argparse reads "-0.05,0.1" as an option unless it is joined to its
    # flag; after a space it must read as it does after "="
    value = "-0.05,0.1"
    spaced = [value if arg == "{}" else arg for arg in argv]
    flag = argv.index("{}") - 1
    joined = argv[:flag] + (f"{argv[flag]}={value}",) + argv[flag + 2:]
    code, out, err = run_cli(capsys, *spaced)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *joined)


def test_complex_flag_refuses_what_it_refused_after_a_space(capsys):
    # a value _parse_complex refuses is not joined: argparse still reads
    # it as an option and names the flag short of its argument
    for value in ("-0.5,abc", "--p"):
        code, out, err = run_cli(capsys, "theta", "--x", value, "--p", "0.1")
        assert code == 2 and out == ""
        assert err.endswith("error: argument --x: expected one argument"), err


@pytest.mark.parametrize("command", ["rook", "file"])
def test_board_flag_reads_a_negative_height_after_a_space(capsys, command):
    # "-1,2" after --board reaches the board's own check, as "--board=-1,2"
    # does, instead of argparse reading it as an option
    spaced = run_cli(capsys, command, "--board", "-1,2", "--k", "1")
    assert spaced == run_cli(capsys, command, "--board=-1,2", "--k", "1")
    code, out, err = spaced
    assert (code, out) == (2, "")
    assert err == "error: column heights must be nonnegative: (-1, 2)"
    # a value that is not a list of integers is left to argparse
    code, out, err = run_cli(capsys, command, "--board", "-1,x", "--k", "1")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --board: expected one argument"), err


def test_weight_symbolic_and_numeric(capsys):
    code, out, _ = run_cli(capsys, "weight", "--s", "1", "--t", "1")
    assert code == 0 and out == "w(1,1)"
    code, out, _ = run_cli(capsys, "weight", "--s", "2", "--t", "2", "--json")
    assert code == 0
    poly = WeightPolynomial.from_json(json.loads(out))
    assert poly == WeightPolynomial.symbol(2, 2)
    code, out, _ = run_cli(
        capsys, "weight", "--family", "q", "--q", "0.5", "--s", "1", "--t", "3", "--big")
    assert code == 0 and out == "0.125"


def test_normal_order_symbolic_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "normal-order", "--system", "comm",
                           "--word", "yx", "--json")
    assert code == 0
    nf = NormalForm.from_json(json.loads(out))
    assert nf == NormalForm({(1, 1): WeightPolynomial.symbol(1, 1)})


def test_normal_order_rejects_bad_word(capsys):
    code, out, err = run_cli(capsys, "normal-order", "--system", "weyl",
                             "--word", "xyz")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_rook_file_commands(capsys):
    code, out, _ = run_cli(capsys, "rook", "--board", "1,2,2,3", "--k", "2",
                           "--family", "q", "--q", "1")
    assert code == 0 and out == "14"
    code, out, _ = run_cli(capsys, "file", "--board", "1,2", "--k", "2",
                           "--family", "q", "--q", "1")
    assert code == 0 and out == "2"
    code, out, _ = run_cli(capsys, "rook", "--board", "1,2", "--k", "1", "--json")
    assert code == 0
    poly = WeightPolynomial.from_json(json.loads(out))
    w = WeightPolynomial.symbol
    assert poly == w(1, 1) + w(1, 1) * w(2, 2) + w(2, 2)
    # the one-parameter families weigh board cells by their small weights
    expected = [("rook", ("--family", "bq", "--b", "0.4", "--q", "0.5"), 0.6982547849961425),
                ("file", ("--family", "bq", "--b", "0.4", "--q", "0.5"), 0.3470433299582545),
                ("rook", ("--family", "q", "--q", "0.5"), 0.8125),
                ("file", ("--family", "q", "--q", "0.5"), 0.4375)]
    for command, flags, want in expected:
        code, out, _ = run_cli(capsys, command, "--board", "1,2,2", "--k", "1", *flags)
        assert code == 0
        assert abs(float(out) - want) < 1e-12, (command, flags, out)


def test_elliptic_board_cells_are_the_small_weights(capsys):
    # every family weighs a cell by w(s, t): the theta weight at
    # (a, b, q, p) = (0, 0.4, 0.5, 0) gives the b;q value
    for command, want in (("rook", 0.6982547849961425), ("file", 0.3470433299582545)):
        code, out, _ = run_cli(capsys, command, "--board", "1,2,2", "--k", "1",
                               "--family", "elliptic", "--a", "0", "--b", "0.4",
                               "--q", "0.5", "--p", "0")
        assert code == 0
        assert abs(float(out) - want) < 1e-12, (command, out)


def test_cli_builds_only_the_printed_form(capsys, monkeypatch):
    # rendering a large symbolic value costs seconds, so plain output
    # never builds the JSON document, and neither format builds its
    # whole text: both are written one entry at a time
    def refuse(self, *args):
        raise AssertionError("built the form that is not printed")

    commands = [("rook", "--board", "1,2,2", "--k", "1"),
                ("normal-order", "--system", "weyl", "--word", "yxyx")]
    with monkeypatch.context() as patch:
        for cls in (WeightPolynomial, NormalForm):
            patch.setattr(cls, "__str__", refuse)
            patch.setattr(cls, "to_json", refuse)
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out
    with monkeypatch.context() as patch:
        for cls in (WeightPolynomial, NormalForm):
            patch.setattr(cls, "__str__", refuse)
            patch.setattr(cls, "to_json", refuse)
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv, "--json")
            assert code == 0 and json.loads(out)


def test_symbolic_json_is_streamed_with_the_bytes_of_one_dump(capsys):
    # a polynomial or normal form is written entry by entry; the bytes
    # are those of json.dumps over the whole to_json document under
    # --json, and those of str otherwise
    generic = GenericWeights()

    def nf(system, word):
        return normal_order(parse_word(word), RelationSystem.from_tag(system))

    cases = [
        (("rook", "--board", "1,2,3,3", "--k", "2"),
         rook_poly(FerrersBoard.from_text("1,2,3,3"), 2, generic)),
        (("file", "--board", "1,2,2", "--k", "2"),
         file_poly(FerrersBoard.from_text("1,2,2"), 2, generic)),
        (("rook", "--board", "1", "--k", "2"),
         rook_poly(FerrersBoard.from_text("1"), 2, generic)),
        (("binom", "--family", "generic", "--n", "4", "--k", "2"), generic.binom(4, 2)),
        (("normal-order", "--system", "weyl", "--word", "yyxyxx"), nf("weyl", "yyxyxx")),
        (("normal-order", "--system", "file", "--word", "yxyyx"), nf("file", "yxyyx")),
        (("normal-order", "--system", "comm", "--word", "x"), nf("comm", "x")),
    ]
    for argv, value in cases:
        assert cli.main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(value.to_json(), sort_keys=True) + "\n", argv
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == str(value) + "\n", argv
    assert cases[2][1].is_zero()


def test_streamed_output_is_joined_into_blocks(capsys, monkeypatch):
    # blocks smaller than one term: every block boundary keeps the bytes
    monkeypatch.setattr(cli, "_BLOCK", 7)
    value = rook_poly(FerrersBoard.from_text("1,2,3,3"), 2, GenericWeights())
    for flags, expected in (((), str(value)),
                            (("--json",), json.dumps(value.to_json(), sort_keys=True))):
        assert cli.main(["rook", "--board", "1,2,3,3", "--k", "2", *flags]) == 0
        assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("argv", [
    ("binom", "--family", "q", "--n", "5000", "--k", "2500", "--q", "0.999"),
    ("binom", "--family", "bq", "--n", "4000", "--k", "2000", "--b", "0.3", "--q", "0.999"),
    ("binom", "--family", "aq", "--n", "4000", "--k", "2000", "--a", "0.3", "--q", "0.999"),
])
def test_binomials_beyond_the_double_range_exit_2(capsys, argv):
    # the q-factorial products overflow: a reason on stderr and exit 2,
    # never a printed inf or nan or a traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


_FIB_ELLIPTIC = ("fib", "--elliptic", "--a", "1.1", "--b", "0.4", "--q", "0.99", "--p", "0.2")
_FIB_AQ = ("fib", "--aq", "--n", "1200", "--a", "0.3", "--q", "0.999")


@pytest.mark.parametrize("argv", [
    (*_FIB_ELLIPTIC, "--n", "600"),
    (*_FIB_ELLIPTIC, "--n", "3000"),
    (*_FIB_AQ, "--closed"),
    _FIB_AQ,
])
def test_fib_beyond_the_double_range_exit_2(capsys, argv):
    # the recursion and the closed sum overflow, and a long recursion
    # does not reach the interpreter's depth limit: exit 2 with a reason
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("fib", "--aq", "--n", "5", "--a", "0.3", "--q", "0"),
    ("fib", "--aq", "--n", "40", "--a", "0.3", "--q", "1e-200"),
    ("fib", "--elliptic", "--n", "5", "--a", "0.3", "--b", "0.2", "--q", "0", "--p", "0"),
    ("normal-order", "--system", "comm", "--word", "yyxyxxx", "--family", "bq",
     "--b", "0.999", "--q", "1e-200"),
])
def test_negative_powers_of_a_vanishing_q_exit_2(capsys, argv):
    # q^-k for q = 0, or for a q whose power underflows, has no double
    # value: exit 2 with a reason, not a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_big_weight_beyond_the_double_range_exit_2(capsys):
    # the a;q column product of small weights near 1e200 overflows: exit
    # 2 with a reason, never a printed Infinity or NaN
    code, out, err = run_cli(capsys, "weight", "--family", "aq", "--a", "-1", "--q", "1e-200",
                             "--s", "4", "--t", "3", "--big", "--json")
    assert code == 2 and out == "" and err.startswith("error:")


def test_board_sums_beyond_the_double_range_exit_2(capsys):
    # the weighted sums of the numeric board sweep overflow, and inf - inf
    # gives NaN: exit 2 with a reason, never a printed nan
    code, out, err = run_cli(capsys, "rook", "--board", "8,8,8,8,8,8,8,8", "--k", "8",
                             "--family", "q", "--q", "1e12")
    assert code == 2 and out == "" and err.startswith("error:")


def test_board_cap_enforced(capsys):
    code, _, err = run_cli(capsys, "rook", "--board", "1,2,9", "--k", "1")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "file", "--board", ",".join("1" * 9), "--k", "1")
    assert code == 2 and "cap" in err


def test_fib_modes(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "5", "--aq",
                           "--a", "0.3", "--q", "0.5")
    assert code == 0
    rec = float(out)
    code, out, _ = run_cli(capsys, "fib", "--n", "5", "--aq",
                           "--a", "0.3", "--q", "0.5", "--closed")
    assert code == 0
    assert abs(float(out) - rec) < 1e-10
    code, out, _ = run_cli(capsys, "fib", "--n", "4", "--elliptic", "--a", "0.4",
                           "--b", "0.3", "--q", "0.5,0.1", "--p", "0.1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "value" in doc


def test_fib_flag_validation(capsys):
    code, _, err = run_cli(capsys, "fib", "--n", "4", "--elliptic", "--a", "0.4")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "fib", "--n", "4", "--aq", "--a", "0.4")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "fib", "--n", "4", "--elliptic", "--a", "0.4",
                           "--b", "0.3", "--q", "0.5", "--p", "0.1", "--closed")
    assert code == 2 and "--aq" in err


def test_fib_negative_n_names_the_function_of_its_mode(capsys):
    # each mode's message names the function that mode calls
    for mode, name in (((), "fib_aq"), (("--closed",), "fib_aq_closed")):
        code, out, err = run_cli(capsys, "fib", "--aq", "--n", "-1", "--a", "0.3",
                                 "--q", "0.5", *mode)
        assert (code, out, err) == (2, "", f"error: {name} needs n >= 0")
    code, out, err = run_cli(capsys, "fib", "--elliptic", "--n", "-1", "--a", "1.1,0.2",
                             "--b", "0.4", "--q", "0.5,0.1", "--p", "0.2")
    assert (code, out, err) == (2, "", "error: fib_elliptic needs n >= 0")


def test_usage_errors_exit_two(capsys):
    code, _, _ = run_cli(capsys, "theta", "--x", "abc", "--p", "0.1")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "binom", "--family", "bq", "--n", "2", "--k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "theta", "--x", "0", "--p", "0.1")
    assert code == 2 and err.startswith("error:")


def test_verify_single_check_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "theta-addition",
                           "--seed", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "theta-addition"
    assert doc["pass"] is True
    report = CheckReport.from_json(doc)
    assert report.passed and report.seed == 1


def test_verify_text_line_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "theta-inversion", "--seed", "3")
    assert code == 0
    assert out.startswith("PASS theta-inversion ")
    assert "max_rel_err=" in out


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "bogus")
    assert code == 2 and "unknown check id" in err


def test_verify_order_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "binom-recursion-closed",
                           "--seed", "2", "--order", "3")
    assert code == 0 and out.startswith("PASS")


def test_verify_order_below_one_exits_two(capsys):
    for check_id in [c.id for c in list_identities()]:
        code, out, err = run_cli(capsys, "verify", "--id", check_id, "--order", "0")
        assert code == 2 and out == "", check_id
        assert "--order must be at least 1" in err
    code, _, err = run_cli(capsys, "verify", "--id", "pincherle", "--order", "-1")
    assert code == 2 and "--order must be at least 1" in err
    code, _, err = run_cli(capsys, "verify", "--order", "0")
    assert code == 2 and "--order must be at least 1" in err


def test_verify_order_one_runs_every_check(capsys):
    for check_id in [c.id for c in list_identities()]:
        code, out, _ = run_cli(capsys, "verify", "--id", check_id, "--order", "1")
        assert code == 0 and out.startswith(f"PASS {check_id} "), check_id


def test_verify_failure_exits_one(capsys, monkeypatch):
    import ellcomb.verify as verify
    failing = CheckReport(
        id="theta-inversion", trials=10, failures=3, max_rel_err=0.5,
        seed=0, elapsed_ms=1, passed=False, samples=("deadbeef",))
    monkeypatch.setattr(verify, "run_check", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "verify", "--id", "theta-inversion")
    assert code == 1
    assert out.startswith("FAIL theta-inversion")
    code, out, _ = run_cli(capsys, "verify", "--id", "theta-inversion", "--json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_all_emits_one_json_document(capsys, monkeypatch):
    import ellcomb.verify as verify
    reports = [run_one for run_one in [
        CheckReport(id="a-check", trials=1, failures=0, max_rel_err=0.0,
                    seed=0, elapsed_ms=1, passed=True, samples=()),
        CheckReport(id="b-check", trials=1, failures=0, max_rel_err=0.0,
                    seed=0, elapsed_ms=1, passed=True, samples=()),
    ]]
    by_id = {r.id: r for r in reports}
    monkeypatch.setattr(verify, "list_identities", lambda: reports)
    monkeypatch.setattr(verify, "run_check", lambda check_id, seed, sizes: by_id[check_id])
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    docs = json.loads(out)
    assert [d["id"] for d in docs] == ["a-check", "b-check"]


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "theta" in out and "verify" in out


def test_verify_stats_leave_the_json_bytes_alone(capsys, monkeypatch):
    # --stats writes one line per check to stderr and nothing to stdout;
    # the check clock is stopped so elapsed_ms is the same in both runs
    import ellcomb
    import ellcomb.verify as verify
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    outputs = []
    for extra in ((), ("--stats",)):
        ellcomb.clear_caches()
        code = cli.main(["verify", "--seed", "3", "--json", *extra])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    assert outputs[0] == outputs[1]
    lines = captured.err.splitlines()
    assert [line.split()[1] for line in lines] == [c.id for c in list_identities()]
    for line in lines:
        for name, cache in ellcomb._CACHES.items():
            assert f"; {name} hits +" in line, (name, line)
            # each cache's size change is printed next to its bound
            part = next(p for p in line.split("; ") if p.startswith(f"{name} "))
            assert re.search(rf" size [+-]\d+ of {cache.cache_info().maxsize}$", part), part
        # the cyclic collector's runs in generations 0/1/2 and the
        # objects it freed while the check ran
        assert re.search(r"; gc collections \+\d+/\+\d+/\+\d+ collected \+\d+$", line), line
    assert "special_fn._theta_series hits +0 misses +0" not in lines[0]


def test_verify_stats_charge_no_parser_cycles_to_the_first_check(capsys, monkeypatch):
    # the command-line parser's reference cycles are freed before the
    # first check's counters are taken: rook-product leaves no cyclic
    # garbage, so its line reads collected +0, not the parser's objects,
    # and stdout is the same without --stats
    import ellcomb.verify as verify
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def run(*extra):
        return subprocess.run([sys.executable, "-m", "ellcomb.cli", "verify",
                               "--id", "rook-product", *extra],
                              capture_output=True, text=True, env=env, timeout=120)

    plain, stats = run(), run("--stats")
    assert plain.returncode == stats.returncode == 0
    assert plain.stdout == stats.stdout and plain.stderr == ""
    assert stats.stderr.startswith("stats rook-product "), stats.stderr
    assert stats.stderr.endswith(" collected +0\n"), stats.stderr
    # the --json bytes, with the check clock stopped, are the same too
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    outputs = []
    for extra in ((), ("--stats",)):
        code = cli.main(["verify", "--id", "rook-product", "--json", *extra])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    assert outputs[0] == outputs[1]
    assert captured.err.endswith(" collected +0\n"), captured.err


_SWEEP_VALUES = ("0", "1", "-1", "0.5,0.1", "1e200", "1e-200")
_SWEEP_NOMES = ("0", "0.2", "0.99", "1e-200")


def _sweep_argv(rng) -> list:
    """One seeded command with degenerate parameters and small sizes:
    n <= 20, boards within 4 x 4, words of at most 7 letters."""
    command = rng.choice(("theta", "weight", "binom", "rook", "file", "normal-order", "fib"))
    if command == "theta":
        argv = [command, "--x", rng.choice(_SWEEP_VALUES), "--p", rng.choice(_SWEEP_NOMES)]
    elif command == "fib":
        mode = rng.choice(("--aq", "--elliptic"))
        argv = [command, "--n", str(rng.randint(0, 20)), mode,
                "--a", rng.choice(_SWEEP_VALUES), "--q", rng.choice(_SWEEP_VALUES)]
        if mode == "--elliptic":
            argv += ["--b", rng.choice(_SWEEP_VALUES), "--p", rng.choice(_SWEEP_NOMES)]
        elif rng.random() < 0.5:
            argv.append("--closed")
    else:
        family = rng.choice(_FAMILY_TAGS)
        argv = [command, "--family", family]
        for flag in ("--a", "--b", "--q"):
            argv += [flag, rng.choice(_SWEEP_VALUES)]
        argv += ["--p", rng.choice(_SWEEP_NOMES)]
        # symbolic results grow fast with n: keep generic sizes smaller
        cap = 6 if family == "generic" else 20
        if command == "weight":
            argv += ["--s", str(rng.randint(0, 4)), "--t", str(rng.randint(0, 4))]
            if rng.random() < 0.5:
                argv.append("--big")
        elif command == "binom":
            n = rng.randint(0, cap)
            argv += ["--n", str(n), "--k", str(rng.randint(-1, n + 1))]
        elif command in ("rook", "file"):
            heights = sorted(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
            argv += ["--board", ",".join(map(str, heights)), "--k", str(rng.randint(0, 4))]
        else:
            word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 7)))
            argv += ["--system", rng.choice([m.value for m in RelationSystem]),
                     "--word", word]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def test_degenerate_parameter_sweep_exits_0_or_2(capsys):
    # zero, unit and extreme parameters across the evaluating commands:
    # every command returns 0 or 2 and raises nothing, and a printed
    # result is finite
    rng = random.Random(20261019)
    for _ in range(400):
        argv = _sweep_argv(rng)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), argv
        if code == 0:
            assert "nan" not in out.lower() and "inf" not in out.lower(), argv
        else:
            assert out == "" and err.startswith("error:"), argv


@pytest.mark.parametrize("check_id", ["normalorder-rook", "normalorder-file"])
def test_normalorder_order_at_max_len_exits_2_before_any_word(capsys, monkeypatch, check_id):
    # an order at max_len leaves no length for the random words; it is
    # refused before the exhaustive part builds a single form
    import ellcomb.verify as verify
    calls = []
    for name in ("_prepend", "normal_order"):
        def counted(*args, _fn=getattr(verify, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    with pytest.raises(VerifyError, match="below max_len 3"):
        verify.run_check(check_id, sizes={"exhaustive": 3, "max_len": 3})
    code, out, err = run_cli(capsys, "verify", "--id", check_id, "--order", "12")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "below max_len 12" in err
    assert calls == []
    code, _, _ = run_cli(capsys, "verify", "--id", check_id, "--order", "1")
    assert code == 0
    assert calls.count("_prepend") == 2 and calls.count("normal_order") == 60


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    # main builds its parser once per process; every call in this
    # sequence, errors and --help included, must print and return what
    # the same call prints and returns on a parser built for it alone
    import ellcomb.verify as verify
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    sequence = [
        ["verify", "--id", "theta-inversion", "--seed", "3", "--json"],
        ["theta", "--x", "0.5", "--p", "0.1", "--no-such-flag"],
        ["--help"],
        ["verify", "--id", "bogus"],
        ["theta", "--x", "0.5,0.1", "--p", "0.2"],
    ]

    def call(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(call(argv))
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    reused = [call(argv) for argv in sequence]
    assert reused == fresh
    assert len(builds) == 1
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]


def _readme_examples():
    # the "$ ellcomb ..." examples of the README's "Command line"
    # section, each with the lines it shows
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n")[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ ellcomb "), command
        examples.append(pytest.param(command[len("$ ellcomb "):].split(), shown,
                                     id=command[len("$ ellcomb "):]))
    return examples


@pytest.mark.parametrize("argv, shown", _readme_examples())
def test_readme_command_line_examples_print_what_they_show(capsys, argv, shown):
    # a trailing "..." line shows only the first lines of the output; a
    # document shown as {"key": value, ..., ...} shows its first keys,
    # with "..." for a value left out
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    if shown[-1] == "...":
        assert lines[:len(shown) - 1] == shown[:-1]
    elif shown[0].startswith("{"):
        document = json.loads(out)
        pairs = re.findall(r'"(\w+)": ([^,}]+)', shown[0])
        assert list(document)[:len(pairs)] == [key for key, _ in pairs]
        for key, value in pairs:
            if value != "...":
                assert document[key] == json.loads(value), key
    else:
        assert lines == shown
