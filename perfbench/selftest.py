"""Self-test of the benchmark: tiny passes, checks that catch wrong
values, repeatability and tracing.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import workloads  # noqa: E402
from ellcomb import NormalForm, RelationSystem, normal_order  # noqa: E402

TINY = {"registry": 3, "words": 4, "numeric": 1}


class TinyPasses(unittest.TestCase):
    def test_each_workload_runs_and_checks_every_item(self):
        for workload, size in TINY.items():
            with self.subTest(workload=workload):
                p = workloads.run_pass(workload, 7, size=size)
                self.assertTrue(p.correct, p.problems)
                self.assertGreaterEqual(p.ops, size)
                self.assertEqual(len(p.items_ms), size + (2 if workload == "words" else 0))
                self.assertGreater(p.wall_s, 0.0)

    def test_same_seed_repeats_ops_failures_and_digest(self):
        for workload, size in TINY.items():
            with self.subTest(workload=workload):
                first = workloads.run_pass(workload, 11, size=size)
                second = workloads.run_pass(workload, 11, size=size)
                self.assertEqual((first.ops, first.ops_failed, first.digest),
                                 (second.ops, second.ops_failed, second.digest))
                other = workloads.run_pass(workload, 12, size=size)
                self.assertNotEqual(first.digest, other.digest)


class ChecksCatchWrongValues(unittest.TestCase):
    def test_registry_report(self):
        item = ("theta-inversion", "numeric-sampled", 0)
        good = {"id": "theta-inversion", "trials": 3, "failures": 0,
                "max_rel_err": 1e-15, "seed": 0, "elapsed_ms": 1, "pass": True,
                "samples": []}
        p = workloads.Pass("registry", 0)
        workloads.registry_check(p, item, (0, json.dumps(good), ""))
        self.assertEqual((p.ops_failed, p.correct), (0, True))

        failing = dict(good, failures=1, max_rel_err=0.5, **{"pass": False})
        p = workloads.Pass("registry", 0)
        workloads.registry_check(p, item, (1, json.dumps(failing), ""))
        self.assertEqual((p.ops_failed, p.correct), (1, True))

        for code, text in ((0, json.dumps(failing)), (1, json.dumps(good)),
                           (0, "not json"), (0, json.dumps(dict(good, id="other")))):
            p = workloads.Pass("registry", 0)
            workloads.registry_check(p, item, (code, text, ""))
            self.assertEqual((p.ops_failed, p.correct), (1, False), text)

        p = workloads.Pass("registry", 0)
        workloads.registry_check(p, item, (2, "", "error: resample cap exceeded"))
        self.assertEqual((p.ops_failed, p.correct), (1, True))

        exact = ("normalorder-file", "exact-symbolic", 0)
        p = workloads.Pass("registry", 0)
        workloads.registry_check(p, exact, (1, json.dumps(dict(failing, id="normalorder-file")), ""))
        self.assertEqual((p.ops_failed, p.correct), (1, False))

    def test_words_normal_form(self):
        for system, word in (("weyl", "yxyyxxyx"), ("file", "xyyxyxxy")):
            item = ("word", word, system, (1.1 + 0.2j, 0.7 - 0.3j, 0.5 + 0.1j, 0.2j))
            nf, values = workloads.words_item(item)
            p = workloads.Pass("words", 0)
            workloads.words_check(p, item, (nf, values))
            self.assertEqual((p.ops_failed, p.correct), (0, True), p.problems)

            key = max(nf.coeffs)
            wrong = NormalForm(dict(nf.coeffs) | {key: nf.coeffs[key] + 1})
            p = workloads.Pass("words", 0)
            workloads.words_check(p, item, (wrong, values))
            self.assertEqual((p.ops_failed, p.correct), (1, False))

            swapped = "file" if system == "weyl" else "weyl"
            other = normal_order(word, RelationSystem.from_tag(swapped))
            p = workloads.Pass("words", 0)
            workloads.words_check(p, item, (other, values))
            self.assertEqual((p.ops_failed, p.correct), (1, False))

            p = workloads.Pass("words", 0)
            workloads.words_check(p, item, (nf, ZeroDivisionError("near pole")))
            self.assertEqual((p.ops_failed, p.correct), (1, True))

    def test_power_sum(self):
        item = ("power_sum", 5, "comm", (1.1 + 0.2j, 0.7 - 0.3j, 0.5 + 0.1j, 0.2j))
        nf, values = workloads.words_item(item)
        p = workloads.Pass("words", 0)
        workloads.words_check(p, item, (nf, values))
        self.assertEqual((p.ops_failed, p.correct), (0, True), p.problems)
        p = workloads.Pass("words", 0)
        wrong = NormalForm(dict(nf.coeffs) | {(5, 0): 2})
        workloads.words_check(p, item, (wrong, values))
        self.assertEqual((p.ops_failed, p.correct), (1, False))

    def test_gjw_factorisation(self):
        # y x y: board (1), Weyl normal form x y^2 + y, file x y^2 + y^2
        self.assertIsNone(workloads.gjw_mismatch("yxy", "weyl", {(1, 2): 1, (0, 1): 1}))
        self.assertIsNone(workloads.gjw_mismatch("yxy", "file", {(1, 2): 1, (0, 2): 1}))
        self.assertIsNotNone(workloads.gjw_mismatch("yxy", "weyl", {(1, 2): 1, (0, 1): 2}))
        self.assertIsNotNone(workloads.gjw_mismatch("yxy", "file", {(1, 2): 1}))
        self.assertIsNotNone(workloads.gjw_mismatch("yxy", "weyl", {(1, 2): 1, (0, 2): 1}))

    def test_numeric_comparisons(self):
        tolerances = workloads.numeric_tolerances()
        item = workloads.numeric_plan(3, 1)[0]
        output = workloads.numeric_item(item)
        p = workloads.Pass("numeric", 0)
        workloads.numeric_check(p, item, output, tolerances)
        baseline = p.ops_failed
        self.assertEqual(p.ops, len(output))

        kind, label, lhs, rhs = next(c for c in output if c[0] == "binom" and c[3] is not None)
        for wrong in ((kind, label, lhs * (1 + 1e-5), rhs),
                      (kind, label, ArithmeticError("near pole"), rhs),
                      (kind, label, complex("nan"), rhs),
                      ("pincherle", "1,0", 1e-3, None)):
            p = workloads.Pass("numeric", 0)
            workloads.numeric_check(p, item, output + [wrong], tolerances)
            self.assertEqual(p.ops_failed, baseline + 1, wrong)
            self.assertTrue(p.correct)


class Reporting(unittest.TestCase):
    def test_tail_percentile_keeps_ten_items_beyond(self):
        self.assertEqual(run.tail_percentile(1520), 99.0)
        self.assertEqual(run.tail_percentile(480), 95.0)
        self.assertEqual(run.tail_percentile(36), 50.0)
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50.0), 50)
        self.assertEqual(run.percentile(values, 90.0), 90)

    def test_result_line_has_every_metric_of_the_spec(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, workload, key in ((0, "numeric", "end_to_end"), (1, "words", "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, cwd=HERE.parent)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[key]])
            for metric in spec[key]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_traced_pass_reports_every_layer(self):
        code = (
            "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import workloads, tracer\n"
            "t = tracer.Tracer(); t.install()\n"
            "out = {}\n"
            "for w, n in (('registry', 2), ('words', 3), ('numeric', 1)):\n"
            "    p = workloads.run_pass(w, 5, t, size=n)\n"
            "    assert p.correct, p.problems\n"
            "print(json.dumps(t.layer_metrics()['metrics']))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(SRC)],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.splitlines()[-1])
        for layer in ("special_fn", "weightpoly", "ncword", "boards", "skewpoly", "verify", "cli"):
            self.assertGreater(metrics[f"{layer}.self_s"], 0.0, layer)
        for name in ("special_fn.theta_calls", "weightpoly.ops", "ncword.normal_order_calls",
                     "boards.poly_calls", "skewpoly.calls"):
            self.assertGreater(metrics[name], 0, name)
        self.assertTrue(0.0 < metrics["special_fn.theta_reuse"] < 1.0)


if __name__ == "__main__":
    unittest.main()
