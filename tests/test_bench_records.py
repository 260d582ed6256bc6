"""Committed benchmark records (BENCH_<n>.json at the repository root).

Each record holds the result lines of perfbench runs on a parent commit
and on the change after it, each run tagged with its side and the
commit it measured.  Every workload it names is declared in
BENCHMARK.json, every metric is a declared end-to-end metric, and each
workload has runs on both sides.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_name_declared_workloads_and_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        for key in ("parent_commit", "change_commit", "python", "nproc"):
            assert record[key], (path.name, key)
        assert record["runs"], path.name
        sides: dict = {}
        for run in record["runs"]:
            assert run["workload"] in workloads, (path.name, run["workload"])
            assert isinstance(run["seed"], int), path.name
            assert run["side"] in ("parent", "change"), (path.name, run["side"])
            assert run["commit"] == record[run["side"] + "_commit"], path.name
            named = set(run["result"]["metrics"])
            assert named and named <= metrics, (path.name, named - metrics)
            sides.setdefault(run["workload"], set()).add(run["side"])
        for workload, seen in sides.items():
            assert seen == {"parent", "change"}, (path.name, workload, seen)
