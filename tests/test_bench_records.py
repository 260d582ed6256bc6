"""Committed benchmark records (BENCH_<n>.json at the repository root).

Each record holds the result lines of perfbench runs on a parent commit
and on the change after it, each run tagged with its side and the
commit it measured.  Every workload it names is declared in
BENCHMARK.json, every metric is a declared end-to-end metric, and each
workload has runs on both sides.  A record's ``claim`` names a workload,
a metric, the better direction and the seeds at which the change beats
its parent; it is recomputed here from the record's own runs.
"""

import json
import statistics
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


def test_bench_claims_hold_in_their_own_runs():
    # at every claimed seed the change's median is better than the
    # parent's, and the change wins at least 9 of every 10 pairs
    claimed = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        claim = record.get("claim")
        if not claim:
            continue
        sign = 1 if claim["better"] == "lower" else -1
        for seed in claim["seeds"]:
            pairs: dict = {}
            for run in record["runs"]:
                if run["workload"] == claim["workload"] and run["seed"] == seed:
                    value = run["result"]["metrics"][claim["metric"]]["value"]
                    pairs.setdefault(run["pair"], {})[run["side"]] = sign * value
            assert len(pairs) >= 10, (path.name, seed, len(pairs))
            assert all(len(sides) == 2 for sides in pairs.values()), (path.name, seed)
            parent = statistics.median(sides["parent"] for sides in pairs.values())
            change = statistics.median(sides["change"] for sides in pairs.values())
            assert change < parent, (path.name, seed, parent, change)
            won = sum(sides["change"] < sides["parent"] for sides in pairs.values())
            assert 10 * won >= 9 * len(pairs), (path.name, seed, won, len(pairs))
            claimed += 1
    assert claimed
