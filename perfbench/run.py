"""ellcomb benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload registry|words|numeric \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  Each pass runs in a fresh interpreter started here, one at a
time (a closed loop with one client), so memo tables start empty and
passes never compete for the CPU.  With --trace 0 the result holds the
end-to-end metrics (medians over the passes, item percentiles over all
items), with times scaled by a host-speed probe (PROBE_REFERENCE_S);
with --trace 1 it holds the per-layer metrics of one traced pass and
the tracing overhead against an untraced pass at the same seed.  The
metric names and units are those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
DEADLINE_S = 170.0
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10

# Host-speed probe: a fixed pure-Python loop in the style of the library
# (tuple-keyed polynomial products, then theta-like complex products),
# timed inside a fresh interpreter that does not import ellcomb.  On a
# shared host the same pass can take 1.5 s or 2.6 s minutes apart, and
# the probe speeds up and slows down with it, so every time is reported
# in reference-host seconds: measured * PROBE_REFERENCE_S / probe time,
# with the probe taken right before the pass or set-up sample.
PROBE_REFERENCE_S = 0.25
_PROBE_CODE = """
import time
def work():
    base = {(((i, j), 1),): i + j for i in range(1, 8) for j in range(1, 8)}
    acc = {(): 1}
    for _ in range(3):
        out = {}
        for m1, c1 in acc.items():
            for m2, c2 in base.items():
                d = dict(m1)
                for k, e in m2:
                    d[k] = d.get(k, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, 0) + c1 * c2
        acc = out
    z = 0j
    for i in range(30000):
        x = complex(0.3 + i * 1e-6, 0.2)
        v = pj = 1.0 + 0.0j
        for _ in range(6):
            v *= (1.0 - pj * x) * (1.0 - pj * 0.2 / x)
            pj *= 0.2
        z += v
    return len(acc), z
t0 = time.perf_counter()
work()
print(time.perf_counter() - t0)
"""

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import ellcomb; print(ellcomb.__file__)")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _check_location(module_file: str) -> None:
    if Path(module_file).resolve().parent != (SRC / "ellcomb").resolve():
        raise BenchError(f"ellcomb imported from {module_file}, not from {SRC}")


# ---------------------------------------------------------------------------
# pass (child process)


def run_child(workload: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import ellcomb
    import workloads
    _check_location(ellcomb.__file__)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = workloads.run_pass(workload, seed, tracer)
    result = {
        "wall_s": run.wall_s, "cpu_s": run.cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_ms": run.items_ms, "ops": run.ops, "ops_failed": run.ops_failed,
        "correct": run.correct, "problems": run.problems, "digest": run.digest,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        metrics = layers["metrics"]
        for check in ellcomb.list_identities():
            metrics[f"verify.{check.id}.s"] = layers["check_s"].get(check.id, 0.0)
            metrics[f"verify.{check.id}.max_rel_err"] = run.max_rel_err.get(check.id, 0.0)
        result["layers"] = metrics
        result["spans"] = layers["spans"]
        tracer.write(OUT / f"trace-{workload}", dict(environment(), workload=workload,
                                                     pass_seed=seed))
    return result


# ---------------------------------------------------------------------------
# run (parent process)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def _spawn(argv: list, deadline: Deadline) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=deadline.remaining())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:4]} did not finish in time") from None


def measure_setup(deadline: Deadline) -> float:
    """Fresh interpreter until ``import ellcomb`` returns, registry built."""
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, "-c", _SETUP_CODE, str(SRC)], deadline)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import ellcomb failed: {proc.stderr.strip()[-500:]}")
    _check_location(proc.stdout.strip())
    return elapsed


def measure_probe(deadline: Deadline) -> float:
    proc = _spawn([sys.executable, "-c", _PROBE_CODE], deadline)
    if proc.returncode != 0:
        raise BenchError(f"speed probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def run_pass(workload: str, seed: int, trace: bool, deadline: Deadline) -> dict:
    proc = _spawn([sys.executable, str(Path(__file__).resolve()), "--pass", workload,
                   "--seed", str(seed), "--trace", "1" if trace else "0"], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass {seed} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least MIN_BEYOND items above it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= MIN_BEYOND:
            best = p
    return best


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    """What a run depends on besides the seed: interpreter, code, host."""
    sources = hashlib.sha1()
    for path in sorted((SRC / "ellcomb").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "commit": _git_commit(),
        "source_sha1": sources.hexdigest()[:12],
        "nproc": os.cpu_count(),
    }


def pass_count(workload: str, seconds: int) -> int:
    import workloads
    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Return (metrics dict name -> value, attempted, failed, correct, notes)."""
    deadline = Deadline(DEADLINE_S)
    passes = pass_count(workload, seconds)
    seeds = [seed * passes + i for i in range(passes)]
    notes = [f"pass_seeds={seeds[0]}..{seeds[-1]} passes={passes}"]
    if trace:
        plain = run_pass(workload, seeds[0], False, deadline)
        traced = run_pass(workload, seeds[0], True, deadline)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        notes.append(f"traced pass seed {seeds[0]}: {traced['spans']} spans, "
                     f"wall {traced['wall_s']:.3f} s traced vs {plain['wall_s']:.3f} s untraced")
        runs = [plain, traced]
        if plain["digest"] != traced["digest"]:
            raise BenchError("traced and untraced passes produced different outputs")
        attempted, failed = traced["ops"], traced["ops_failed"]
    else:
        # a probe, then a set-up sample, then a pass; each sample is
        # scaled by the probe taken right before it
        setup, scale, runs = [], [], []
        for s in seeds:
            scale.append(PROBE_REFERENCE_S / measure_probe(deadline))
            setup.append(measure_setup(deadline))
            runs.append(run_pass(workload, s, False, deadline))
        while len(setup) < SETUP_SAMPLES:
            scale.append(PROBE_REFERENCE_S / measure_probe(deadline))
            setup.append(measure_setup(deadline))
        n_items = sum(len(r["items_ms"]) for r in runs)
        tail = tail_percentile(n_items)

        def times(factors) -> dict:
            items = sorted(ms * f for r, f in zip(runs, factors) for ms in r["items_ms"])
            return {
                "setup_s": statistics.median(v * f for v, f in zip(setup, factors)),
                "wall_s": statistics.median(r["wall_s"] * f for r, f in zip(runs, factors)),
                "cpu_s": statistics.median(r["cpu_s"] * f for r, f in zip(runs, factors)),
                "item_p50_ms": percentile(items, 50.0),
                "item_tail_ms": percentile(items, tail),
            }

        metrics = times(scale)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
        notes.append("measured (unscaled): "
                     + " ".join(f"{k}={v:.6g}" for k, v in times([1.0] * len(scale)).items()))
        notes.append("probe_s: " + " ".join(f"{PROBE_REFERENCE_S / f:.4f}" for f in scale))
        notes.append("pass wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
        notes.append(f"setup_s median of {len(setup)} fresh interpreters; "
                     f"wall_s, cpu_s, peak_rss_mb medians of {passes} cold passes; "
                     f"times in seconds of a host where the probe takes {PROBE_REFERENCE_S} s")
        notes.append(f"item_tail_ms is p{tail:g} of {n_items} items "
                     f"({n_items - math.ceil(tail / 100 * n_items)} beyond it)")
        attempted = sum(r["ops"] for r in runs)
        failed = sum(r["ops_failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    run_digest = hashlib.sha1("".join(r["digest"] for r in runs).encode()).hexdigest()[:16]
    notes.append(f"ops={attempted} ops_failed={failed} output_digest={run_digest}")
    problems = [p for r in (runs[-1:] if trace else runs) for p in r["problems"]]
    notes.extend(f"failed op: {p}" for p in problems[:10])
    return metrics, attempted, failed, correct, notes


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--pass", dest="pass_workload", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.pass_workload:
            print(json.dumps(run_child(args.pass_workload, args.seed, bool(args.trace))))
            return 0
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics, attempted, failed, correct, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1")
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(note)
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
