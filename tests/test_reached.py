"""Every library function runs under a command, a check or a bench pass.

The drivers are what the system does: the command line in process, each
subcommand and family in text and JSON, every registered check at order
2 through ``verify --order 2``, and one small pass of each benchmark
workload (``perfbench/workloads.run_pass(w, 0, size=2)``).  They run in
a fresh interpreter under a ``sys.setprofile`` hook, installed before
``import ellcomb``, so import-time code, the memo tables and the
command line's parser all start cold.  A function or method defined in
``src/ellcomb`` that no driver calls, and that ``ALLOWED`` does not name
with its reason, is code the system never runs: give it a user, move it
to the tests as an oracle (``oracles.py``), or delete it.

Run as a script, this file prints the unreached names as JSON.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "ellcomb"

# what no driver reaches and the library still keeps, with the reason
ALLOWED = {
    "special_fn.WeightFamily.small": "abstract: every family overrides it",
    "special_fn.WeightFamily._zero": "edge path: binom at k outside 0..n",
    "special_fn.GenericWeights._zero": "edge path: binom at k outside 0..n",
    "weightpoly.WeightPolynomial.zero": "edge path: the symbolic _zero and a product by 0",
    "special_fn.PoleError.__init__": "exception constructor; no driver meets an exact pole",
    "ncword.WordParseError.__init__": "exception constructor; the drivers parse valid words",
    "verify.run_all": "README documents it as the whole-registry call",
    "ellcomb.clear_caches": "README documents it; each driver here starts cold instead",
    "ellcomb.__dir__": "Python protocol method of the package (PEP 562)",
    "weightpoly.WeightPolynomial.__init__": "public constructor from the tuple form",
    "weightpoly._encode": "the public constructor's encoder; the library builds by _poly",
    "weightpoly._exact_top": "overflow path: a product bound that leaves its byte field",
    "weightpoly.WeightPolynomial.monomials": "the decoded form that __hash__ hashes",
    "weightpoly.WeightPolynomial.to_json": "the byte reference of json_chunks",
    "ncword.NormalForm.to_json": "the byte reference of json_chunks",
    **{f"{cls}.{method}": "Python protocol method"
       for cls in ("weightpoly.WeightPolynomial", "ncword.NormalForm")
       for method in ("__hash__", "__repr__", "__str__")},
    "weightpoly.WeightPolynomial.__bool__": "Python protocol method",
    "weightpoly.WeightPolynomial.__neg__": "ring operation; the ring-axiom test subtracts",
    "weightpoly.WeightPolynomial.__sub__": "ring operation; the ring-axiom test subtracts",
}

COMMANDS = [
    ["theta", "--x", "0.5,0", "--p", "0.1,0"],
    ["theta", "--x", "0.5,0.2", "--p", "0", "--json"],
    ["weight", "--s", "1", "--t", "2", "--big"],
    ["weight", "--s", "2", "--t", "1", "--family", "elliptic", "--a", "1.1,0.2",
     "--b", "0.4", "--q", "0.5,0.1", "--p", "0.2", "--json"],
    ["weight", "--s", "2", "--t", "3", "--family", "aq", "--a", "0.3", "--q", "0.5", "--big"],
    ["binom", "--family", "generic", "--n", "4", "--k", "2"],
    ["binom", "--family", "generic", "--n", "4", "--k", "2", "--json"],
    ["binom", "--family", "q", "--q", "0.5,0.1", "--n", "6", "--k", "3"],
    ["binom", "--family", "bq", "--b", "0.4,0.1", "--q", "0.5,0.1", "--n", "6", "--k", "3",
     "--json"],
    ["binom", "--family", "aq", "--a", "0.3", "--q", "0.5", "--n", "6", "--k", "3"],
    ["binom", "--family", "elliptic", "--a", "1.1,0.2", "--b", "0.4", "--q", "0.5,0.1",
     "--p", "0.2", "--n", "6", "--k", "3"],
    ["normal-order", "--system", "weyl", "--word", "yxyx"],
    ["normal-order", "--system", "file", "--word", "yxyx", "--json"],
    ["normal-order", "--system", "comm", "--word", "xyyx", "--family", "q", "--q", "0.5"],
    ["normal-order", "--system", "weyl", "--word", "yyxx", "--family", "elliptic",
     "--a", "1.1,0.2", "--b", "0.4", "--q", "0.5,0.1", "--p", "0.2", "--json"],
    ["rook", "--board", "1,2,2", "--k", "2"],
    ["file", "--board", "0,2,3", "--k", "2", "--json"],
    ["rook", "--board", "1,2,3", "--k", "2", "--family", "elliptic", "--a", "1.1,0.2",
     "--b", "0.4", "--q", "0.5,0.1", "--p", "0.2", "--json"],
    ["fib", "--elliptic", "--n", "6", "--a", "1.1,0.2", "--b", "0.4", "--q", "0.5,0.1",
     "--p", "0.2"],
    ["fib", "--aq", "--n", "6", "--a", "0.3", "--q", "0.5", "--json"],
    ["fib", "--aq", "--n", "6", "--a", "0.3", "--q", "0.5", "--closed"],
    ["verify", "--order", "2", "--stats"],
    ["verify", "--id", "rook-product", "--order", "2", "--json"],
]

WORKLOADS = ("registry", "words", "numeric")


def _code(value):
    """The code object of a function, method, property getter or cached
    function defined in the package, else None."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    value = getattr(value, "__wrapped__", value)
    code = getattr(value, "__code__", None)
    if code is None or not code.co_filename.startswith(str(PACKAGE)):
        return None
    return code


def library_functions(modules) -> dict:
    """{module.name or module.Class.name: code} over every function and
    every method of a class that the package's modules define."""
    found = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    code = _code(value)
                    if code is not None:
                        found[f"{short}.{name}.{attr}"] = code
            else:
                code = _code(obj)
                if code is not None:
                    found[f"{short}.{name}"] = code
    return found


def trace() -> list:
    """Run every driver under the hook; the sorted names never called."""
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    sys.setprofile(hook)
    try:
        from ellcomb import cli
        import workloads
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1), (argv, code)
        for workload in WORKLOADS:
            workloads.run_pass(workload, 0, size=2)
    finally:
        sys.setprofile(None)
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "ellcomb" or name.startswith("ellcomb.")]
    return sorted(name for name, code in library_functions(modules).items()
                  if code not in reached)


def test_every_library_function_is_reached_or_allowed():
    started = time.perf_counter()
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         cwd=ROOT, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    seconds = time.perf_counter() - started
    assert out.returncode == 0, out.stderr
    unreached = json.loads(out.stdout)
    unexplained = [name for name in unreached if name not in ALLOWED]
    assert not unexplained, f"no command, check or bench pass runs {unexplained}"
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"allowed but reached or gone, so drop them from ALLOWED: {stale}"
    assert seconds < 5.0, seconds


if __name__ == "__main__":
    print(json.dumps(trace()))
