"""Every name a module lists in ``__all__`` exists in that module, and
importing the package loads only the standard library and the modules
it needs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", [
    "ellcomb", "ellcomb.ncword", "ellcomb.boards", "ellcomb.skewpoly",
    "ellcomb.verify", "ellcomb.cli",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def _modules_added(code):
    # a fresh interpreter, so modules an earlier test imported do not count
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_loads_no_record_or_digest_machinery():
    # dataclasses brings inspect, ast, dis and tokenize with it; hashlib
    # and json are loaded by the one function that uses each
    added = _modules_added("import ellcomb")
    assert "ellcomb.verify" not in added
    assert not added & {"dataclasses", "inspect", "hashlib", "json"}
    added = _modules_added("from ellcomb import cli")
    assert "ellcomb.cli" in added
    assert not added & {"dataclasses", "inspect", "hashlib"}


DEFERRED = {"ellcomb.boards", "ellcomb.skewpoly", "ellcomb.verify"}


def test_deferred_modules_load_on_first_use():
    # boards, skewpoly and verify load when one of their names is first
    # read from the package, and a command-line import loads none of them
    added = _modules_added("import ellcomb")
    assert {"ellcomb.special_fn", "ellcomb.weightpoly", "ellcomb.ncword"} <= added
    assert not added & DEFERRED
    added = _modules_added("import ellcomb\nellcomb.rook_poly")
    assert "ellcomb.boards" in added and "ellcomb.verify" not in added
    added = _modules_added("import ellcomb\nellcomb.list_identities()")
    assert "ellcomb.verify" in added
    added = _modules_added("from ellcomb import cli")
    assert not added & DEFERRED


def test_each_command_loads_only_the_modules_it_runs():
    # each command through cli.main in a fresh interpreter, its output
    # kept off the module list that _modules_added reads from stdout
    commands = [
        (["theta", "--x", "0.5,0.1", "--p", "0.2"], set()),
        (["weight", "--family", "q", "--q", "0.5", "--s", "1", "--t", "2"], set()),
        (["binom", "--family", "q", "--q", "0.5,0.1", "--n", "6", "--k", "3"], set()),
        (["normal-order", "--system", "weyl", "--word", "yxyx"], set()),
        (["rook", "--board", "2,3,3", "--k", "2"], {"ellcomb.boards"}),
        (["file", "--board", "2,3,3", "--k", "2"], {"ellcomb.boards"}),
        (["fib", "--aq", "--n", "6", "--a", "0.3", "--q", "0.5"], {"ellcomb.skewpoly"}),
        (["verify", "--id", "chebyshev-weight"], DEFERRED),
    ]
    wrong = {}
    for argv, loaded in commands:
        added = _modules_added(
            "import contextlib, io\nfrom ellcomb import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
        if added & DEFERRED != loaded:
            wrong[argv[0]] = sorted(added & DEFERRED)
    assert wrong == {}


def test_star_import_and_dir_cover_all():
    out = _modules_added(
        "import ellcomb\n"
        "names = {}\n"
        "exec('from ellcomb import *', names)\n"
        "assert set(ellcomb.__all__) <= set(names), set(ellcomb.__all__) - set(names)\n"
        "assert set(ellcomb.__all__) <= set(dir(ellcomb))")
    assert DEFERRED <= out


def test_clear_caches_runs_before_any_deferred_module_loads():
    added = _modules_added("import ellcomb\nellcomb.clear_caches()")
    assert not added & DEFERRED


def test_verify_error_is_one_class():
    from ellcomb import special_fn, verify
    import ellcomb
    assert special_fn.VerifyError is verify.VerifyError is ellcomb.VerifyError
