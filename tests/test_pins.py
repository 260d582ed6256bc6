"""Every byte pin of the command line, from one table: ``pins.json``.

Each group of the table gives the reason its outputs are pinned, the
form that is hashed and its ``[argv, sha1]`` entries.  The form is
``stdout``, the bytes the command prints, or ``report``, the ``verify
--json`` document with ``elapsed_ms`` removed from each report, so a
change that only makes a check faster leaves its pin as it was.  Each
entry runs in process through ``cli.main`` after ``clear_caches()``, so
it starts as cold as a fresh interpreter would.  A pin changes only
with a reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ellcomb import clear_caches, cli

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())


class _Sha1Stdout:
    """A stdout that hashes the text as it is written, so a document of
    tens of megabytes is never held whole."""

    def __init__(self):
        self.sha1 = hashlib.sha1()

    def write(self, text):
        self.sha1.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _report_sha1(text):
    doc = json.loads(text)
    for report in doc if isinstance(doc, list) else [doc]:
        report.pop("elapsed_ms")
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("hashed, argv, sha1", [
    pytest.param(group["hashed"], argv, sha1, id="_".join(argv))
    for group in PINS.values() for argv, sha1 in group["pins"]])
def test_pin_keeps_its_bytes(hashed, argv, sha1):
    clear_caches()
    out = _Sha1Stdout() if hashed == "stdout" else io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if hashed == "stdout":
        assert code == 0
        assert out.sha1.hexdigest() == sha1
    else:
        # verify exits 1 for a pinned failing check
        assert code in (0, 1)
        assert _report_sha1(out.getvalue()) == sha1
