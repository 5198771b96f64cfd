"""The differential record set of ``tools/differential.py``, pinned by its digest.

A change that alters any parse message, serialization, rendering, CLI
output or rewriting result on the set changes the digest.  When that is
intended, compare against the previous tree with
``python3 tools/differential.py --against TREE`` and update the pin.
"""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("differential", os.path.join(ROOT, "tools", "differential.py"))
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)

RECORDS = 4228
DIGEST = "d7ee850bdda68c17"


def test_differential_records_are_pinned():
    lines = [differential.canonical(record) for record in differential.records()]
    assert len(lines) == RECORDS
    assert differential.digest(lines) == DIGEST


def test_differential_against_its_own_tree_finds_no_difference(capsys):
    assert differential.main(["--against", ROOT]) == 0
    assert capsys.readouterr().out == f"no difference in {RECORDS} records (digest {DIGEST})\n"
