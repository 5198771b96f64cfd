"""The differential record set of ``tools/differential.py``, pinned by its digest.

A change that alters any parse message, serialization, rendering, CLI
output, rewriting result, partial path under a small step budget, error
of an ill-fitting step, shuffle interpretation, expression typing or
zigzag reduction on the set changes the digest.  When that is
intended, compare against the previous tree with
``python3 tools/differential.py --against TREE`` and update the pin.
"""

import os

import differential

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

RECORDS = 17813
DIGEST = "7b99036178a08ff1"


def test_differential_records_are_pinned():
    lines = [differential.canonical(record) for record in differential.records()]
    assert len(lines) == RECORDS
    assert differential.digest(lines) == DIGEST


def test_differential_against_its_own_tree_finds_no_difference(capsys):
    assert differential.main(["--against", ROOT]) == 0
    assert capsys.readouterr().out == f"no difference in {RECORDS} records (digest {DIGEST})\n"
