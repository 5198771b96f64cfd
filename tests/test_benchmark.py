"""The benchmark's smoke rounds, as a guard on the output of every workload.

The pipeline digest covers every ``critical-pairs`` and ``report``
answer on the catalog sources and on three random presentations.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _check_smoke_digest(workload, digest):
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert f'digest: "{digest}"' in lines


def test_normalize_smoke_round_keeps_its_digest():
    _check_smoke_digest("normalize", "f238725f506c20f8")


@pytest.mark.parametrize(
    "workload, digest",
    [("sweep", "0ca51ff1048c9d5b"), ("pipeline", "7b971aeb65d06e19")],
)
def test_smoke_round_keeps_its_digest(workload, digest):
    _check_smoke_digest(workload, digest)
