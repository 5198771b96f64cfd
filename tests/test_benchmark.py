"""The benchmark's normalize smoke round, as a guard on normalization output."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_normalize_smoke_round_keeps_its_digest():
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke", "--workload", "normalize"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert 'digest: "f238725f506c20f8"' in lines
