"""The benchmark's smoke rounds, as a guard on the output of every workload.

The pipeline digest covers every ``critical-pairs`` and ``report``
answer on the catalog sources and on three random presentations.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_traced_names_resolve(monkeypatch):
    # the tracer wraps functions by name; a removed or renamed one fails
    # here by name, without running a traced round
    from graypol.cells import Signature

    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import spans

    for layer, owner, attr in spans.SPANNED + spans.COUNTED:
        if owner == "Signature":
            assert attr in Signature.__dict__, f"{layer}: Signature.{attr}"
        else:
            assert owner.startswith("graypol"), f"{layer}: {owner}"
            assert callable(getattr(importlib.import_module(owner), attr, None)), f"{layer}: {owner}.{attr}"


def _check_smoke_digest(workload, digest, *flags):
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke", *flags, "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert f'digest: "{digest}"' in lines
    return lines


def test_normalize_smoke_round_keeps_its_digest():
    _check_smoke_digest("normalize", "f238725f506c20f8")


@pytest.mark.parametrize(
    "workload, digest",
    [("sweep", "0ca51ff1048c9d5b"), ("pipeline", "7b971aeb65d06e19")],
)
def test_smoke_round_keeps_its_digest(workload, digest):
    _check_smoke_digest(workload, digest)


@pytest.mark.parametrize(
    "workload, digest",
    [("normalize", "f238725f506c20f8"), ("sweep", "0ca51ff1048c9d5b"), ("pipeline", "7b971aeb65d06e19")],
)
def test_traced_smoke_round_keeps_its_digest(workload, digest):
    # the traced replay wraps the layers by name, so a renamed layer fails here
    lines = _check_smoke_digest(workload, digest, "--trace", "1")
    checks = json.loads(next(line for line in lines if line.startswith("checks: "))[len("checks: "):])
    assert checks["traced_digest_equal"] is True
    if workload == "normalize":
        # normalize2 scans once per step plus once per cell; a kernel change must keep that
        assert checks["find_redexes_calls_eq_steps_plus_cells"] is True
