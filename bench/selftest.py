"""Self-tests of the benchmark.

    python3 bench/selftest.py

* smoke: each workload at a tiny size, untraced and traced, must be
  correct, and the traced replay must pass its trace checks;
* determinism: each workload's counts and output digest must be equal
  under two PYTHONHASHSEED values;
* negative: a corrupted expected answer must count as a failure in
  ``error_rate`` instead of passing silently.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("normalize", "sweep", "pipeline")


def run_smoke(workload, hashseed, trace=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--smoke", "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stable = [line for line in lines if line.startswith(("counts:", "digest:"))]
    return result, stable, done.stdout


def test_smoke_and_determinism():
    for workload in WORKLOADS:
        first, stable0, out = run_smoke(workload, 0)
        assert first["correct"] and first["failed"] == 0, f"{workload}: smoke run failed\n{out}"
        second, stable1, _ = run_smoke(workload, 1)
        assert second["correct"], f"{workload}: smoke run failed under PYTHONHASHSEED=1"
        assert stable0 == stable1 and len(stable0) == 2, f"{workload}: counts or digest depend on PYTHONHASHSEED"
        traced, stable2, out = run_smoke(workload, 0, trace=1)
        assert traced["correct"], f"{workload}: traced smoke run failed\n{out}"
        assert stable2 == stable0, f"{workload}: traced run counted different work"
        assert "trace.overhead_ratio" in traced["metrics"]
        print(f"ok  smoke, traced smoke and PYTHONHASHSEED determinism: {workload}")


def _smoke_run(workload_name):
    import run
    import workloads

    workload = workloads.WORKLOADS[workload_name](run.ROOT, 7, True)
    try:
        return run.run_rounds(workload, run.Clock(), rounds=1)
    finally:
        if hasattr(workload, "close"):
            workload.close()


def test_corrupted_answers_fail():
    import expected

    corruptions = (
        ("sweep", lambda: expected.SWEEP_SMOKE["pseudomonoid"]["tally"], "Critical"),
        ("pipeline", lambda: expected.CATALOG["builtin:pseudomonoid"], "count"),
    )
    for workload, table, key in corruptions:
        clean = _smoke_run(workload)
        assert not clean.failures, f"{workload}: clean smoke run failed: {clean.failures}"
        saved = table()[key]
        table()[key] = saved + 1
        try:
            bad = _smoke_run(workload)
        finally:
            table()[key] = saved
        assert len(bad.failures) >= 1 and len(bad.failures) / bad.attempted > 0, (
            f"{workload}: a corrupted expected {key} passed silently"
        )
        print(f"ok  corrupted expected {key} counts as a failure: {workload} ({len(bad.failures)} failed)")


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    failed = 0
    for test in (test_smoke_and_determinism, test_corrupted_answers_fail):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    print("selftest:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
