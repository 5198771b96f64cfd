"""Record alternating benchmark pairs of two trees in a ``BENCH_<n>.json``.

    python3 tools/benchpairs.py --base TREE --pairs 10 --seconds 25 --seeds 31..40 --workload normalize

For each workload and pair it runs ``TREE/bench/run.py`` and this tree's
``bench/run.py`` as subprocesses, one after the other, the base first in
even pairs and the change first in odd ones.  Pair ``i`` uses the
``i``-th seed of ``A..B``, cycling when there are fewer seeds than pairs.
It reads each run's last line (one JSON object with ``correct`` and the
end-to-end metrics) and the ``rounds:`` line, and writes the record to
``--out``, by default ``BENCH_<n>.json`` at this tree's root with ``n``
one past the highest there.  The record holds both trees' SHAs (a tree
that is not a git checkout, such as a ``git archive`` copy, is named by
``--base-sha`` or ``--change-sha``), the Python version, ``nproc``, the
seeds, every run and, per workload and metric of ``BENCHMARK.json``'s
``end_to_end``:

* both sides' medians and quartiles;
* ``change_better``: the pairs in which the change reads better, ties
  counting for neither side;
* ``base_iqr_share``: the base's interquartile spread over its median;
* ``beyond_spread``: the medians differ by more than the base's spread;
* ``gain``: the change wins at least nine pairs in ten and its median is
  better by more than the base's spread;
* ``worse_past_bound``: the change's median is worse than the base's by
  more than the metric's bound, as a share of the base median;
* ``unresolved``: the base's spread is wider than the bound and not every
  change run reads better than every base run.

It also holds both trees' ``src/graypol`` line counts, per file and in
total: all lines, and code lines, those that are not blank, not a comment
and not in a docstring.

A run that fails or reports ``correct: false`` fails the record: it is
listed under ``failures``, and the tool exits 1 after writing it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("normalize", "sweep", "pipeline")


def parse_run(stdout: str) -> dict:
    """A run's JSON result line, with the ``rounds`` its report printed."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    rounds = [int(m.group(1)) for m in map(re.compile(r"rounds: (\d+)").match, lines) if m]
    result["rounds"] = rounds[0] if rounds else None
    return result


def quartiles(values):
    """``(q1, median, q3)`` of ``values``, interpolated between data points."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, spec) -> dict:
    """Per end-to-end metric of ``spec``, the comparison of the pairs' two sides.

    ``pairs`` holds ``{"base": run, "change": run}`` items, each run as
    ``parse_run`` returns it; ``spec`` is ``BENCHMARK.json``'s
    ``end_to_end`` list.
    """
    out = {}
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        spread = bq[2] - bq[0]
        gained = sign * (cq[1] - bq[1])
        better = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        separated = all(sign * (c - b) > 0 for b in base for c in change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": bound,
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "pairs": len(pairs),
            "change_better": better,
            "base_iqr_share": spread / bq[1] if bq[1] else None,
            "beyond_spread": abs(gained) > spread,
            "gain": better * 10 >= 9 * len(pairs) and gained > spread,
            "worse_past_bound": -gained > bound * abs(bq[1]),
            "unresolved": spread > bound * abs(bq[1]) and not separated,
        }
    return out


def workload_record(pairs, spec) -> dict:
    """A workload's part of the record: its pairs, one message per run that
    did not report ``correct: true``, and, when there is none, the summary."""
    failed = [
        f"pair {i} ({side}, seed {p['seed']}): not correct"
        for i, p in enumerate(pairs)
        for side in ("base", "change")
        if not p[side].get("correct")
    ]
    entry = {"pairs": pairs, "failures": failed}
    if not failed:
        entry["metrics"] = summarize(pairs, spec)
    return entry


def tree_sha(tree: str):
    """HEAD of ``tree`` when it is the top of a git checkout, with ``+dirty``
    when its files differ from HEAD; ``None`` otherwise."""
    def git(*args):
        done = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(tree):
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def count_lines(text: str) -> dict:
    """``{"lines": n, "code": m}`` of a Python source: all its lines, and those
    that are not blank, not a comment and not in a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = text.splitlines()
    code = sum(
        1 for i, line in enumerate(lines, 1) if line.strip() and not line.lstrip().startswith("#") and i not in docs
    )
    return {"lines": len(lines), "code": code}


def line_counts(tree: str) -> dict:
    """``count_lines`` of each ``.py`` file under ``tree/src/graypol``, by path
    relative to it, and their sums under ``"total"``."""
    root = os.path.join(tree, "src", "graypol")
    files = {}
    for folder, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    files[os.path.relpath(path, root)] = count_lines(handle.read())
    total = {key: sum(c[key] for c in files.values()) for key in ("lines", "code")}
    return {"files": files, "total": total}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        run = parse_run(done.stdout)
    except ValueError as exc:
        return {"correct": False, "error": f"{exc}; exit {done.returncode}: {done.stderr[-400:]}"}
    run["correct"] = bool(run.get("correct")) and done.returncode == 0
    return run


def seed_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep or int(hi) < int(lo):
        raise argparse.ArgumentTypeError(f"expected A..B with A <= B, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def default_out() -> str:
    taken = [int(m.group(1)) for m in map(re.compile(r"BENCH_(\d+)\.json$").match, os.listdir(ROOT)) if m]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent tree, holding bench/run.py and src/")
    parser.add_argument("--base-sha", help="the commit of --base, when it is not a git checkout")
    parser.add_argument("--change-sha", help="the commit of this tree, when it is not a git checkout")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A..B")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeat for several; every workload when absent")
    parser.add_argument("--out", help="the record's path; BENCH_<n>.json at the root by default")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = os.path.abspath(args.base)
    if not os.path.isfile(os.path.join(base, "bench", "run.py")):
        parser.error(f"no bench/run.py under {base}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["end_to_end"]
    record = {
        "base_sha": args.base_sha or tree_sha(base),
        "change_sha": args.change_sha or tree_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    trees = {"base": base, "change": ROOT}
    record["lines"] = {side: line_counts(tree) for side, tree in trees.items()}
    broken = []
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            rates = {side: pair[side].get("metrics", {}).get("work_per_s", {}).get("value") for side in trees}
            print(f"{workload} pair {i} seed {seed}: work_per_s base {rates['base']} change {rates['change']}", flush=True)
        record["workloads"][workload] = entry = workload_record(pairs, spec)
        broken += [f"{workload}: {message}" for message in entry["failures"]]
    record["ok"] = not broken
    out = args.out or default_out()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    for message in broken:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
