"""graypol benchmark: one workload per process, or all three in turn.

    python3 bench/run.py --workload normalize --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                # every workload, one process each

The benchmark imports graypol from ``src/`` of the checkout it sits in.
It prints the environment, every metric with its unit and sample count,
the deterministic counts and an output digest, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("normalize", "sweep", "pipeline")
SETUP_PROBES = 11
# Time from a fresh interpreter to five built builtins: import plus the
# cold build, which runs the completion of each builtin.
PROBE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from graypol.catalog import BUILTIN_NAMES, get_builtin
for name in BUILTIN_NAMES:
    get_builtin(name)
print(time.perf_counter() - t)
"""


@dataclass
class Result:
    inp: object
    out: object
    error: str
    start: float
    raw: float
    seconds: float = 0.0  # ``raw`` in reference seconds, see Clock


class Clock:
    """Converts measured seconds into reference seconds.

    The host's CPU speed drifts by 10-25 % over seconds to minutes, which
    would swamp the differences the benchmark is meant to show.  So the
    clock times a fixed reference loop between ops, at most every
    ``EVERY_S`` seconds.  The loop builds tuples and looks them up in a
    dict with the collector off, which is what graypol's inner loops do;
    one tick is the median of ``LOOPS`` loops, since a single loop of a
    millisecond jitters.  An op's time is scaled by ``REF_S`` over the
    median tick within ``WINDOW_S`` of the op.  A 10-second run of fixed
    sweep work varied by 15 % between runs in measured seconds, and by
    1 % in reference seconds.
    """

    REF_S = 1e-3
    EVERY_S = 0.1
    LOOPS = 5
    WINDOW_S = 0.5
    _TABLE = {("a", i): i for i in range(64)}

    def __init__(self):
        self.stamps, self.loops, self.last = [], [], float("-inf")

    def _loop(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            acc = ()
            for i in range(2000):
                key = ("a", i & 63)
                acc = (key, self._TABLE[key], acc[:2] + (i,))
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def tick(self):
        now = perf_counter()
        if now - self.last >= self.EVERY_S:
            self.loops.append(statistics.median(self._loop() for _ in range(self.LOOPS)))
            self.stamps.append(now)
            self.last = perf_counter()

    def factor(self, start, end):
        lo = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + self.WINDOW_S)
        return self.REF_S / statistics.median(self.loops[lo:hi] or self.loops[-3:])


@dataclass
class Run:
    """What a run keeps of its rounds once each round has been checked."""

    rounds: int = 0
    attempted: int = 0
    seconds: list = field(default_factory=list)
    work: int = 0
    latency: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)

    def absorb(self, workload, results, check):
        self.rounds += 1
        self.attempted += len(results)
        self.seconds.extend(r.seconds for r in results)
        klass = getattr(workload, "klass", lambda inp: workload.name)
        for r in results:
            work = workload.work(r.out) if not r.error else 0
            self.work += work
            self.latency.setdefault(klass(r.inp), []).append(r.seconds / max(work, 1))
        self.failures.extend(f"exception: {r.error.strip().splitlines()[-1]}" for r in results if r.error)
        if check:
            try:
                failures, checks = workload.check(results)
            except Exception:
                failures, checks = [f"check raised: {traceback.format_exc(limit=-3)}"], 1
            self.attempted += checks
            self.failures.extend(failures)
        _add_counts(self.counts, workload.counts(results))
        self.digests.append(_sha(workload.digest_items(results)))


def _add_counts(total, part):
    for key, value in part.items():
        if isinstance(value, dict):
            _add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at a tiny size, not timed")
    return parser.parse_args(argv)


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(clock):
    samples = []
    for _ in range(SETUP_PROBES):
        clock.tick()
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, SRC], capture_output=True, text=True, timeout=120, check=True
        )
        end = perf_counter()
        clock.tick()
        samples.append(float(done.stdout.strip().splitlines()[-1]) * clock.factor(start, end))
    return statistics.median(samples), samples


def run_rounds(workload, clock, seconds=None, rounds=None, tracer=None, check=True):
    """Closed loop, one client: each op starts when the previous returns.

    Runs whole rounds until ``rounds`` rounds, or until the ops have
    taken ``seconds`` measured seconds.  Each round is checked (unless
    ``check`` is false) and summarized before the next starts.
    """
    run, measured = Run(), 0.0
    while True:
        results = []
        for inp in workload.round(run.rounds):
            if tracer is not None:
                tracer.op += 1
            clock.tick()
            t0 = perf_counter()
            try:
                out, error = workload.op(inp), None
            except Exception:
                out, error = None, traceback.format_exc(limit=-3)
            results.append(Result(inp, out, error, t0, perf_counter() - t0))
            clock.tick()
        for r in results:
            r.seconds = r.raw * clock.factor(r.start, r.start + r.raw)
        measured += sum(r.raw for r in results)
        run.absorb(workload, results, check)
        if run.rounds >= rounds if rounds is not None else measured >= seconds:
            return run


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(workload, run, setup_s):
    """The end-to-end metrics; see README.md for their definitions.

    A latency sample is an op's time per work unit.  Where the workload
    sorts its inputs into classes, a sample is instead the mean over a
    class, and ``work_per_s`` follows from their geometric mean.
    """
    if hasattr(workload, "klass"):
        ms = [statistics.fmean(v) * 1e3 for v in run.latency.values()]
        rate = 1e3 / statistics.geometric_mean(ms)
    else:
        ms = [t * 1e3 for t in run.latency[workload.name]]
        rate = run.work / sum(run.seconds)
    return {
        "work_per_s": (rate, "1/s", len(run.seconds)),
        "latency_ms.p50": (statistics.median(ms), "ms", len(ms)),
        "latency_ms.p90": (percentile(ms, 90), "ms", len(ms)),
        "setup_s": (setup_s, "s", SETUP_PROBES),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


# The end-to-end metrics under the names a reader of each workload expects.
ALIASES = {
    "normalize": {"work_per_s": "steps_per_s", "latency_ms.p50": "step_ms.p50", "latency_ms.p90": "step_ms.p90"},
    "sweep": {"work_per_s": "branchings_per_s", "latency_ms.p50": "branching_ms.p50", "latency_ms.p90": "branching_ms.p90"},
    "pipeline": {
        "work_per_s": "presentations_per_s",
        "latency_ms.p50": "verdict_ms.p50",
        "latency_ms.p90": "verdict_ms.p90",
    },
}


def run_workload(args):
    clock = Clock()
    if not args.trace:
        setup_s, setup_samples = measure_setup(clock)
    import spans
    import workloads

    from graypol import catalog

    for name in catalog.BUILTIN_NAMES:
        catalog.get_builtin(name)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    try:
        if args.smoke:
            run = run_rounds(workload, clock, rounds=1)
        else:
            run = run_rounds(workload, clock, seconds=args.seconds / 3 if args.trace else args.seconds)
        report = {
            "environment": environment(args.seed),
            "rounds": run.rounds,
            "ops": len(run.seconds),
            "counts": run.counts,
            "digest": digest(run),
        }
        if args.trace:
            metrics, extra = traced(workload, run, clock, spans, workloads)
            report.update(extra)
        else:
            metrics = end_to_end(workload, run, setup_s)
            report["setup_samples_s"] = setup_samples
    finally:
        if hasattr(workload, "close"):
            workload.close()
    report["error_rate"] = len(run.failures) / run.attempted
    report["attempted"] = run.attempted
    report["failures"] = run.failures[:20]
    print_report(args.workload, report, metrics)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _sha(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def digest(run):
    """Digest of every output of the run, one round at a time."""
    return _sha(run.digests)


def traced(workload, run, clock, spans, workloads):
    """Replay the measured rounds with spans on; per-layer metrics.

    The spans cover a traced set-up and the replay.  The set-up is a
    cold build of the five builtins and ``workloads.reach_every_layer``,
    so a layer the workload bypasses reads its set-up share, not 0.

    The trace checks count in ``run``: the replay must give the same
    outputs, and in ``normalize`` every ``find_redexes`` call of the
    replay must be seen (``normalize2`` scans once per step plus once
    more).
    """
    from graypol import catalog

    tracer = spans.Tracer()
    catalog.get_builtin.cache_clear()
    tracer.install()
    try:
        for name in catalog.BUILTIN_NAMES:
            catalog.get_builtin(name)
        cold_s = tracer.total_s["catalog.get_builtin"]
        workloads.reach_every_layer(ROOT)
        setup_scans = tracer.calls["rewriting.find_redexes"]
        replay = run_rounds(workload, clock, rounds=run.rounds, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    checks = {"traced_digest_equal": digest(replay) == digest(run)}
    if workload.name == "normalize":
        scans = tracer.calls["rewriting.find_redexes"] - setup_scans
        checks["find_redexes_calls_eq_steps_plus_cells"] = scans == replay.counts["steps"] + replay.counts["cells"]
    run.attempted += len(checks)
    run.failures.extend(f"trace check failed: {name}" for name, ok in checks.items() if not ok)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}.bin")
    tracer.write(spans_path)
    untraced_s, traced_s = sum(run.seconds), sum(replay.seconds)
    extra = {
        "checks": checks,
        "spans": len(tracer.span_name),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return spans.per_layer_metrics(tracer, cold_s, traced_s / untraced_s), extra


def print_report(name, report, metrics):
    env = report["environment"]
    samples = report["ops"]
    print(f"# graypol benchmark: workload {name}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}, seed {env['seed']}")
    print(f"rounds: {report['rounds']}, ops: {samples}")
    aliases = ALIASES[name]
    for key, (value, unit, *n) in metrics.items():
        alias = f"  ({aliases[key]})" if key in aliases else ""
        print(f"  {key:45s} {value:>16.6g} {unit:8s} n={n[0] if n else samples}{alias}")
    print(f"  {'error_rate':45s} {report['error_rate']:>16.6g} ratio    n={report['attempted']}")
    for key in ("counts", "digest", "checks", "spans", "spans_file", "untraced_s", "traced_s", "setup_samples_s"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    for message in report["failures"]:
        print(f"FAILED: {message}")
    sys.stdout.flush()


def run_all(args):
    """Every workload in its own process; a table of the end-to-end metrics."""
    rows, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = 1
            continue
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
        status |= 0 if rows[name]["correct"] else 1
    print(json.dumps(rows))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graypol", "__init__.py")):
        print(f"error: no graypol package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
