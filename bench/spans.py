"""Span tracer that wraps graypol's public functions at run time.

The tracer replaces each traced function, in every ``graypol`` module
that binds it, by a wrapper that records a span: name, start, end,
parent span and operation id.  Spans are kept in memory in flat
arrays (36 bytes each) and written out by :meth:`Tracer.write`.
Per-name aggregates (calls, inclusive time, self time) and the extra
counters behind the ratio metrics are accumulated as spans close, so
the per-layer metrics need no second pass over the spans.

Self time is a span's duration minus the durations of its child spans;
the program is single-threaded, so children never overlap.  A call
made while a span of the same name is the innermost open span (direct
recursion, such as ``compose`` on 3-cells or ``certify_termination``
trying each strategy) is folded into that span and not counted again.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (layer, owner, attribute); owner "Signature" means a method of
# graypol.cells.Signature, anything else a module-level function.
SPANNED = (
    ("cells", "Signature", "compose"),
    ("cells", "Signature", "whisker0"),
    ("cells", "Signature", "step_target"),
    ("cells", "Signature", "step_source"),
    ("cells", "Signature", "interchanger_boundaries"),
    ("cells", "Signature", "check3"),
    ("cells", "graypol.cells", "slice2"),
    ("rewriting", "graypol.rewriting", "find_redexes"),
    ("rewriting", "graypol.rewriting", "classify"),
    ("rewriting", "graypol.rewriting", "enumerate_critical"),
    ("shuffle", "graypol.shuffle", "interp_edge"),
    ("termination", "graypol.termination", "certify_termination"),
    ("termination", "graypol.termination", "eval_interpretation"),
    ("termination", "graypol.termination", "cospan_of"),
    ("coherence", "graypol.coherence", "normalize2"),
    ("coherence", "graypol.coherence", "join_branching"),
    ("coherence", "graypol.coherence", "squier_completion"),
    ("presentation", "graypol.presentation", "validate"),
    ("catalog", "graypol.catalog", "get_builtin"),
    ("textio", "graypol.textio", "parse_presentation"),
    ("textio", "graypol.textio", "render_cell"),
    ("cli", "graypol.cli", "main"),
)
# Called millions of times per run; a span each would dominate the run.
COUNTED = (("cells", "Signature", "end0"),)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child = array("d")
        self._stack = []
        self.op = 0
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._patches = []

    # ---- recording -----------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx, name):
        end = perf_counter()
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child[parent] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - self._child[idx]

    # ---- installing ----------------------------------------------

    def _spanning(self, name, fn):
        nid = self._id(name)
        on_exit = _EXIT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, name)
                if on_exit is not None:
                    on_exit(tracer, args, None, exc)
                raise
            tracer._close(idx, name)
            if on_exit is not None:
                on_exit(tracer, args, result, None)
            return result

        return wrapper

    def _counting(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every traced function in every graypol module that binds it."""
        from graypol.cells import Signature

        modules = [m for n, m in list(sys.modules.items()) if n == "graypol" or n.startswith("graypol.")]
        for table, make in ((SPANNED, self._spanning), (COUNTED, self._counting)):
            for layer, owner, attr in table:
                name = f"{layer}.{attr}"
                if owner == "Signature":
                    orig = Signature.__dict__[attr]
                    self._patch(Signature, attr, orig, make(name, orig))
                    continue
                orig = getattr(sys.modules[owner], attr)
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ---- output --------------------------------------------------

    def write(self, path):
        """Write the spans: one JSON header line, then the five arrays."""
        header = {
            "fields": ["name", "parent", "op", "start", "end"],
            "types": ["i", "i", "i", "d", "d"],
            "count": len(self.span_name),
            "names": self.names,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(handle)


def read_spans(path):
    """Spans written by :meth:`Tracer.write`, as ``(name, parent, op, start, end)`` tuples."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        cols = []
        for typecode in header["types"]:
            arr = array(typecode)
            arr.fromfile(handle, header["count"])
            cols.append(arr)
    names = header["names"]
    return [(names[n], p, o, s, e) for n, p, o, s, e in zip(*cols)]


# ---- counters behind the ratio metrics ------------------------------


def _inside(tracer, name):
    nid = tracer._ids.get(name)
    return any(tracer.span_name[i] == nid for i in tracer._stack)


def _find_redexes(tracer, args, result, exc):
    tracer.counts["rows_scanned"] += len(args[1].whiskers)
    if result is not None:
        tracer.counts["redexes"] += len(result)


def _classify(tracer, args, result, exc):
    if type(result).__name__ == "Critical":
        tracer.counts["critical"] += 1
    if _inside(tracer, "rewriting.enumerate_critical"):
        tracer.counts["classify_in_enumeration"] += 1


def _enumerate_critical(tracer, args, result, exc):
    if result is not None:
        tracer.counts["criticals_kept"] += len(result)


def _certify_termination(tracer, args, result, exc):
    if type(exc).__name__ == "TerminationRefused":
        tracer.counts["refusals"] += 1


def _normalize2(tracer, args, result, exc):
    if result is not None:
        steps = len(result[1].steps)
    elif type(exc).__name__ == "NonTermination":
        tracer.counts["budget_exhausted"] += 1
        steps = len(exc.partial.steps)
    else:
        return
    tracer.counts["steps"] += steps
    if _inside(tracer, "coherence.join_branching"):
        tracer.counts["steps_in_joins"] += steps


def _parse_presentation(tracer, args, result, exc):
    tracer.counts["parsed_bytes"] += len(args[0].encode("utf-8"))


def _main(tracer, args, result, exc):
    if result is not None:
        tracer.counts[f"exit.{result}"] += 1


_EXIT_HOOKS = {
    "rewriting.find_redexes": _find_redexes,
    "rewriting.classify": _classify,
    "rewriting.enumerate_critical": _enumerate_critical,
    "termination.certify_termination": _certify_termination,
    "coherence.normalize2": _normalize2,
    "textio.parse_presentation": _parse_presentation,
    "cli.main": _main,
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, builtin_cold_s, overhead_ratio):
    """The per-layer metrics of BENCHMARK.json, as ``name: (value, unit)``."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    count, secs, ratio = "count", "s", "ratio"
    out = {
        "cells.compose.calls": (c["cells.compose"], count),
        "cells.compose.self_s": (s["cells.compose"], secs),
        "cells.whisker0.calls": (c["cells.whisker0"], count),
        "cells.end0.calls": (c["cells.end0"], count),
        "cells.step_target.calls": (c["cells.step_target"], count),
        "cells.step_target.self_s": (s["cells.step_target"], secs),
        "cells.step_source.calls": (c["cells.step_source"], count),
        "cells.slice2.calls": (c["cells.slice2"], count),
        "cells.interchanger_boundaries.calls": (c["cells.interchanger_boundaries"], count),
        "cells.check3.self_s": (s["cells.check3"], secs),
        "rewriting.find_redexes.calls": (c["rewriting.find_redexes"], count),
        "rewriting.find_redexes.self_s": (s["rewriting.find_redexes"], secs),
        "rewriting.find_redexes.rows_scanned": (n["rows_scanned"], count),
        "rewriting.redex_yield": (_ratio(n["steps"], n["redexes"]), ratio),
        "rewriting.classify.calls": (c["rewriting.classify"], count),
        "rewriting.classify.self_s": (s["rewriting.classify"], secs),
        "rewriting.classify.critical_share": (_ratio(n["critical"], c["rewriting.classify"]), ratio),
        "rewriting.enumerate_critical.calls": (c["rewriting.enumerate_critical"], count),
        "rewriting.enumerate_critical.self_s": (s["rewriting.enumerate_critical"], secs),
        "rewriting.enumerate_critical.yield": (
            _ratio(n["criticals_kept"], n["classify_in_enumeration"]),
            ratio,
        ),
        "shuffle.interp_edge.calls": (c["shuffle.interp_edge"], count),
        "shuffle.interp_edge.self_s": (s["shuffle.interp_edge"], secs),
        "termination.certify_termination.calls": (c["termination.certify_termination"], count),
        "termination.certify_termination.self_s": (s["termination.certify_termination"], secs),
        "termination.refusals": (n["refusals"], count),
        "termination.eval_interpretation.calls": (c["termination.eval_interpretation"], count),
        "termination.cospan_of.calls": (c["termination.cospan_of"], count),
        "coherence.normalize2.calls": (c["coherence.normalize2"], count),
        "coherence.normalize2.self_s": (s["coherence.normalize2"], secs),
        "coherence.normalize2.steps": (n["steps"], count),
        "coherence.normalize2.budget_exhausted": (n["budget_exhausted"], count),
        "coherence.join_branching.calls": (c["coherence.join_branching"], count),
        "coherence.join_branching.self_s": (s["coherence.join_branching"], secs),
        "coherence.steps_per_join": (_ratio(n["steps_in_joins"], c["coherence.join_branching"]), ratio),
        "coherence.squier_completion.self_s": (s["coherence.squier_completion"], secs),
        "presentation.validate.calls": (c["presentation.validate"], count),
        "presentation.validate.self_s": (s["presentation.validate"], secs),
        "catalog.get_builtin.cold_s": (builtin_cold_s, secs),
        "textio.parse_presentation.self_s": (s["textio.parse_presentation"], secs),
        "textio.parse_presentation.bytes_per_s": (
            _ratio(n["parsed_bytes"], tracer.total_s["textio.parse_presentation"]),
            "B/s",
        ),
        "textio.render_cell.calls": (c["textio.render_cell"], count),
        "textio.render_cell.self_s": (s["textio.render_cell"], secs),
        "cli.main.calls": (c["cli.main"], count),
        "cli.main.self_s": (s["cli.main"], secs),
        "cli.exit.0": (n["exit.0"], count),
        "cli.exit.1": (n["exit.1"], count),
        "cli.exit.2": (n["exit.2"], count),
        "trace.overhead_ratio": (overhead_ratio, ratio),
    }
    return out
