"""Command-line front end.

Subcommands: ``critical-pairs``, ``check-termination``, ``normalize``,
``report``, ``render``, ``validate``.  Presentations are addressed as
``builtin:NAME`` or a file path.  Exit status: 0 on success, 1 on an
analysis refusal (termination refused, branching not joinable,
unsupported analysis), 2 on usage or parse errors and on files that
cannot be read or are not UTF-8 text.  An ``InternalError`` is a
defect of graypol and propagates.

A command imports the engine module it runs when it runs:
``critical-pairs`` loads ``rewriting``, ``normalize`` and ``report``
load ``coherence``, and the other commands load neither, so each
process starts with only the modules its command needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import BUILTIN_NAMES, get_builtin
from .cells import CellError, dim, length
from .presentation import validate
from .termination import STRATEGIES, TerminationRefused, certify_termination
from .textio import RENDER_FORMATS, ParseError, parse_cell, parse_presentation, render_cell, render_step

USAGE_ERROR = 2
REFUSAL = 1


class UsageError(Exception):
    pass


def _positive_budget(value, origin: str) -> int:
    """``value`` as a step budget; ``UsageError`` naming ``origin`` unless a positive integer."""
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise UsageError(f"{origin} must be a positive integer, got {value!r}")
    return budget


def _load(source: str):
    """Presentation plus catalog interpretation for ``builtin:NAME`` or a file."""
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        try:
            entry = get_builtin(name)
        except KeyError as exc:
            if name in BUILTIN_NAMES:
                raise
            raise UsageError(exc.args[0]) from None
        return entry.presentation, entry.interpretation
    with open(source, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_presentation(text), None


def _emit(args, payload_json, payload_text: str):
    text = json.dumps(payload_json, indent=2, ensure_ascii=False) if args.format == "json" else payload_text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_critical_pairs(args) -> int:
    from .rewriting import Branching, CriticalBranching, branching_key, enumerate_critical, key_json

    pres, _ = _load(args.source)
    branchings = enumerate_critical(pres)
    rows = []
    for cb in branchings:
        items = [cb]
        if args.include_symmetric:
            swapped = Branching(cb.branching.s2, cb.branching.s1)
            items.append(CriticalBranching(swapped, branching_key(swapped)))
        for item in items:
            rows.append(
                {
                    "key": key_json(item.key),
                    "class": "critical",
                    "source": render_cell(pres.sig, pres.sig.step_source(item.branching.s1)),
                    "s1": render_step(pres.sig, item.branching.s1),
                    "s2": render_step(pres.sig, item.branching.s2),
                }
            )
    lines = [f"critical branchings: {len(rows)}"]
    for row in rows:
        lines.append(f"- {row['key']}")
        lines.append(f"    source: {row['source']}")
        lines.append(f"    s1: {row['s1']}")
        lines.append(f"    s2: {row['s2']}")
    _emit(args, {"count": len(rows), "branchings": rows}, "\n".join(lines))
    return 0


def _cmd_check_termination(args) -> int:
    pres, interp = _load(args.source)
    try:
        cert = certify_termination(pres, args.strategy, interp)
    except TerminationRefused as exc:
        _emit(args, {"certified": False, "reason": str(exc)}, f"termination refused: {exc}")
        return REFUSAL
    _emit(
        args,
        {"certified": True, **cert.summary()},
        f"termination certified via {cert.strategy} (scope: {cert.scope})\n"
        + "\n".join(f"  assumption: {a}" for a in cert.assumptions),
    )
    return 0


def _cmd_normalize(args) -> int:
    from .coherence import DEFAULT_MAX_STEPS, normalize2

    pres, interp = _load(args.source)
    if not args.cell:
        raise UsageError("normalize needs --cell")
    cell = parse_cell(pres.sig, args.cell, pres.qmode)
    if dim(cell) != 2:
        raise UsageError(f"normalize needs a 2-cell, got a {dim(cell)}-cell")
    try:
        cert = certify_termination(pres, None, interp)
    except TerminationRefused:
        cert = None
    # without a certificate normalize2 needs an explicit budget
    nf, path = normalize2(pres, cell, cert, args.max_steps or DEFAULT_MAX_STEPS)
    rendered = render_cell(pres.sig, nf)
    _emit(
        args,
        {"normal_form": rendered, "path_length": length(path), "certified": cert is not None},
        f"normal form: {rendered}\npath length: {length(path)}",
    )
    return 0


def _cmd_report(args) -> int:
    from .coherence import squier_completion

    pres, interp = _load(args.source)
    tiles, report = squier_completion(pres, interpretation=interp, max_steps=args.max_steps)
    payload = report.summary()
    payload["new_tiles"] = [t.name for t in tiles]
    lines = [f"verdict: {report.verdict}"]
    if report.termination is not None:
        lines.append(f"termination: certified via {report.termination.strategy}")
    else:
        lines.append(f"termination: refused ({report.termination_refusal})")
    for br in report.branchings:
        status = "joined" if br.joinable else "NOT JOINABLE"
        cover = f" covered by {br.covered_by}" if br.covered_by else ""
        emit = f" emitted {br.emitted}" if br.emitted else ""
        lines.append(f"- {br.key}: {status}{cover}{emit}")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.verdict != "inconclusive" else REFUSAL


def _cmd_render(args) -> int:
    pres, _ = _load(args.source)
    if not args.cell:
        raise UsageError("render needs --cell")
    cell = parse_cell(pres.sig, args.cell, pres.qmode)
    rendered = render_cell(pres.sig, cell, args.style)
    _emit(args, {"rendered": rendered}, rendered)
    return 0


def _cmd_validate(args) -> int:
    pres, _ = _load(args.source)
    rep = validate(pres)
    payload = {
        "well_typed": rep.well_typed,
        "positive": rep.positive,
        "operational_sources_positive": rep.operational_sources_positive,
        "messages": rep.messages,
    }
    lines = [
        f"well-typed: {rep.well_typed}",
        f"positive: {rep.positive}",
        f"operational sources positive: {rep.operational_sources_positive}",
    ] + [f"  note: {m}" for m in rep.messages]
    _emit(args, payload, "\n".join(lines))
    return 0 if rep.ok else REFUSAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="graypol",
        description="rewriting engine for presented semistrict 3-categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("source", help=f"presentation file or builtin:NAME ({', '.join(BUILTIN_NAMES)})")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("-o", "--output", default=None, help="write the report to FILE")
        if budget:
            p.add_argument(
                "--max-steps",
                type=int,
                default=None,
                help="rewriting budget: rewriting steps per normalization "
                "(default 100000, env GRAYPOL_MAX_STEPS)",
            )

    p = sub.add_parser("critical-pairs", help="enumerate critical branchings")
    common(p)
    p.add_argument("--include-symmetric", action="store_true")
    p.set_defaults(func=_cmd_critical_pairs)

    p = sub.add_parser("check-termination", help="produce a termination certificate")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.set_defaults(func=_cmd_check_termination)

    p = sub.add_parser("normalize", help="normalize a 2-cell")
    common(p, budget=True)
    p.add_argument("--cell", default=None, help="cell in linear notation")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("report", help="run completion and emit the coherence report")
    common(p, budget=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("render", help="render a cell")
    common(p)
    p.add_argument("--cell", default=None, help="cell in linear notation")
    p.add_argument("--style", choices=RENDER_FORMATS, default="linear")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("validate", help="validate a presentation")
    common(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if "max_steps" in args:
            env = os.environ.get("GRAYPOL_MAX_STEPS")
            if args.max_steps is not None:
                args.max_steps = _positive_budget(args.max_steps, "--max-steps")
            elif env:
                args.max_steps = _positive_budget(env, "GRAYPOL_MAX_STEPS")
        return args.func(args)
    except (ParseError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CellError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL


if __name__ == "__main__":
    sys.exit(main())
