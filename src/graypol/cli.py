"""Command-line front end.

Subcommands: ``critical-pairs``, ``check-termination``, ``normalize``,
``report``, ``render``, ``validate``.  Presentations are addressed as
``builtin:NAME`` or a file path.  Exit status: 0 on success, 1 on an
analysis refusal (termination refused, branching not joinable,
unsupported analysis), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import BUILTIN_NAMES, get_builtin
from .cells import CellError, length
from .coherence import default_budget, key_json, normalize2, positive_budget, squier_completion
from .presentation import validate
from .rewriting import UnsupportedError, enumerate_critical
from .termination import STRATEGIES, TerminationRefused, certify_termination
from .textio import ParseError, parse_cell, parse_presentation, render_cell, render_step

USAGE_ERROR = 2
REFUSAL = 1


class Refusal(Exception):
    pass


def _load(source: str):
    """Presentation plus catalog interpretation for ``builtin:NAME`` or a file."""
    if source.startswith("builtin:"):
        entry = get_builtin(source[len("builtin:") :])
        return entry.presentation, entry.interpretation
    with open(source, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_presentation(text), None


def _emit(args, payload_json, payload_text: str):
    text = json.dumps(payload_json, indent=2, ensure_ascii=False) if args.format == "json" else payload_text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_critical_pairs(args) -> int:
    pres, _ = _load(args.source)
    branchings = enumerate_critical(pres)
    rows = []
    for cb in branchings:
        items = [cb]
        if args.include_symmetric:
            from .rewriting import Branching, CriticalBranching, branching_key

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
    pres, interp = _load(args.source)
    if not args.cell:
        raise Refusal("normalize needs --cell")
    cell = parse_cell(pres.sig, args.cell, pres.qmode)
    cert = None
    try:
        cert = certify_termination(pres, None, interp)
    except TerminationRefused:
        cert = None
    nf, path = normalize2(pres, cell, cert, args.max_steps)
    _emit(
        args,
        {
            "normal_form": render_cell(pres.sig, nf),
            "path_length": length(path),
            "certified": cert is not None,
        },
        f"normal form: {render_cell(pres.sig, nf)}\npath length: {length(path)}",
    )
    return 0


def _cmd_report(args) -> int:
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
        raise Refusal("render needs --cell")
    cell = parse_cell(pres.sig, args.cell, pres.qmode)
    _emit(args, {"rendered": render_cell(pres.sig, cell, args.style)}, render_cell(pres.sig, cell, args.style))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graypol",
        description="rewriting engine for presented semistrict 3-categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help=f"presentation file or builtin:NAME ({', '.join(BUILTIN_NAMES)})")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("-o", "--output", default=None, help="write the report to FILE")
        p.add_argument(
            "--max-steps",
            type=int,
            default=None,
            help="rewriting budget: rewriting steps per normalization "
            "(default 100000, env GRAYPOL_MAX_STEPS)",
        )
        p.add_argument(
            "--strategy",
            choices=STRATEGIES,
            default=None,
        )

    p = sub.add_parser("critical-pairs", help="enumerate critical branchings")
    common(p)
    p.add_argument("--include-symmetric", action="store_true")
    p.set_defaults(func=_cmd_critical_pairs)

    p = sub.add_parser("check-termination", help="produce a termination certificate")
    common(p)
    p.set_defaults(func=_cmd_check_termination)

    p = sub.add_parser("normalize", help="normalize a 2-cell")
    common(p)
    p.add_argument("--cell", default=None, help="cell in linear notation")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("report", help="run completion and emit the coherence report")
    common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("render", help="render a cell")
    common(p)
    p.add_argument("--cell", default=None, help="cell in linear notation")
    p.add_argument("--style", choices=("linear", "ascii", "tikz"), default="linear")
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
        try:
            if args.max_steps is None:
                args.max_steps = default_budget()
            else:
                args.max_steps = positive_budget(args.max_steps, "--max-steps")
        except ValueError as exc:
            raise Refusal(str(exc)) from None
        return args.func(args)
    except (ParseError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except UnsupportedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL
    except CellError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL


if __name__ == "__main__":
    sys.exit(main())
