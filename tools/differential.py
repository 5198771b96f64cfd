"""Differential check: graypol's observable results on one fixed, seeded input set.

Run with no argument, it prints one canonical JSON line per record::

    python3 tools/differential.py

With ``--against TREE`` it also builds the same records with the
``graypol`` package of ``TREE/src`` (in a subprocess), compares the two
lists and prints the first differing record with its input::

    python3 tools/differential.py --against /path/to/other/checkout

It exits 0 when the records agree and 1 when they differ.  The inputs are
the builtins, the shipped presentation files and their token-level and
step-level mutations, seeded random one-wire presentations, random 2-cells and
rewriting paths of each presentation, random token soup for the cell
parser, two disjoint renamed copies of each Gray-mode shipped file, pairs
of 2-cells of at most 3 rows, random expressions, short zigzags, cells
whose rewriting loops, rewriting steps with one field swapped with a
neighbour's or cut short, combs of multiplications and chains of rewrites
(``comb``, ``chain``).  Every one comes from a generator of ``inputs.py``,
drawn with ``random.Random`` from the fixed seeds of this file, so both
trees see the same inputs.  A record holds:

* ``parse_presentation``: the serialization, or the error message and line;
* ``parse_cell``: the re-parsed cell, or the error message and line, and
  ``render_cell`` in every format;
* ``cli``: exit code, stdout and stderr of each command on the builtins
  and the shipped files;
* ``find_redexes`` (full and resumed at each row), with each step's
  source and target; ``classify`` on each ordered pair of redexes;
* ``enumerate_critical``'s keys; ``normalize2``'s path, or its partial
  path; ``certify_termination``'s strategy and scope, or its refusal;
  ``squier_completion``'s tiles and verdict;
* ``shuffle_words``; ``shuffle_graph``, ``sigma_path``, ``big_x`` and every
  ``interp_vertex`` and ``interp_edge`` on each ordered pair of cells, and
  on malformed words, start indices and edges;
* ``typecheck`` (with the ``rule`` of a ``TypingError``), ``reducts``,
  ``measure`` and ``normal_form_expr``; ``zz_simplify`` and
  ``zz_all_reduced_forms``;
* ``normalize2`` without a certificate at the budgets 1-12 and 40 on
  the looping cells and critical wings, its path or partial path written
  out field by field; ``check3`` and ``classify`` on the ill-fitting
  steps;
* ``classify`` on every candidate branching of the critical analysis.

Exceptions are recorded by type and message, so a crash is a record too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

from inputs import (
    SHIPPED_FILES,
    STEP_MUTATIONS,
    chain,
    comb,
    disjoint_copies,
    file_tokens,
    mutated_text,
    random_path,
    random_presentation_text,
    random_rough_expression,
    random_two_cell,
    random_zigzag,
    shipped_texts,
    step_mutants,
    step_mutated_text,
    token_soup,
)

ROOT = Path(__file__).resolve().parent.parent
MAX_STEPS = 40
SEED = 20211


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _attempt(fn, *args):
    """``{"ok": fn(*args)}``, or the exception's type and message."""
    try:
        return {"ok": fn(*args)}
    except Exception as exc:  # a crash is an observable result too
        return {"raised": type(exc).__name__, "message": str(exc)}


def _parsed(fn, *args):
    """``{"ok": fn(*args)}``, or a parse error's message and line (its type is not recorded)."""
    from graypol import CellError

    try:
        return {"ok": fn(*args)}
    except CellError as exc:
        return {"error": str(exc), "line": getattr(exc, "line", None)}


# ---------------------------------------------------------------- records
#
# Each generator below yields ``(op, input, output)`` triples; ``records``
# makes them dicts.


def _cli(argv):
    from graypol.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = _attempt(main, argv)
    return {"result": result, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _reprs(items):
    return [repr(item) for item in items]


def _cell_records(pres, text: str):
    from graypol import parse_cell, render_cell

    parsed = _parsed(parse_cell, pres.sig, text, pres.qmode)
    yield "parse_cell", [pres.name, text], {"ok": repr(parsed["ok"])} if "ok" in parsed else parsed
    if "ok" in parsed:
        for fmt in ("linear", "ascii", "tikz"):
            yield "render_cell", [pres.name, text, fmt], _attempt(render_cell, pres.sig, parsed["ok"], fmt)


def _normalized(pres, phi, cert):
    from graypol import NonTermination, normalize2

    try:
        nf, path = normalize2(pres, phi, cert, MAX_STEPS)
    except NonTermination as exc:
        return {"partial": _reprs(exc.partial.steps)}
    except Exception as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {"ok": [repr(nf), _reprs(path.steps)]}


def _rewriting_records(pres, interp, rng: random.Random):
    """Redexes, step sides, classes, normal forms and paths of random 2-cells."""
    from graypol import Branching, ThreeCell, certify_termination, classify, find_redexes, render_cell

    sig, name = pres.sig, pres.name
    cert = _attempt(certify_termination, pres, None, interp).get("ok")
    for _ in range(10):
        phi = random_two_cell(sig, rng, rng.randint(0, 6))
        text = render_cell(sig, phi)
        yield from _cell_records(pres, text)
        redexes = find_redexes(pres, phi)
        yield "find_redexes", [name, text], _reprs(redexes)
        for k in range(len(phi.whiskers) + 1):
            yield "find_redexes", [name, text, k], _attempt(lambda: _reprs(find_redexes(pres, phi, lowest_from=k)))
        for i, s in enumerate(redexes):
            yield "step_sides", [name, text, i], _attempt(lambda: [repr(sig.step_source(s)), repr(sig.step_target(s))])
            for j, s2 in enumerate(redexes):
                yield "classify", [name, text, i, j], _attempt(lambda: repr(classify(pres, Branching(s, s2))))
        yield "normalize2", [name, text], _normalized(pres, phi, cert)
        steps = random_path(pres, rng, phi, rng.randint(1, 4))
        if steps:
            yield from _cell_records(pres, render_cell(sig, ThreeCell(phi, tuple(steps))))


def _analysis_records(pres, interp):
    """Critical keys, every termination strategy, and the completion."""
    from graypol import certify_termination, enumerate_critical, serialize_presentation, squier_completion
    from graypol.termination import STRATEGIES

    def completion():
        tiles, report = squier_completion(pres, interpretation=interp, max_steps=MAX_STEPS)
        return [serialize_presentation(pres.with_tiles(tiles)), report.summary()]

    yield "enumerate_critical", pres.name, _attempt(lambda: [repr(cb.key) for cb in enumerate_critical(pres)])
    for strategy in (None,) + STRATEGIES:
        summary = _attempt(lambda: certify_termination(pres, strategy, interp).summary())
        yield "certify_termination", [pres.name, strategy], summary
    yield "squier_completion", pres.name, _attempt(completion)


def _cli_records(source: str, label: str, cells):
    """The six commands on ``source``, normalize and render on each of ``cells``."""
    budget = ["--max-steps", str(MAX_STEPS)]
    for command in ("critical-pairs", "check-termination", "report", "validate"):
        extra = budget if command == "report" else []
        yield "cli", [label, command], _cli([command, source, "--format", "json", *extra])
        yield "cli", [label, command, "text"], _cli([command, source, *extra])
    for text in cells:
        yield "cli", [label, "normalize", text], _cli(["normalize", source, f"--cell={text}", *budget])
        for style in ("linear", "ascii", "tikz"):
            yield "cli", [label, "render", text, style], _cli(["render", source, f"--cell={text}", f"--style={style}"])


def _all_records():
    from graypol import BUILTIN_NAMES, get_builtin, parse_presentation, render_cell, serialize_presentation

    rng = random.Random(SEED)
    texts, tokens = shipped_texts(), file_tokens()
    builtins = [get_builtin(name) for name in BUILTIN_NAMES]
    sources = [(f"builtin:{name}", f"builtin:{name}") for name in BUILTIN_NAMES]
    sources += [(str(path), f"file:{path.name}") for path in SHIPPED_FILES]
    shipped = [entry.presentation for entry in builtins]
    shipped += [parse_presentation(path.read_text(encoding="utf-8")) for path in SHIPPED_FILES]
    for (source, label), pres in zip(sources, shipped):
        cells = [render_cell(pres.sig, random_two_cell(pres.sig, rng, rows)) for rows in (2, 4)]
        yield from _cli_records(source, label, cells + ["a a", "0", "@x", "id2([.|mu|.])", "[", "x y"])
    pool = [(entry.presentation, entry.interpretation) for entry in builtins]
    for index in range(12):
        text = random_presentation_text(rng, index)
        yield "parse_presentation", text, _parsed(lambda: serialize_presentation(parse_presentation(text)))
        pool.append((parse_presentation(text), None))
    for _ in range(240):
        text = mutated_text(rng, texts, tokens)
        yield "parse_presentation", text, _parsed(lambda: serialize_presentation(parse_presentation(text)))
    # the step-level mutations draw from their own stream, so the other inputs stay as they were
    step_rng = random.Random(SEED + 1)
    for mutate in STEP_MUTATIONS:
        for _ in range(30):
            text = step_mutated_text(step_rng, texts, mutate)
            yield "parse_presentation", text, _parsed(lambda: serialize_presentation(parse_presentation(text)))
    for pres, interp in pool:
        yield from _analysis_records(pres, interp)
        yield from _rewriting_records(pres, interp, rng)
    for pres, _ in pool[: len(builtins)]:
        for _ in range(60):
            yield from _cell_records(pres, token_soup(rng, tokens, 8))


# ---------------------------------------------------------------- the paper-side algebra
#
# These sections come after the records above and draw from their own
# streams, so adding them left every earlier record as it was.


def _copies_records():
    """Two disjoint copies of each Gray-mode shipped file, parsed and analysed."""
    from graypol import parse_presentation, serialize_presentation

    for path in SHIPPED_FILES:
        text = path.read_text(encoding="utf-8")
        if "\nqmode " in text:
            continue
        copies = disjoint_copies(text, 2)
        parsed = _parsed(lambda: serialize_presentation(parse_presentation(copies)))
        yield "parse_presentation", copies, parsed
        if "ok" in parsed:
            yield from _analysis_records(parse_presentation(copies), None)


def _shuffle_pair_records(sig, label, phi, psi):
    """The shuffle graph of ``phi`` and ``psi``, each of its vertices and edges
    interpreted, its staircase path and the composite interchanger."""
    from graypol import big_x, interp_edge, interp_vertex, shuffle_graph, sigma_path
    from graypol.textio import render_step, render_three, render_two

    graph = _attempt(shuffle_graph, sig, phi, psi)
    yield "shuffle_graph", label, {"ok": [graph["ok"][0], _reprs(graph["ok"][1])]} if "ok" in graph else graph
    yield "sigma_path", label, _attempt(lambda: _reprs(sigma_path(sig, phi, psi)))
    yield "big_x", label, _attempt(lambda: render_three(sig, big_x(sig, phi, psi)))
    vertices, edges = graph.get("ok", ((), ()))
    for v in vertices:
        yield "interp_vertex", label + [v], _attempt(lambda: render_two(sig, interp_vertex(sig, v, 1, 1, phi, psi)))
    for e in edges:
        yield "interp_edge", label + [repr(e)], _attempt(lambda: render_step(sig, interp_edge(sig, e, phi, psi)))


def _malformed_shuffle_records(sig, label, phi, psi):
    """Words, start indices and edges that name no part of the shuffle graph."""
    from graypol import interp_edge, interp_vertex, length
    from graypol.shuffle import ShuffleEdge
    from graypol.textio import render_step, render_two

    k, kp = length(phi), length(psi)
    words = [
        ((("l", k + 1),), 1, 1),
        ((("l", k + 1),), k + 1, 1),
        ((("r", kp + 1),), 1, kp + 1),
        ((("x", 1),), 1, 1),
        ((), k + 2, 1),
        ((), 1, kp + 2),
        ((), 0, 1),
    ]
    for word, i, j in words:
        result = _attempt(lambda: render_two(sig, interp_vertex(sig, word, i, j, phi, psi)))
        yield "interp_vertex", label + [word, i, j], result
    edges = [ShuffleEdge((), k + 1, 1, ()), ShuffleEdge((), 1, kp + 1, ()), ShuffleEdge((), 2, 1, ())]
    for e in edges:
        yield "interp_edge", label + [repr(e)], _attempt(lambda: render_step(sig, interp_edge(sig, e, phi, psi)))


def _shuffle_records():
    """Shuffle words, and the shuffle algebra on each ordered pair of 2-cells of at
    most 3 rows: the generators and random cells of each builtin."""
    from graypol import BUILTIN_NAMES, get_builtin
    from graypol.shuffle import shuffle_words
    from graypol.textio import render_two

    for k in range(5):
        for kp in range(5):
            yield "shuffle_words", [k, kp], _attempt(shuffle_words, k, kp)
    rng = random.Random(SEED + 2)
    for name in BUILTIN_NAMES:
        sig = get_builtin(name).presentation.sig
        cells = [sig.gen2_cell(g) for g in sig.two] + [random_two_cell(sig, rng, rows) for rows in (0, 1, 2, 3, 2, 3)]
        for phi in cells:
            for psi in cells:
                yield from _shuffle_pair_records(sig, [name, render_two(sig, phi), render_two(sig, psi)], phi, psi)
        phi = cells[0]
        yield from _malformed_shuffle_records(sig, [name, render_two(sig, phi), render_two(sig, phi)], phi, phi)


def _expression_records():
    """Typing, one-step reducts, measure and normal form of random expressions."""
    from graypol import BUILTIN_NAMES, TypingError, get_builtin, measure, normal_form_expr, reducts, typecheck

    rng = random.Random(SEED + 3)
    for name in BUILTIN_NAMES:
        sig = get_builtin(name).presentation.sig
        for n in range(60):
            top = 2 if n % 3 else 3
            expr = random_rough_expression(sig, rng, top)
            label = [name, top, repr(expr)]
            try:
                typed = {"ok": _reprs(typecheck(sig, expr, top))}
            except TypingError as exc:
                typed = {"raised": type(exc).__name__, "rule": exc.rule, "message": str(exc)}
            except Exception as exc:
                typed = {"raised": type(exc).__name__, "message": str(exc)}
            yield "typecheck", label, typed
            yield "reducts", label, _attempt(lambda: _reprs(reducts(sig, expr)))
            yield "measure", label, _attempt(measure, expr, top)
            yield "normal_form_expr", label, _attempt(lambda: repr(normal_form_expr(sig, expr, top)))


def _zigzag_records():
    """Reduced forms of short zigzags of rewriting steps, with identities,
    inverses and cancelling pairs among them."""
    from graypol import BUILTIN_NAMES, get_builtin, zz_all_reduced_forms, zz_simplify
    from graypol.textio import render_three

    rng = random.Random(SEED + 4)

    def text(sig, entries):
        return [[render_three(sig, cell), sign] for cell, sign in entries]

    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        sig = pres.sig
        for _ in range(8):
            phi = random_two_cell(sig, rng, rng.randint(1, 3))
            z = random_zigzag(pres, rng, phi, rng.randint(1, 5))
            label = [name, text(sig, z.entries)]
            yield "zz_simplify", label, _attempt(lambda: text(sig, zz_simplify(sig, z).entries))
            forms = lambda: sorted(text(sig, e) for e in zz_all_reduced_forms(sig, z))
            yield "zz_all_reduced_forms", label, _attempt(forms)


# ---------------------------------------------------------------- loops and ill-fitting steps
#
# These sections come last, each on its own stream, so they left every
# earlier record as it was.

BUDGETS = tuple(range(1, 13)) + (MAX_STEPS,)


def _one_fields(u) -> str:
    """A 1-cell as ``start:word``; its ``repr`` drops the start of a nonempty word."""
    return f"{u.start}:{' '.join(u.word)}"


def _two_fields(phi) -> list:
    """A 2-cell's source and each row's contexts in full; its ``repr`` keeps only their lengths."""
    rows = [[_one_fields(w.left), w.gen, _one_fields(w.right)] for w in phi.whiskers]
    return [_one_fields(phi.source1), rows]


def _step_fields(s) -> list:
    """A step field by field, its instance as its type and fields."""
    from graypol import OneCell

    inner = [type(s.inner).__name__] + [
        _one_fields(v) if isinstance(v, OneCell) else v
        for v in (getattr(s.inner, f.name) for f in dataclasses.fields(s.inner))
    ]
    return [_two_fields(s.lam), _one_fields(s.left), inner, _one_fields(s.right), _two_fields(s.rho)]


def _budgeted(pres, phi):
    """``normalize2`` without a certificate at each of ``BUDGETS``, every step written out."""
    from graypol import NonTermination, normalize2

    for budget in BUDGETS:
        try:
            nf, path = normalize2(pres, phi, None, budget)
            result = {"ok": [_two_fields(nf), [_step_fields(s) for s in path.steps]]}
        except NonTermination as exc:
            partial = [_step_fields(s) for s in exc.partial.steps]
            result = {"raised": "NonTermination", "message": str(exc), "partial": partial}
        except Exception as exc:
            result = {"raised": type(exc).__name__, "message": str(exc)}
        yield budget, result


def _drawn_presentations():
    """24 random one-wire presentations, drawn from their own stream."""
    from graypol import parse_presentation

    rng = random.Random(SEED + 5)
    return [parse_presentation(random_presentation_text(rng, index)) for index in range(24)]


def _loop_records():
    """``normalize2`` at small budgets on cells whose lowest-redex path loops: the first
    30 selfduality cells of 8 rows drawn from seed 3, 7 of which loop, and both wings
    of every critical branching of the Gray-mode builtins and of random presentations."""
    from graypol import BUILTIN_NAMES, CellError, enumerate_critical, get_builtin
    from graypol.textio import render_two

    pres = get_builtin("selfduality").presentation
    rng = random.Random(3)
    for _ in range(30):
        phi = random_two_cell(pres.sig, rng, rows=8)
        for budget, result in _budgeted(pres, phi):
            yield "normalize2", [pres.name, render_two(pres.sig, phi), budget], result
    for pres in [get_builtin(name).presentation for name in BUILTIN_NAMES] + _drawn_presentations():
        try:
            branchings = [cb.branching for cb in enumerate_critical(pres)]
        except CellError:
            continue
        for b in branchings:
            for s in (b.s1, b.s2):
                wing = pres.sig.step_target(s)
                for budget, result in _budgeted(pres, wing):
                    yield "normalize2", [pres.name, _step_fields(s), budget], result


def _ill_fitting_records():
    """``check3`` on short random paths with one step swapped with a neighbour's field,
    or cut, and ``classify`` on redex pairs with one step so changed."""
    from graypol import BUILTIN_NAMES, Branching, ThreeCell, classify, find_redexes, get_builtin
    from graypol.textio import render_two

    rng = random.Random(SEED + 6)
    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        sig = pres.sig
        for _ in range(4):
            phi = random_two_cell(sig, rng, rng.randint(2, 6))
            label = [name, render_two(sig, phi)]
            steps = random_path(pres, rng, phi, rng.randint(2, 5))
            for i, s in enumerate(steps):
                other = steps[i + 1] if i + 1 < len(steps) else steps[i - 1]
                for kind, bad in step_mutants(s, other):
                    path = ThreeCell(phi, tuple(steps[:i]) + (bad,) + tuple(steps[i + 1 :]))
                    yield "check3", label + [i, kind], _attempt(lambda: repr(sig.check3(path)))
            redexes = find_redexes(pres, phi)[:3]
            for i, s1 in enumerate(redexes):
                for j, s2 in enumerate(redexes):
                    for side, (s, other) in enumerate(((s2, s1), (s1, s2))):
                        for kind, bad in step_mutants(s, other):
                            b = Branching(s1, bad) if side == 0 else Branching(bad, s2)
                            yield "classify", label + [i, j, side, kind], _attempt(lambda: repr(classify(pres, b)))


# ---------------------------------------------------------------- rewriting windows
#
# This section comes last and draws no input of its own, so it left
# every earlier record as it was.


def _window_records():
    """The paths that lay a window on a 2-cell: every candidate branching of the critical
    analysis with its class, on the Gray-mode builtins, the presentations of ``_loop_records``
    and two disjoint copies of each Gray-mode shipped file; ``find_redexes`` (full and
    resumed at each row) and ``normalize2`` on the left and right combs of 1-8
    multiplications; and the analysis of the chains of 1-4 rewrites."""
    from graypol import BUILTIN_NAMES, classify, find_redexes, get_builtin, parse_presentation, serialize_presentation
    from graypol.rewriting import _candidates

    pool = [get_builtin(name).presentation for name in BUILTIN_NAMES] + _drawn_presentations()
    pool += [parse_presentation(disjoint_copies(text, 2)) for text in shipped_texts() if "\nqmode " not in text]
    for pres in pool:
        if pres.qmode is not None:
            continue
        for i, b in enumerate(_candidates(pres)):
            label = [pres.name, i, _step_fields(b.s1), _step_fields(b.s2)]
            yield "classify", label, _attempt(lambda: repr(classify(pres, b)))
    pres = get_builtin("pseudomonoid").presentation
    for n in range(1, 9):
        for left in (True, False):
            phi = comb(n, left)
            label = [pres.name, "left" if left else "right", n]
            yield "find_redexes", label, _attempt(lambda: [_step_fields(s) for s in find_redexes(pres, phi)])
            for k in range(n + 1):
                found = _attempt(lambda: [_step_fields(s) for s in find_redexes(pres, phi, lowest_from=k)])
                yield "find_redexes", label + [k], found
            for budget, result in _budgeted(pres, phi):
                yield "normalize2", label + [budget], result
    for n in range(1, 5):
        text = chain(n)
        yield "parse_presentation", text, _parsed(lambda: serialize_presentation(parse_presentation(text)))
        yield from _analysis_records(parse_presentation(text), None)


def records():
    """Every record of the input set, in a fixed order."""
    sections = (
        _all_records(),
        _copies_records(),
        _shuffle_records(),
        _expression_records(),
        _zigzag_records(),
        _loop_records(),
        _ill_fitting_records(),
        _window_records(),
    )
    for section in sections:
        for op, given, out in section:
            yield {"op": op, "in": given, "out": out}


def _lines_of(tree: Path):
    """The record lines built with ``tree/src``'s graypol, in a subprocess."""
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import differential; differential.write(sys.stdout)"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tree / "src"), str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"records under {tree} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def write(stream) -> None:
    for record in records():
        stream.write(canonical(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="TREE", type=Path, help="checkout whose src/graypol to compare with")
    args = parser.parse_args(argv)
    if args.against is None:
        sys.path.insert(0, str(ROOT / "src"))
        write(sys.stdout)
        return 0
    ours, theirs = _lines_of(ROOT), _lines_of(args.against.resolve())
    differing = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
    if not differing and len(ours) == len(theirs):
        print(f"no difference in {len(ours)} records (digest {digest(ours)})")
        return 0
    if differing:
        i = differing[0]
        print(f"{len(differing)} of {min(len(ours), len(theirs))} records differ; the first, record {i}:")
        print(f"  here:  {ours[i]}")
        print(f"  there: {theirs[i]}")
    if len(ours) != len(theirs):
        print(f"record counts differ: {len(ours)} here, {len(theirs)} there")
    return 1


if __name__ == "__main__":
    sys.exit(main())
