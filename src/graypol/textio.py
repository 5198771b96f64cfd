"""Presentation file grammar, cell notation, and renderers.

The file format is line oriented with ``#`` comments::

    presentation NAME
    0 x
    1 a : x -> x
    2 mu : a a => a
    2 eta : @x => a
    3 A : [.|mu|a];[.|mu|.] => [a|mu|.];[.|mu|.]
    qmode eta eps
    tile R1 : <3cell> == <3cell>

Two-cells are ``;``-joined whiskers ``[leftword|gen|rightword]`` or
``id(word)``; three-cells are ``|``-joined steps
``{lambda ; leftword ; GEN ; rightword ; rho}`` with interchanger steps
written ``X(alpha, word, beta)`` (``X'`` for the oriented self-duality
rules), or ``id2(twocell)``.  Words are ``.`` (empty), ``@x`` (empty at
``x``), a number (over single-wire signatures), or space-separated
1-generator names.  Parsing a serialized presentation returns an equal
presentation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .cells import (
    CellError,
    Interchanger,
    OneCell,
    OpGen,
    QInterchanger,
    Signature,
    Step,
    ThreeCell,
    TwoCell,
    Whisker2,
)
from .presentation import GrayPresentation, QMode, Tile


class ParseError(CellError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.col = col


# ---------------------------------------------------------------- words


def _render_word(sig: Signature, u: OneCell, identity_style: str = "dot", numeric: bool = False) -> str:
    if not u.word:
        if identity_style == "at":
            return f"@{u.start}"
        return "0" if numeric and len(sig.one) == 1 else "."
    if numeric and len(sig.one) == 1:
        return str(len(u.word))
    return " ".join(u.word)


def _parse_word(sig: Signature, text: str, start_hint: Optional[str], where: str) -> OneCell:
    text = text.strip()
    if text in (".", "0") or text == "":
        if text == "0" and len(sig.one) == 1:
            pass
        if start_hint is None:
            if len(sig.zero) == 1:
                start_hint = sig.zero[0]
            else:
                raise ParseError(f"{where}: empty word needs an explicit start, write @POINT")
        return sig.id1(start_hint)
    if text.startswith("@"):
        return sig.id1(text[1:])
    if text.isdigit():
        if len(sig.one) != 1:
            raise ParseError(f"{where}: numeric words need a single-wire signature")
        gen = next(iter(sig.one))
        n = int(text)
        if n == 0:
            if start_hint is None:
                if len(sig.zero) == 1:
                    start_hint = sig.zero[0]
                else:
                    raise ParseError(f"{where}: empty word needs an explicit start, write @POINT")
            return sig.id1(start_hint)
        return sig.make1(sig.one[gen][0], (gen,) * n)
    names = text.split()
    for g in names:
        if g not in sig.one:
            raise ParseError(f"{where}: unknown 1-generator {g!r}")
    return sig.make1(sig.one[names[0]][0], tuple(names))


# ---------------------------------------------------------------- 2-cells


def render_two(sig: Signature, phi: TwoCell, brackets: str = "[]", numeric: bool = False) -> str:
    lb, rb = brackets
    if not phi.whiskers:
        if phi.source1.word:
            return f"id({' '.join(phi.source1.word)})"
        return f"id(@{phi.source1.start})"
    return ";".join(
        f"{lb}{_render_word(sig, w.left, numeric=numeric)}|{w.gen}"
        f"|{_render_word(sig, w.right, numeric=numeric)}{rb}"
        for w in phi.whiskers
    )


def _split_top(text: str, sep: str) -> List[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced brackets")
    out.append("".join(cur))
    return [p.strip() for p in out]


def _parse_whisker(sig: Signature, token: str) -> Whisker2:
    inner = token[1:-1]
    parts = _split_top(inner, "|")
    if len(parts) != 3:
        raise ParseError(f"whisker must be LEFT|GEN|RIGHT, got {token!r}")
    lraw, gen, rraw = parts
    if gen not in sig.two:
        raise ParseError(f"unknown 2-generator {gen!r}")
    src = sig.src1(gen)
    left = _parse_word(sig, lraw, src.start, f"whisker {token}")
    right = _parse_word(sig, rraw, sig.end0(src), f"whisker {token}")
    return Whisker2(left, gen, right)


def parse_two(sig: Signature, text: str) -> TwoCell:
    text = text.strip()
    if text.startswith("id(") and text.endswith(")"):
        u = _parse_word(sig, text[3:-1], None, "id(...)")
        return sig.id2(u)
    whiskers = []
    for token in _split_top(text, ";"):
        if not (
            (token.startswith("[") and token.endswith("]"))
            or (token.startswith("(") and token.endswith(")"))
        ):
            raise ParseError(f"expected a whisker [l|gen|r], got {token!r}")
        whiskers.append(_parse_whisker(sig, token))
    if not whiskers:
        raise ParseError("empty 2-cell needs id(...)")
    phi = TwoCell(sig.whisker_source(whiskers[0]), tuple(whiskers))
    sig.check2(phi)
    return phi


# ---------------------------------------------------------------- 3-cells


def _render_inst(sig: Signature, inst) -> str:
    if isinstance(inst, OpGen):
        return inst.name
    if isinstance(inst, Interchanger):
        return f"X({inst.alpha}, {_render_word(sig, inst.mid, 'at')}, {inst.beta})"
    if isinstance(inst, QInterchanger):
        return f"X'({inst.alpha}, {_render_word(sig, inst.mid, 'at')}, {inst.beta})"
    raise CellError(f"not a generator instance: {inst!r}")


def _parse_inst(sig: Signature, token: str, qmode: Optional[QMode]):
    token = token.strip()
    for prefix, is_q in (("X'(", True), ("X(", False)):
        if token.startswith(prefix) and token.endswith(")"):
            args = _split_top(token[len(prefix) : -1], ",")
            if len(args) != 3:
                raise ParseError(f"interchanger reference needs 3 arguments: {token!r}")
            alpha, midraw, beta = args
            if alpha not in sig.two or beta not in sig.two:
                raise ParseError(f"unknown 2-generator in {token!r}")
            mid = _parse_word(sig, midraw, sig.end0(sig.tgt1(alpha)), token)
            if is_q:
                if qmode is None:
                    raise ParseError("X'(...) steps need a qmode declaration")
                rev = beta == qmode.eta
                return QInterchanger(alpha, mid, beta, rev)
            return Interchanger(alpha, mid, beta)
    if token not in sig.three:
        raise ParseError(f"unknown 3-generator {token!r}")
    return OpGen(token)


def render_step(sig: Signature, s: Step) -> str:
    return (
        "{"
        + render_two(sig, s.lam)
        + " ; "
        + _render_word(sig, s.left, "at")
        + " ; "
        + _render_inst(sig, s.inner)
        + " ; "
        + _render_word(sig, s.right, "at")
        + " ; "
        + render_two(sig, s.rho)
        + "}"
    )


def _is_cell_token(tok: str) -> bool:
    return tok.startswith("[") or tok.startswith("(") or tok.startswith("id(")


def parse_step(sig: Signature, text: str, qmode: Optional[QMode]) -> Step:
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"step must be braced, got {text!r}")
    toks = _split_top(text[1:-1], ";")
    lam_toks = []
    i = 0
    while i < len(toks) and _is_cell_token(toks[i]):
        lam_toks.append(toks[i])
        i += 1
    if len(toks) - i < 3:
        raise ParseError(f"step needs lambda ; left ; GEN ; right ; rho, got {text!r}")
    lraw, genraw, rraw = toks[i], toks[i + 1], toks[i + 2]
    rho_toks = toks[i + 3 :]
    if not all(_is_cell_token(t) for t in rho_toks):
        raise ParseError(f"malformed step tail in {text!r}")
    inner = _parse_inst(sig, genraw, qmode)
    src = sig.inst_source(inner)
    left = _parse_word(sig, lraw, src.source1.start, text)
    right = _parse_word(sig, rraw, sig.end0(sig.source(src)), text)
    lam = parse_two(sig, ";".join(lam_toks)) if lam_toks else None
    rho = parse_two(sig, ";".join(rho_toks)) if rho_toks else None
    mid = sig.whisker0(left, src, right)
    if lam is None:
        lam = sig.id2(sig.source(mid))
    if rho is None:
        rho = sig.id2(sig.target(mid))
    step = Step(lam, left, inner, right, rho)
    sig.check3(sig.step_cell(step))
    return step


def render_three(sig: Signature, F: ThreeCell) -> str:
    if not F.steps:
        return f"id2({render_two(sig, F.source2)})"
    return "|".join(render_step(sig, s) for s in F.steps)


def parse_three(sig: Signature, text: str, qmode: Optional[QMode]) -> ThreeCell:
    text = text.strip()
    if text.startswith("id2(") and text.endswith(")"):
        return ThreeCell(parse_two(sig, text[4:-1]), ())
    steps = tuple(parse_step(sig, tok, qmode) for tok in _split_top(text, "|"))
    cell = ThreeCell(sig.step_source(steps[0]), steps)
    sig.check3(cell)
    return cell


# ---------------------------------------------------------------- cells, generic


def parse_cell(sig: Signature, text: str, qmode: Optional[QMode] = None):
    """Parse the linear notation for a 1-, 2- or 3-cell."""
    text = text.strip()
    if text.startswith("{") or text.startswith("id2("):
        return parse_three(sig, text, qmode)
    if (
        text.startswith("id(")
        or text.startswith("[")
        or (text.startswith("(") and "|" in text)
    ):
        return parse_two(sig, text)
    return _parse_word(sig, text, None, "cell")


def render_cell(sig: Signature, cell, fmt: str = "linear") -> str:
    """Render a cell; ``linear`` is re-parseable, ascii and tikz are not."""
    if fmt == "linear":
        if isinstance(cell, OneCell):
            return _render_word(sig, cell, "at")
        if isinstance(cell, TwoCell):
            return render_two(sig, cell, brackets="()", numeric=True)
        if isinstance(cell, ThreeCell):
            return render_three(sig, cell)
        raise CellError(f"not a cell: {cell!r}")
    if fmt == "ascii":
        return render_ascii(sig, cell)
    if fmt == "tikz":
        return render_tikz(sig, cell)
    raise CellError(f"unknown render format {fmt!r}")


def render_ascii(sig: Signature, cell) -> str:
    if isinstance(cell, OneCell):
        return " ".join(cell.word) if cell.word else f"(empty at {cell.start})"
    if isinstance(cell, ThreeCell):
        parts = [render_ascii(sig, cell.source2)]
        cur = cell.source2
        for s in cell.steps:
            cur = sig.step_target(s)
            parts.append("  =>")
            parts.append(render_ascii(sig, cur))
        return "\n".join(parts)
    lines = []
    lines.append(" ".join(sig.source(cell).word) or "(empty)")
    for w in cell.whiskers:
        pad = "| " * len(w.left.word)
        rpad = " |" * len(w.right.word)
        lines.append(f"{pad}[{w.gen}]{rpad}")
        lines.append(" ".join(sig.whisker_target(w).word) or "(empty)")
    return "\n".join(lines)


def render_tikz(sig: Signature, cell) -> str:
    if isinstance(cell, ThreeCell):
        cell = cell.source2
    if isinstance(cell, OneCell):
        cell = sig.id2(cell)
    lines = ["\\begin{tikzpicture}[every node/.style={font=\\small}]"]
    y = 0.0
    for w in cell.whiskers:
        for i in range(len(w.left.word)):
            lines.append(f"\\draw ({i},{y}) -- ({i},{y - 1});")
        col = len(w.left.word)
        lines.append(
            f"\\node[draw, fill=white] at ({col},{y - 0.5}) {{${w.gen}$}};"
        )
        for i in range(len(w.right.word)):
            lines.append(f"\\draw ({col + 1 + i},{y}) -- ({col + 1 + i},{y - 1});")
        y -= 1.0
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


# ---------------------------------------------------------------- presentation files


def serialize_presentation(pres: GrayPresentation) -> str:
    sig = pres.sig
    out = [f"presentation {pres.name}"]
    for x in sig.zero:
        out.append(f"0 {x}")
    for g, (s, t) in sig.one.items():
        out.append(f"1 {g} : {s} -> {t}")
    for g, (s, t) in sig.two.items():
        out.append(f"2 {g} : {_render_word(sig, s, 'at')} => {_render_word(sig, t, 'at')}")
    for g, (s, t) in sig.three.items():
        out.append(f"3 {g} : {render_two(sig, s)} => {render_two(sig, t)}")
    if pres.qmode is not None:
        out.append(f"qmode {pres.qmode.eta} {pres.qmode.eps}")
    for tile in pres.tiles:
        out.append(f"tile {tile.name} : {render_three(sig, tile.lhs)} == {render_three(sig, tile.rhs)}")
    return "\n".join(out) + "\n"


def parse_presentation(text: str) -> GrayPresentation:
    """Parse and validate a presentation file."""
    name = ""
    zero: List[str] = []
    one: List[Tuple[str, str, str]] = []
    two_raw: List[Tuple[str, str, str, int]] = []
    three_raw: List[Tuple[str, str, str, int]] = []
    tiles_raw: List[Tuple[str, str, str, int]] = []
    qmode: Optional[QMode] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "presentation":
                name = rest
            elif head == "0":
                zero.append(rest)
            elif head == "1":
                gen, _, sig_part = rest.partition(":")
                src, arrow, tgt = sig_part.partition("->")
                if not arrow:
                    raise ParseError("1-generator needs SRC -> TGT", lineno)
                one.append((gen.strip(), src.strip(), tgt.strip()))
            elif head == "2":
                gen, _, sig_part = rest.partition(":")
                src, arrow, tgt = sig_part.partition("=>")
                if not arrow:
                    raise ParseError("2-generator needs SRC => TGT", lineno)
                two_raw.append((gen.strip(), src.strip(), tgt.strip(), lineno))
            elif head == "3":
                gen, _, sig_part = rest.partition(":")
                src, arrow, tgt = sig_part.partition("=>")
                if not arrow:
                    raise ParseError("3-generator needs SRC => TGT", lineno)
                three_raw.append((gen.strip(), src.strip(), tgt.strip(), lineno))
            elif head == "qmode":
                parts = rest.split()
                if len(parts) != 2:
                    raise ParseError("qmode needs two 2-generator names", lineno)
                qmode = QMode(parts[0], parts[1])
            elif head == "tile":
                tag, _, body = rest.partition(":")
                lhs, eqeq, rhs = body.partition("==")
                if not eqeq:
                    raise ParseError("tile needs LHS == RHS", lineno)
                tiles_raw.append((tag.strip(), lhs.strip(), rhs.strip(), lineno))
            else:
                raise ParseError(f"unknown directive {head!r}", lineno)
        except ParseError:
            raise
        except CellError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        sig01 = Signature(zero=zero, one=one)
    except CellError as exc:
        raise ParseError(str(exc)) from exc
    two = []
    for gen, sraw, traw, lineno in two_raw:
        try:
            two.append((gen, _parse_word(sig01, sraw, None, gen), _parse_word(sig01, traw, None, gen)))
        except CellError as exc:
            raise ParseError(f"2-generator {gen}: {exc}", lineno) from exc
    try:
        sig012 = Signature(zero=zero, one=one, two=two)
    except CellError as exc:
        raise ParseError(str(exc)) from exc
    three = []
    for gen, sraw, traw, lineno in three_raw:
        try:
            three.append((gen, parse_two(sig012, sraw), parse_two(sig012, traw)))
        except CellError as exc:
            raise ParseError(f"3-generator {gen}: {exc}", lineno) from exc
    try:
        sig = Signature(zero=zero, one=one, two=two, three=three)
    except CellError as exc:
        raise ParseError(str(exc)) from exc
    tiles = []
    for tag, lraw, rraw, lineno in tiles_raw:
        try:
            tiles.append(Tile(tag, parse_three(sig, lraw, qmode), parse_three(sig, rraw, qmode)))
        except CellError as exc:
            raise ParseError(f"tile {tag}: {exc}", lineno) from exc
    return GrayPresentation(name, sig, tuple(tiles), qmode)
