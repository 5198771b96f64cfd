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

The ``1``, ``2``, ``3`` and ``tile`` lines are read by one split, as the
``_DECLARATIONS`` table says.  A file is read in one tokenizing pass and
typed in one typing pass: each 3-cell's text is split into steps and
each step into its fields once, and the lambda and rho tokens are read
as they are, not joined and split again; each distinct whisker token is
read once per parse; each generator and each tile side is checked once,
where it is read (the words by ``make1``, the 3-generator sides by
``check2``, the tile sides by ``check3``).  What is built from the
result trusts that typing: the signature takes the checked generators
without checking them again (``Signature._extended``), and
``GrayPresentation.validation`` does not check the parsed tiles again.
``parse_presentation`` and ``parse_cell`` raise only ``ParseError``: a
typing error met while building the parsed cells is reported as one,
naming the declaration and its line.
``render_cell`` writes a cell in one of ``RENDER_FORMATS``: ``linear``
reads back through ``parse_cell``; ``ascii`` and ``tikz`` do not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

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
    """Text that spells no presentation or cell; ``line`` is its line in a file, when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


@contextmanager
def _reported(prefix: str = "", line: Optional[int] = None):
    """Report a ``CellError`` raised while typing parsed text as a ``ParseError``,
    its message after ``prefix`` (the declaration it types) and at ``line``."""
    try:
        yield
    except CellError as exc:
        raise ParseError(prefix + str(exc), line) from exc


# ---------------------------------------------------------------- words

# Longest numeric word accepted, so that a number cannot request an
# unbounded allocation.
MAX_NUMERIC_WORD = 10_000


def _render_word(u: OneCell) -> str:
    return " ".join(u.word) if u.word else f"@{u.start}"


def _parse_word(sig: Signature, text: str, start_hint: Optional[str], where: str = "") -> OneCell:
    """The checked 1-cell ``text``; an error message starts with ``where``, when given."""
    at = f"{where}: " if where else ""
    text = text.strip()
    count = None
    if text.isascii() and text.isdigit():
        # a lone "0" is the empty word over any signature
        if text != "0" and len(sig.one) != 1:
            raise ParseError(f"{at}numeric words need a single-wire signature")
        digits = text.lstrip("0") or "0"
        # lengths first: int() refuses strings of more than 4300 digits
        if len(digits) > len(str(MAX_NUMERIC_WORD)) or int(digits) > MAX_NUMERIC_WORD:
            raise ParseError(f"{at}numeric word longer than {MAX_NUMERIC_WORD} letters")
        count = int(digits)
    if text in ("", ".") or count == 0:
        if start_hint is None:
            if len(sig.zero) == 1:
                start_hint = sig.zero[0]
            else:
                raise ParseError(f"{at}empty word needs an explicit start, write @POINT")
        return sig.id1(start_hint)
    if text.startswith("@"):
        return sig.id1(text[1:])
    if count is not None:
        gen = next(iter(sig.one))
        return sig.make1(sig.one[gen][0], (gen,) * count)
    names = text.split()
    for g in names:
        if g not in sig.one:
            raise ParseError(f"{at}unknown 1-generator {g!r}")
    return sig.make1(sig.one[names[0]][0], tuple(names))


# ---------------------------------------------------------------- 2-cells


def render_two(sig: Signature, phi: TwoCell, linear: bool = False) -> str:
    """Whiskers ``[l|gen|r]``, an empty context written ``.``, as in files; or,
    with ``linear``, the cell notation ``(l|gen|r)``, whose contexts are
    lengths over a single-wire signature."""
    if not phi.whiskers:
        return f"id({_render_word(phi.source1)})"
    numeric = linear and len(sig.one) == 1

    def context(u: OneCell) -> str:
        return str(len(u.word)) if numeric else " ".join(u.word) or "."

    lb, rb = "()" if linear else "[]"
    return ";".join(f"{lb}{context(w.left)}|{w.gen}|{context(w.right)}{rb}" for w in phi.whiskers)


def _split_top(text: str, sep: str) -> List[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets")
        elif ch == sep and depth == 0:
            out.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced brackets")
    out.append(text[start:].strip())
    return out


def _parse_whisker(sig: Signature, token: str, memo: dict) -> Whisker2:
    """The whisker ``[l|gen|r]`` (or ``(l|gen|r)``) spelled by ``token``.

    ``memo`` maps the tokens read so far in one parse to their whiskers,
    so that each distinct token is read once per parse.  A whisker depends
    only on the 0-, 1- and 2-generators, which every signature of one
    parse shares; a token that fails raises and is not stored.
    """
    w = memo.get(token)
    if w is not None:
        return w
    if not ((token.startswith("[") and token.endswith("]")) or (token.startswith("(") and token.endswith(")"))):
        raise ParseError(f"expected a whisker [l|gen|r], got {token!r}")
    parts = _split_top(token[1:-1], "|")
    if len(parts) != 3:
        raise ParseError(f"whisker must be LEFT|GEN|RIGHT, got {token!r}")
    lraw, gen, rraw = parts
    if gen not in sig.two:
        raise ParseError(f"unknown 2-generator {gen!r}")
    src = sig.src1(gen)
    left = _parse_word(sig, lraw, src.start, f"whisker {token}")
    right = _parse_word(sig, rraw, sig.end0(src), f"whisker {token}")
    w = memo[token] = Whisker2(left, gen, right)
    return w


def parse_two(sig: Signature, text: str) -> TwoCell:
    """The checked 2-cell ``text``: ``id(WORD)`` or ``;``-joined whiskers."""
    return _parse_two(sig, text, {})


def _parse_two(sig: Signature, text: str, memo: dict) -> TwoCell:
    """``parse_two``, its whiskers read through ``memo`` (see ``_parse_whisker``)."""
    text = text.strip()
    toks = [text] if text.startswith("id(") and text.endswith(")") else _split_top(text, ";")
    phi = _parse_rows(sig, toks, memo)
    sig.check2(phi)
    return phi


def _parse_rows(sig: Signature, toks: List[str], memo: dict) -> TwoCell:
    """A 2-cell from its tokens, the text split at top-level ``;``.

    Each word is a checked 1-cell, but the chain of rows is not checked.
    Tokens that begin with ``id(`` and end with ``)`` are read as one
    text ``id(WORD)``, as ``parse_two`` reads the unsplit text.
    """
    if toks[0].startswith("id(") and toks[-1].endswith(")"):
        return TwoCell(_parse_word(sig, ";".join(toks)[3:-1], None, "id(...)"), ())
    rows = tuple([_parse_whisker(sig, token, memo) for token in toks])
    return TwoCell(sig.whisker_source(rows[0]), rows)


# ---------------------------------------------------------------- 3-cells


def _render_inst(inst) -> str:
    if isinstance(inst, OpGen):
        return inst.name
    if isinstance(inst, (Interchanger, QInterchanger)):
        prime = "'" if isinstance(inst, QInterchanger) else ""
        return f"X{prime}({inst.alpha}, {_render_word(inst.mid)}, {inst.beta})"
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
    parts = (render_two(sig, s.lam), _render_word(s.left), _render_inst(s.inner), _render_word(s.right))
    return "{" + " ; ".join(parts + (render_two(sig, s.rho),)) + "}"


def _is_cell_token(tok: str) -> bool:
    return tok.startswith("[") or tok.startswith("(") or tok.startswith("id(")


def _parse_step(sig: Signature, text: str, qmode: Optional[QMode], memo: dict) -> Step:
    """The step ``{lambda ; left ; GEN ; right ; rho}``.

    Its text is split at ``;`` once, and the lambda and rho tokens go to
    ``_parse_rows`` as they are.  Its rows are not typed here:
    ``parse_three`` types the whole cell.
    """
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"step must be braced, got {text!r}")
    toks = _split_top(text[1:-1], ";")
    i = 0
    while i < len(toks) and _is_cell_token(toks[i]):
        i += 1
    if len(toks) - i < 3:
        raise ParseError(f"step needs lambda ; left ; GEN ; right ; rho, got {text!r}")
    lam_toks, (lraw, genraw, rraw), rho_toks = toks[:i], toks[i : i + 3], toks[i + 3 :]
    if not all(_is_cell_token(t) for t in rho_toks):
        raise ParseError(f"malformed step tail in {text!r}")
    inner = _parse_inst(sig, genraw, qmode)
    src = sig.inst_source(inner)
    left = _parse_word(sig, lraw, src.source1.start, text)
    right = _parse_word(sig, rraw, sig.end0(src.source1), text)
    if lam_toks:
        lam = _parse_rows(sig, lam_toks, memo)
    else:
        lam = TwoCell(OneCell(left.start, left.word + src.source1.word + right.word), ())
    if rho_toks:
        rho = _parse_rows(sig, rho_toks, memo)
    else:
        rho = TwoCell(OneCell(left.start, left.word + sig.target(src).word + right.word), ())
    return Step(lam, left, inner, right, rho)


def render_three(sig: Signature, F: ThreeCell) -> str:
    if not F.steps:
        return f"id2({render_two(sig, F.source2)})"
    return "|".join(render_step(sig, s) for s in F.steps)


def parse_three(sig: Signature, text: str, qmode: Optional[QMode]) -> ThreeCell:
    """The checked 3-cell ``text``: ``id2(2-cell)`` or ``|``-joined steps."""
    return _parse_three(sig, text, qmode, {})


def _parse_three(sig: Signature, text: str, qmode: Optional[QMode], memo: dict) -> ThreeCell:
    """``parse_three``, its whiskers read through ``memo`` (see ``_parse_whisker``)."""
    text = text.strip()
    if text.startswith("id2(") and text.endswith(")"):
        return ThreeCell(_parse_two(sig, text[4:-1], memo), ())
    steps = tuple(_parse_step(sig, step, qmode, memo) for step in _split_top(text, "|"))
    cell = ThreeCell(sig.step_source(steps[0]), steps)
    # This one check also types every step, so _parse_step checks none:
    # step 1's source is the checked ``source2``, each later step's source
    # must equal the previous step's target, and ``step_source`` and
    # ``step_target`` refuse a step whose parts do not meet.
    sig.check3(cell)
    return cell


# ---------------------------------------------------------------- cells, generic


def parse_cell(sig: Signature, text: str, qmode: Optional[QMode] = None):
    """Parse the linear notation for a 1-, 2- or 3-cell.

    Text that spells no well-typed cell raises ``ParseError``."""
    text = text.strip()
    with _reported():
        if text.startswith("{") or text.startswith("id2("):
            return parse_three(sig, text, qmode)
        if text.startswith("id(") or text.startswith("[") or (text.startswith("(") and "|" in text):
            return parse_two(sig, text)
        return _parse_word(sig, text, None, "cell")


def render_cell(sig: Signature, cell, fmt: str = "linear") -> str:
    """Render a cell in one of ``RENDER_FORMATS``."""
    if fmt not in _RENDERERS:
        raise CellError(f"unknown render format {fmt!r}")
    return _RENDERERS[fmt](sig, cell)


def _render_linear(sig: Signature, cell) -> str:
    if isinstance(cell, OneCell):
        return _render_word(cell)
    if isinstance(cell, TwoCell):
        return render_two(sig, cell, linear=True)
    if isinstance(cell, ThreeCell):
        return render_three(sig, cell)
    raise CellError(f"not a cell: {cell!r}")


def render_ascii(sig: Signature, cell) -> str:
    if isinstance(cell, OneCell):
        return " ".join(cell.word) if cell.word else f"(empty at {cell.start})"
    if isinstance(cell, ThreeCell):
        parts = [render_ascii(sig, cell.source2)]
        for s in cell.steps:
            parts += ["  =>", render_ascii(sig, sig.step_target(s))]
        return "\n".join(parts)
    lines = [" ".join(sig.source(cell).word) or "(empty)"]
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


# format name -> renderer(sig, cell); ``linear`` is re-parseable, ascii and tikz are not
_RENDERERS = {"linear": _render_linear, "ascii": render_ascii, "tikz": render_tikz}
RENDER_FORMATS = tuple(_RENDERERS)


# ---------------------------------------------------------------- presentation files


def serialize_presentation(pres: GrayPresentation) -> str:
    sig = pres.sig
    out = [f"presentation {pres.name}"]
    for x in sig.zero:
        out.append(f"0 {x}")
    for g, (s, t) in sig.one.items():
        out.append(f"1 {g} : {s} -> {t}")
    for g, (s, t) in sig.two.items():
        out.append(f"2 {g} : {_render_word(s)} => {_render_word(t)}")
    for g, (s, t) in sig.three.items():
        out.append(f"3 {g} : {render_two(sig, s)} => {render_two(sig, t)}")
    if pres.qmode is not None:
        out.append(f"qmode {pres.qmode.eta} {pres.qmode.eps}")
    for tile in pres.tiles:
        out.append(f"tile {tile.name} : {render_three(sig, tile.lhs)} == {render_three(sig, tile.rhs)}")
    return "\n".join(out) + "\n"


# directive -> (what it declares, its sides ``LEFT SEP RIGHT``); each line
# ``DIRECTIVE NAME : LEFT SEP RIGHT`` is split at the first ``SEP``
_DECLARATIONS: Dict[str, Tuple[str, str]] = {
    "1": ("1-generator", "SRC -> TGT"),
    "2": ("2-generator", "SRC => TGT"),
    "3": ("3-generator", "SRC => TGT"),
    "tile": ("tile", "LHS == RHS"),
}


def _declared_name(kind: str, name: str, lineno: int) -> str:
    """``name``, unless it is empty or holds whitespace: words split at
    whitespace, so no word or ``qmode`` line could name such a generator."""
    if not name:
        raise ParseError(f"{kind} needs a name", lineno)
    if len(name.split()) > 1:
        raise ParseError(f"{kind} name {name!r} contains whitespace", lineno)
    return name


def parse_presentation(text: str) -> GrayPresentation:
    """Parse and validate a presentation file; a bad file raises ``ParseError``.

    The 0- and 1-generators are typed first, then the 2-generators over
    them, the 3-generators over those, and last the tiles.  A typing
    error names the declaration and its line.  Each stage is typed once:
    the words of a 2-generator as they are read, the sides of a
    3-generator by ``parse_two``'s check, each tile side by
    ``parse_three``'s.  ``Signature._extended`` then adds each stage's
    generators without checking their sides again, and the presentation
    is marked ``tiles_typed`` so that its validation does not check the
    tiles again.  Both are sound because the sides were checked over a
    signature with the same generators of lower dimension, and a
    signature never changes.
    """
    name = ""
    zero: List[str] = []
    declared: Dict[str, List[Tuple[str, str, str, int]]] = {d: [] for d in _DECLARATIONS}
    qmode: Optional[QMode] = None
    given: set = set()  # the directives a file gives at most once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("presentation", "qmode"):
            if head in given:
                raise ParseError(f"repeated {head} line", lineno)
            given.add(head)
        if head in _DECLARATIONS:
            kind, sides = _DECLARATIONS[head]
            gen, _, body = rest.partition(":")
            left, sep, right = body.partition(sides.split()[1])
            if not sep:
                raise ParseError(f"{kind} needs {sides}", lineno)
            declared[head].append((_declared_name(kind, gen.strip(), lineno), left.strip(), right.strip(), lineno))
        elif head == "presentation":
            name = rest
        elif head == "0":
            zero.append(_declared_name("0-generator", rest, lineno))
        elif head == "qmode":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("qmode needs two 2-generator names", lineno)
            qmode = QMode(parts[0], parts[1])
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    one = [(gen, src, tgt) for gen, src, tgt, _ in declared["1"]]
    with _reported():
        sig = Signature(zero=zero, one=one)
    two = []
    for gen, sraw, traw, lineno in declared["2"]:
        with _reported(f"2-generator {gen}: ", lineno):
            two.append((gen, _parse_word(sig, sraw, None), _parse_word(sig, traw, None)))
    with _reported():
        sig = sig._extended(two=two)
    memo: dict = {}
    three = []
    for gen, sraw, traw, lineno in declared["3"]:
        with _reported(f"3-generator {gen}: ", lineno):
            three.append((gen, _parse_two(sig, sraw, memo), _parse_two(sig, traw, memo)))
    with _reported():
        sig = sig._extended(three=three)
    tiles = []
    for tag, lraw, rraw, lineno in declared["tile"]:
        with _reported(f"tile {tag}: ", lineno):
            tiles.append(Tile(tag, _parse_three(sig, lraw, qmode, memo), _parse_three(sig, rraw, qmode, memo)))
    pres = GrayPresentation(name, sig, tuple(tiles), qmode)
    object.__setattr__(pres, "tiles_typed", True)
    return pres
