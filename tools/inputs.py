"""The generated inputs of the tests and of ``tools/differential.py``, drawn in one place.

Random 1- and 2-cells, every composable word and every 2-cell of a few
letters or rows, random presentations (as ``.gray`` text, or positive
ones built directly), the shipped presentation files with tokens or tile
steps mutated, random text, token soup and numeric cell text for the
parsers, random expressions, random linear interpretations, combs,
chains and disjoint copies, and the names of the Gray-mode builtins.  Each random generator draws from the
``random.Random`` it is given, so a seed fixes its draws;
``tests/test_inputs.py`` pins them.

The tests import this module as ``inputs`` (``tools`` is on pytest's
``pythonpath``); the differential tool imports it from its own directory.
Each generator imports ``graypol`` when it runs, so the tool's
``--against TREE`` draws with the graypol of ``TREE/src``.
"""

import dataclasses
import functools
import random
import re
import string
import unicodedata
from pathlib import Path

# ---------------------------------------------------------------- cells


def random_one_cell(sig, rng: random.Random, max_len=4, start=None):
    """A random composable word of at most ``max_len`` letters."""
    from graypol import OneCell

    if start is None:
        start = rng.choice(sig.zero)
    word = []
    here = start
    for _ in range(rng.randrange(max_len + 1)):
        outgoing = [g for g, (s, _) in sig.one.items() if s == here]
        if not outgoing:
            break
        g = rng.choice(outgoing)
        word.append(g)
        here = sig.one[g][1]
    return OneCell(start, tuple(word))


def _whisker_options(sig, level):
    """Each way to whisker one 2-generator below a cell with target ``level``, as
    ``(generator, cut)``: in generator order, then by position in ``level``."""
    from graypol import OneCell

    w = level.word
    options = []
    for gen, (src, _) in sig.two.items():
        n = len(src.word)
        for cut in range(len(w) - n + 1):
            if tuple(w[cut : cut + n]) == src.word and sig.end0(OneCell(level.start, w[:cut])) == src.start:
                options.append((gen, cut))
    return options


def _whiskered_below(sig, cell, level, gen, cut):
    """``cell`` (with target ``level``) followed by ``gen`` whiskered at ``cut`` of ``level``."""
    from graypol import OneCell

    end = cut + len(sig.src1(gen).word)
    pre = OneCell(level.start, level.word[:cut])
    post = OneCell(sig.end0(sig.make1(level.start, level.word[:end])), level.word[end:])
    return sig.compose(cell, sig.whisker0(pre, sig.gen2_cell(gen), post), 1)


def random_two_cell(sig, rng: random.Random, rows=3, max_pad=2, start_cell=None):
    """Random whisker chain; rows may fall short when no generator embeds."""
    level = start_cell if start_cell is not None else random_one_cell(sig, rng, max_pad + 2)
    cell = sig.id2(level)
    for _ in range(rows):
        options = _whisker_options(sig, level)
        if not options:
            break
        cell = _whiskered_below(sig, cell, level, *rng.choice(options))
        level = sig.target(cell)
    return cell


def words_from(sig, start, max_len: int):
    """Every composable word of at most ``max_len`` letters starting at ``start``:
    the empty word, then the words of each length in turn."""
    from graypol import OneCell

    out = [OneCell(start, ())]
    frontier = out[:]
    for _ in range(max_len):
        frontier = [
            OneCell(u.start, u.word + (g,))
            for u in frontier
            for g, (s, _) in sig.one.items()
            if s == sig.end0(u)
        ]
        out.extend(frontier)
    return out


def enumerate_two_cells(sig, max_rows: int, start_words):
    """All whisker chains up to ``max_rows`` over the given source 1-cells."""
    frontier = [sig.id2(u) for u in start_words]
    out = list(frontier)
    for _ in range(max_rows):
        levels = [(cell, sig.target(cell)) for cell in frontier]
        frontier = [
            _whiskered_below(sig, cell, level, gen, cut)
            for cell, level in levels
            for gen, cut in _whisker_options(sig, level)
        ]
        out.extend(frontier)
    return out


def random_path(pres, rng: random.Random, phi, max_steps: int):
    """Up to ``max_steps`` rewriting steps out of ``phi``, each one of the redexes of the
    cell the last reached; fewer when a normal form comes first."""
    from graypol import find_redexes

    steps, cur = [], phi
    for _ in range(max_steps):
        options = find_redexes(pres, cur)
        if not options:
            break
        steps.append(rng.choice(options))
        cur = pres.sig.step_target(steps[-1])
    return steps


def step_mutants(s, other):
    """``s`` with its ``lam``, ``left``, ``right`` or ``rho`` swapped with ``other``'s,
    or cut by one row (the last of ``lam``, the first of ``rho``) or one letter
    (the first of ``left``, the last of ``right``), each with the name of its change.
    Also ``lam`` with its first row made its last and ``rho`` with its last row made
    its first: only their inner rows are wrong, so every junction of the step still holds."""
    from graypol import OneCell, TwoCell

    for name in ("lam", "left", "right", "rho"):
        yield f"swap-{name}", dataclasses.replace(s, **{name: getattr(other, name)})
    for name in ("lam", "rho"):
        cell = getattr(s, name)
        if cell.whiskers:
            rows = cell.whiskers[:-1] if name == "lam" else cell.whiskers[1:]
            yield f"cut-{name}", dataclasses.replace(s, **{name: TwoCell(cell.source1, rows)})
        if len(cell.whiskers) > 1:
            rows = cell.whiskers[-1:] + cell.whiskers[1:] if name == "lam" else cell.whiskers[:-1] + cell.whiskers[:1]
            yield f"repeat-{name}", dataclasses.replace(s, **{name: TwoCell(cell.source1, rows)})
    for name in ("left", "right"):
        word = getattr(s, name)
        if word.word:
            cut = word.word[1:] if name == "left" else word.word[:-1]
            yield f"cut-{name}", dataclasses.replace(s, **{name: OneCell(word.start, cut)})


def comb(n: int, left: bool = True):
    """A pseudomonoid comb of ``n`` multiplications on ``n + 1`` wires: each row multiplies
    the two leftmost wires (a left comb), or else the two rightmost (a right comb)."""
    from graypol import OneCell, TwoCell, Whisker2

    ends = OneCell("x", ())
    pads = [OneCell("x", ("a",) * (n - 1 - i)) for i in range(n)]
    rows = (Whisker2(ends, "mu", pad) if left else Whisker2(pad, "mu", ends) for pad in pads)
    return TwoCell(OneCell("x", ("a",) * (n + 1)), tuple(rows))


def random_zigzag(pres, rng: random.Random, phi, pieces: int):
    """A zigzag of ``pieces`` pieces out of ``phi``.  Each is an identity (one time in
    five, and whenever no redex is left), the inverse of the piece before (one time in
    five), or else a step to one of the redexes."""
    from graypol import ThreeCell, find_redexes, zz_compose, zz_identity, zz_invert, zz_of

    sig = pres.sig
    z, last = zz_identity(sig, phi), None
    for _ in range(pieces):
        roll = rng.random()
        options = find_redexes(pres, z.target2)
        if roll < 0.2 or not options:
            piece = zz_of(sig, ThreeCell(z.target2, ()))
        elif roll < 0.4 and last is not None:
            piece = zz_invert(last)
        else:
            piece = zz_of(sig, sig.step_cell(rng.choice(options)))
        z, last = zz_compose(sig, z, piece), piece
    return z


def zigzag_alphabet():
    """A one-wire signature with 2-generators ``p, q : a a => a`` and three parallel
    3-generators ``F, G, H : p => q``, and the 3-cells of ``F``, ``G`` and ``H``."""
    from graypol import OneCell, OpGen, Signature

    a, aa = OneCell("x", ("a",)), OneCell("x", ("a", "a"))
    two = [("p", aa, a), ("q", aa, a)]
    base = Signature(zero=["x"], one=[("a", "x", "x")], two=two)
    p, q = base.gen2_cell("p"), base.gen2_cell("q")
    sig = Signature(zero=["x"], one=[("a", "x", "x")], two=two, three=[("F", p, q), ("G", p, q), ("H", p, q)])
    return sig, [sig.gen3_cell(OpGen(n)) for n in ("F", "G", "H")]


def enumerate_zigzags(sig, cells, max_len: int):
    """Every zigzag of at most ``max_len`` of the parallel ``cells``, each forward or
    backward, out of their common source, then out of their common target."""
    from graypol import zz_compose, zz_identity, zz_of

    out = []

    def extend(z, remaining):
        out.append(z)
        if remaining == 0:
            return
        for c in cells:
            for sign in (1, -1):
                piece = zz_of(sig, c, sign)
                if z.target2 == piece.source2:
                    extend(zz_compose(sig, z, piece), remaining - 1)

    extend(zz_identity(sig, sig.source(cells[0])), max_len)
    extend(zz_identity(sig, sig.target(cells[0])), max_len)
    return out


# ---------------------------------------------------------------- presentations


# the builtins whose engine mode is Gray (not q)
GRAY_BUILTINS = ["pseudomonoid", "pseudoadjunction", "selfduality", "frobenius"]


def chain(n: int) -> str:
    """A ``.gray`` file: a cap, ``n`` rewrites of its wire and a cup at one 0-cell, beside an
    unrelated shrinking rule."""
    lines = [f"presentation chain{n}", "0 x", "1 h : x -> x"] + [f"1 a{i} : x -> x" for i in range(n + 1)]
    lines += ["2 cap : @x => a0"] + [f"2 r{i} : a{i - 1} => a{i}" for i in range(1, n + 1)]
    lines += [f"2 cup : a{n} => @x", "2 k : h => h", "3 K : [.|k|.] => id(h)"]
    return "\n".join(lines) + "\n"


_NAME = re.compile(r"[^\s\[\]|;(),@:]+")


def disjoint_copies(text: str, k: int) -> str:
    """``k`` copies of a Gray-mode ``.gray`` file that share no generator.

    The tile lines are dropped, and copy ``c`` renames every 0-, 1-, 2-
    and 3-generator ``NAME`` to ``NAME_c``; its analysis is that of the
    file, ``k`` times over.
    """
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("tile ")]
    names = {line.split()[1] for line in lines[1:] if line.split()[0] in ("0", "1", "2", "3")}
    out = [f"{lines[0]}-x{k}"]
    for c in range(1, k + 1):
        rename = lambda m: f"{m.group()}_{c}" if m.group() in names else m.group()
        out += [_NAME.sub(rename, line) for line in lines[1:]]
    return "\n".join(out) + "\n"


def _word(n: int) -> str:
    return " ".join(["a"] * n) or "."


def random_presentation_text(rng: random.Random, index: int) -> str:
    """A one-wire presentation as ``.gray`` text: one or two 2-generators, and
    3-generators between random parallel 2-cells of one or two rows."""
    gens = {}
    lines = [f"presentation draw{index}", "0 x", "1 a : x -> x"]
    for name in ("u", "v")[: rng.randint(1, 2)]:
        gens[name] = (rng.randint(0, 2), rng.randint(1, 2))
        lines.append(f"2 {name} : {_word(gens[name][0])} => {_word(gens[name][1])}")
    by_boundary = {}
    for _ in range(24):
        start = cur = rng.randint(0, 3)
        rows = []
        for _ in range(rng.randint(1, 2)):
            options = [(g, p) for g, (s, _) in gens.items() for p in range(cur - s + 1)]
            if not options:
                break
            g, p = rng.choice(options)
            s, t = gens[g]
            rows.append(f"[{_word(p)}|{g}|{_word(cur - p - s)}]")
            cur += t - s
        if rows:
            by_boundary.setdefault((start, cur), set()).add(";".join(rows))
    count = 0
    for cells in by_boundary.values():
        if len(cells) >= 2 and count < 2:
            src, tgt = rng.sample(sorted(cells), 2)
            lines.append(f"3 G{count} : {src} => {tgt}")
            count += 1
    return "\n".join(lines) + "\n"


def random_positive_presentation(seed, identity_sources=False):
    """A random one-wire presentation with positive 2-generator targets.

    Its 3-generators have sources of one or two rows, or also of none
    with ``identity_sources``; ``None`` when the draw yields no valid one.
    """
    from graypol import GrayPresentation, OneCell, Signature, length, validate

    r = random.Random(seed)
    two = []
    for n in ["u", "v"][: r.randint(1, 2)]:
        two.append((n, OneCell("x", ("a",) * r.randint(0, 2)), OneCell("x", ("a",) * r.randint(1, 2))))
    base = Signature(zero=["x"], one=[("a", "x", "x")], two=two)
    cells = [
        c
        for c in enumerate_two_cells(base, 2, [OneCell("x", ("a",) * k) for k in range(3)])
        if (0 if identity_sources else 1) <= length(c) <= 2
    ]
    r.shuffle(cells)
    three = []
    for c in cells:
        if len(three) >= r.randint(1, 2):
            break
        for d in cells:
            if d is not c and base.source(d) == base.source(c) and base.target(d) == base.target(c):
                three.append((f"G{len(three)}", c, d))
                break
    if not three:
        return None
    pres = GrayPresentation(
        f"fuzz{seed}", Signature(zero=["x"], one=[("a", "x", "x")], two=two, three=three)
    )
    rep = validate(pres)
    if not rep.ok or not (identity_sources or rep.operational_sources_positive):
        return None
    return pres


def positive_presentations(count):
    """The first ``count`` valid ``random_positive_presentation`` draws."""
    out, seed = [], 0
    while len(out) < count:
        pres = random_positive_presentation(seed)
        if pres is not None:
            out.append(pres)
        seed += 1
    return out


# ---------------------------------------------------------------- files and text

SHIPPED_FILES = sorted((Path(__file__).resolve().parent.parent / "src" / "graypol" / "presentations").glob("*.gray"))


def shipped_texts():
    """The text of each of ``SHIPPED_FILES``."""
    return [path.read_text(encoding="utf-8") for path in SHIPPED_FILES]


def file_tokens():
    """Every token of the shipped files, then pieces of the grammar and numerals."""
    pieces = ["[", "]", "{", "}", "(", ")", "|", ";", ",", "@", "#", "X(", "X'(", "id(", "id2(", "0", "00", "3", "²"]
    return sorted({tok for text in shipped_texts() for tok in text.split()}) + pieces


def mutated_text(rng: random.Random, texts, tokens) -> str:
    """One of ``texts`` with one to four of its space-separated tokens replaced from ``tokens``."""
    lines = [line.split(" ") for line in rng.choice(texts).splitlines()]
    for _ in range(rng.randint(1, 4)):
        toks = rng.choice(lines)
        toks[rng.randrange(len(toks))] = rng.choice(tokens)
    return "\n".join(" ".join(toks) for toks in lines)


# A step of a tile line; the shipped files nest no brace inside a step.
_STEP = re.compile(r"\{[^{}]*\}")


def _with_fields(line: str, step, fields) -> str:
    """``line`` with the step matched by ``step`` written with ``fields``."""
    return line[: step.start()] + "{" + " ; ".join(fields) + "}" + line[step.end() :]


def _drop_brace(rng: random.Random, line: str, steps) -> str:
    """One brace of the line dropped."""
    i = rng.choice([i for i, ch in enumerate(line) if ch in "{}"])
    return line[:i] + line[i + 1 :]


def _swap_fields(rng: random.Random, line: str, steps) -> str:
    """Two ``;`` fields of a step swapped."""
    step = rng.choice(steps)
    fields = step.group()[1:-1].split(" ; ")
    i, j = rng.sample(range(len(fields)), 2)
    fields[i], fields[j] = fields[j], fields[i]
    return _with_fields(line, step, fields)


def _unknown_generator(rng: random.Random, line: str, steps) -> str:
    """A letter of ``zz`` in a row of lam or rho, as the 2-generator or in a context."""
    step = rng.choice(steps)
    fields = step.group()[1:-1].split(" ; ")
    k = rng.choice((0, -1))
    rows = fields[k].split(";")
    r = rng.randrange(len(rows))
    if rows[r].startswith("id("):
        rows[r] = "id(zz)"
    else:
        parts = rows[r][1:-1].split("|")
        parts[rng.randrange(3)] = "zz"
        rows[r] = "[" + "|".join(parts) + "]"
    fields[k] = ";".join(rows)
    return _with_fields(line, step, fields)


def _unbalanced_bracket(rng: random.Random, line: str, steps) -> str:
    """One ``[``, ``]``, ``(`` or ``)`` of a step dropped, or one added."""
    step = rng.choice(steps)
    marks = [i for i in range(step.start() + 1, step.end() - 1) if line[i] in "[]()"]
    if marks and rng.random() < 0.5:
        i = rng.choice(marks)
        return line[:i] + line[i + 1 :]
    i = rng.randrange(step.start() + 1, step.end() - 1)
    return line[:i] + rng.choice("[]()") + line[i:]


def _rho_mismatch(rng: random.Random, line: str, steps) -> str:
    """A step's rho with its last row dropped, or with its rows doubled when it has one,
    so that its target changes: the next step of its side, if any, no longer meets it."""
    inner = [m for m in steps if line[m.end() : m.end() + 1] == "|"]
    step = rng.choice(inner or steps)
    fields = step.group()[1:-1].split(" ; ")
    rows = fields[-1].split(";")
    fields[-1] = ";".join(rows[:-1] if len(rows) > 1 else rows * 2)
    return _with_fields(line, step, fields)


def _joined_steps(rng: random.Random, line: str, steps) -> str:
    """The ``|`` between two steps dropped, so that one ``{...}{...}`` stands for both."""
    cuts = [m.end() for m in steps if line[m.end() : m.end() + 1] == "|"]
    if not cuts:
        return line
    i = rng.choice(cuts)
    return line[:i] + line[i + 1 :]


STEP_MUTATIONS = (_drop_brace, _swap_fields, _unknown_generator, _unbalanced_bracket, _rho_mismatch, _joined_steps)


def step_mutated_text(rng: random.Random, texts, mutate) -> str:
    """One of ``texts`` with one step of one tile line changed by ``mutate``, one of
    ``STEP_MUTATIONS``."""
    lines = rng.choice([text for text in texts if "\ntile " in text]).splitlines()
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith("tile ")])
    lines[k] = mutate(rng, lines[k], list(_STEP.finditer(lines[k])))
    return "\n".join(lines)


# the characters other than ``\n`` at which ``str.splitlines`` breaks a line
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@functools.cache
def _numerals():
    """The characters of categories Nd and No in the Basic Multilingual Plane: the digits
    and other numerals of every script there, of which only ASCII digits spell a number.
    The plane bounds them so that the pinned draws move less with the Unicode version
    of the interpreter."""
    return tuple(chr(c) for c in range(0x10000) if unicodedata.category(chr(c)) in ("Nd", "No"))


def _character(rng: random.Random) -> str:
    """Printable ASCII, a line break, a numeral, or any code point but a surrogate."""
    roll = rng.random()
    if roll < 0.55:
        return rng.choice(string.printable)
    if roll < 0.7:
        return rng.choice(_LINE_BREAKS)
    if roll < 0.85:
        return rng.choice(_numerals())
    c = rng.randrange(0x110000 - 0x800)
    return chr(c + 0x800 if c >= 0xD800 else c)


def random_text(rng: random.Random, max_len: int) -> str:
    """At most ``max_len`` characters of ``_character``."""
    return "".join(_character(rng) for _ in range(rng.randint(0, max_len)))


def random_numerals(rng: random.Random) -> str:
    """One to twelve numerals of categories Nd and No."""
    return "".join(rng.choice(_numerals()) for _ in range(rng.randint(1, 12)))


def token_soup(rng: random.Random, tokens, max_len: int, seps=(" ", "")) -> str:
    """At most ``max_len`` of ``tokens``, joined by one of ``seps``."""
    soup = [rng.choice(tokens) for _ in range(rng.randint(0, max_len))]
    return rng.choice(seps).join(soup)


def random_file_text(rng: random.Random, texts, tokens) -> str:
    """Random text, one of ``texts`` mutated by ``mutated_text``, or up to ten lines,
    each a line of ``texts``, a soup of ``tokens`` or a little random text."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_text(rng, 80)
    if kind == 1:
        return mutated_text(rng, texts, tokens)
    lines = [line for text in texts for line in text.splitlines()]
    out = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(rng.choice(lines))
        elif kind == 1:
            out.append(token_soup(rng, tokens, 14, (" ",)))
        else:
            out.append(random_text(rng, 12))
    return "\n".join(out)


def random_cell_text(rng: random.Random, tokens) -> str:
    """Random text, numerals, or a soup of ``tokens`` joined by a space or by nothing."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_text(rng, 40)
    if kind == 1:
        return random_numerals(rng)
    return token_soup(rng, tokens, 14)


def random_numeric_cell_text(rng: random.Random, gens) -> str:
    """Cell text over a single-wire signature whose words are drawn numbers: a word
    alone, ``id(N)``, or one or two whiskers of the 2-generators ``gens`` with a number,
    ``.`` or ``0`` for each context, as in ``[9999|mu|.]``.  A number is a digit, within
    three of ``MAX_NUMERIC_WORD``, or past it by up to three times it, so a parser
    without the bound builds no word longer than four times it; a number sometimes has
    leading zeros."""
    from graypol.textio import MAX_NUMERIC_WORD

    def number():
        roll = rng.random()
        if roll < 0.3:
            n = rng.randint(0, 9)
        elif roll < 0.65:
            n = MAX_NUMERIC_WORD + rng.randint(-3, 3)
        else:
            n = rng.randint(MAX_NUMERIC_WORD + 1, 4 * MAX_NUMERIC_WORD)
        return "0" * rng.choice((0, 0, 0, 1, 3)) + str(n)

    def context():
        return number() if rng.random() < 0.5 else rng.choice((".", "0"))

    kind = rng.randrange(3)
    if kind == 0:
        return number()
    if kind == 1:
        return f"id({number()})"
    return " ; ".join(f"[{context()}|{rng.choice(gens)}|{context()}]" for _ in range(rng.randint(1, 2)))


# ---------------------------------------------------------------- expressions


def _meeting_one_cell(sig, rng: random.Random, point, ends: bool):
    """A 1-cell of at most one letter that ends (``ends``) or starts at ``point``."""
    from graypol import OneCell

    fits = [g for g, (s, t) in sig.one.items() if (t if ends else s) == point]
    if fits and rng.random() < 0.6:
        g = rng.choice(fits)
        return OneCell(sig.one[g][0], (g,))
    return OneCell(point, ())


def random_rough_expression(sig, rng: random.Random, top: int):
    """A random expression of top dimension 2 or 3, grown from a leaf.

    A one-sided composite's cell meets the expression's boundary most of
    the time; the rest are ill-typed on purpose, and so are a few leaves
    and composition dimensions.
    """
    from graypol import CellError, EGen, EId, ELowL, ELowR, ETop, OneCell, OpGen, typecheck

    def leaf():
        roll = rng.random()
        if roll < 0.2:
            return EId(random_two_cell(sig, rng, 1) if top == 3 else OneCell(rng.choice(sig.zero), ()))
        if roll < 0.25:
            return EGen(top, "zz")
        return EGen(top, OpGen(rng.choice(list(sig.three))) if top == 3 else rng.choice(list(sig.two)))

    expr = leaf()
    for _ in range(rng.randint(0, 4)):
        try:
            src, tgt = typecheck(sig, expr, top)
        except CellError:
            src = tgt = None
        kind = rng.randrange(5)
        if kind == 0:
            expr = ETop(expr, EId(tgt) if tgt is not None and rng.random() < 0.5 else leaf())
        elif kind == 1:
            expr = ETop(EId(src) if src is not None and rng.random() < 0.5 else leaf(), expr)
        else:
            i = rng.randrange(top - 1) if rng.random() < 0.9 else top - 1
            left = kind in (2, 3)
            if src is None or i == top - 1:
                cell = OneCell(rng.choice(sig.zero), ())
            elif rng.random() < 0.4:
                cell = random_two_cell(sig, rng, 1) if i else random_two_cell(sig, rng, 0).source1
            elif i == 0:
                low = src if top == 2 else src.source1
                point = low.start if left else sig.end0(low)
                cell = _meeting_one_cell(sig, rng, point, left)
            else:
                cell = sig.id2(sig.source(src) if left else sig.target(src))
            expr = ELowL(i, cell, expr) if left else ELowR(i, expr, cell)
    return expr


def _gen3_pool(sig):
    """The operational 3-generators, and the interchangers with an empty middle word."""
    from graypol import Interchanger, OpGen

    pool = [OpGen(n) for n in sig.three]
    for alpha in sig.two:
        for beta in sig.two:
            start = sig.end0(sig.src1(alpha))
            if sig.src1(beta).start == start:
                pool.append(Interchanger(alpha, sig.id1(start), beta))
    return pool


def random_padded_expression(sig, rng, top, max_nodes):
    """A random well-typed expression of top dimension 1, 2 or 3, grown from a leaf by
    identity padding, whiskering and composites with further leaves."""
    from graypol import EGen, EId, ELowL, ELowR, ETop, TypingError, typecheck
    from graypol.expressions import size

    if top == 1:
        leaves = [EGen(1, g) for g in sig.one] + [EId(x) for x in sig.zero]
    elif top == 2:
        leaves = [EGen(2, g) for g in sig.two] + [EId(random_one_cell(sig, rng, 2))]
    else:
        pool = _gen3_pool(sig)
        leaves = [EGen(3, rng.choice(pool))] + [EId(random_two_cell(sig, rng, rows=1))]
    expr = rng.choice(leaves)
    for _ in range(40):
        if size(expr) >= max_nodes:
            break
        kind = rng.randrange(5)
        try:
            src, tgt = typecheck(sig, expr, top)
            if kind == 0:
                expr = ETop(expr, EId(tgt))
            elif kind == 1:
                expr = ETop(EId(src), expr)
            elif kind == 2 and top >= 2:
                here = src.start if top == 2 else src.source1.start
                u = random_one_cell(sig, rng, 2)
                if sig.end0(u) == here:
                    expr = ELowL(0, u, expr)
            elif kind == 3 and top >= 2:
                if top == 2:
                    here = sig.end0(src)
                else:
                    here = sig.end0(src.source1)
                v = random_one_cell(sig, rng, 2, start=here)
                expr = ELowR(0, expr, v)
            elif kind == 4:
                nxt = rng.choice(leaves)
                s2, _ = typecheck(sig, nxt, top)
                if s2 == tgt:
                    expr = ETop(expr, nxt)
        except TypingError:
            continue
    return expr


# ---------------------------------------------------------------- interpretations


def random_interpretation(sig, rng):
    """Random weights of 1 or 2 for the 1-generators, and for each 2-generator an affine
    map with entries below 3 whose every input feeds some output."""
    from graypol import AffineMap, LinearInterpretation

    weights = {g: rng.randrange(1, 3) for g in sig.one}
    maps = {}
    for name, (src, tgt) in sig.two.items():
        m = sum(weights[g] for g in src.word)
        n = sum(weights[g] for g in tgt.word)
        matrix = [[rng.randrange(3) for _ in range(m)] for _ in range(n)]
        for j in range(m if n else 0):
            matrix[rng.randrange(n)][j] += 1
        maps[name] = AffineMap.make(m, matrix, [rng.randrange(3) for _ in range(n)])
    return LinearInterpretation(weights, maps)
