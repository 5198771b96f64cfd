"""The generated inputs of the tests and of ``tools/differential.py``, drawn in one place.

Random 1- and 2-cells, every 2-cell of a few rows, random presentations
(as ``.gray`` text, or positive ones built directly), random expressions,
random linear interpretations, combs, chains and disjoint copies, and the
names of the Gray-mode builtins.  Each random generator draws from the
``random.Random`` it is given, so a seed fixes its draws;
``tests/test_inputs.py`` pins them.

The tests import this module as ``inputs`` (``tools`` is on pytest's
``pythonpath``); the differential tool imports it from its own directory.
Each generator imports ``graypol`` when it runs, so the tool's
``--against TREE`` draws with the graypol of ``TREE/src``.
"""

import random
import re

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


def comb(n: int, left: bool = True):
    """A pseudomonoid comb of ``n`` multiplications on ``n + 1`` wires: each row multiplies
    the two leftmost wires (a left comb), or else the two rightmost (a right comb)."""
    from graypol import OneCell, TwoCell, Whisker2

    ends = OneCell("x", ())
    pads = [OneCell("x", ("a",) * (n - 1 - i)) for i in range(n)]
    rows = (Whisker2(ends, "mu", pad) if left else Whisker2(pad, "mu", ends) for pad in pads)
    return TwoCell(OneCell("x", ("a",) * (n + 1)), tuple(rows))


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


def random_typed_expression(sig, rng, max_nodes, top=2):
    """Random well-typed expression built by combining compatible pieces."""
    from graypol import EGen, EId, ELowL, ELowR, ETop, TypingError, typecheck
    from graypol.expressions import size

    pool = []
    for gen in sig.two:
        pool.append(EGen(top, gen))
    for _ in range(3):
        pool.append(EId(random_one_cell(sig, rng, 3)))
    expr = rng.choice(pool)
    while size(expr) < max_nodes:
        kind = rng.randrange(4)
        try:
            if kind == 0:
                src, tgt = typecheck(sig, expr, top)
                nxt = rng.choice(pool)
                s2, _ = typecheck(sig, nxt, top)
                if tgt == s2:
                    expr = ETop(expr, nxt)
                elif typecheck(sig, nxt, top)[1] == src:
                    expr = ETop(nxt, expr)
                else:
                    expr = ETop(expr, EId(tgt))
            elif kind == 1:
                src, _ = typecheck(sig, expr, top)
                u = random_one_cell(sig, rng, 2, start=rng.choice(sig.zero))
                if sig.end0(u) == src.start:
                    expr = ELowL(0, u, expr)
            elif kind == 2:
                src, _ = typecheck(sig, expr, top)
                v = random_one_cell(sig, rng, 2, start=sig.end0(src))
                expr = ELowR(0, expr, v)
            else:
                src, _ = typecheck(sig, expr, top)
                expr = ETop(EId(src), expr)
        except TypingError:
            continue
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
