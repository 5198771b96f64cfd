"""Shared fixtures: builtin entries, random cell generators, and the
expression-tree converter used by boundary oracles."""

import itertools
import random
from dataclasses import dataclass

import pytest

from graypol import (
    Branching,
    EGen,
    EId,
    ELowL,
    ELowR,
    ETop,
    OneCell,
    Signature,
    TwoCell,
    find_redexes,
    get_builtin,
    length,
)


@pytest.fixture(scope="session")
def pseudomonoid():
    return get_builtin("pseudomonoid")


@pytest.fixture(scope="session")
def pseudoadjunction():
    return get_builtin("pseudoadjunction")


@pytest.fixture(scope="session")
def selfduality():
    return get_builtin("selfduality")


@pytest.fixture(scope="session")
def selfduality_q():
    return get_builtin("selfduality-q")


@pytest.fixture(scope="session")
def frobenius():
    return get_builtin("frobenius")


@dataclass(frozen=True)
class OracleTable:
    """Definition-level answers on a fixed set of 2-cells.

    ``classes`` maps every ordered pair of redexes of every cell, in scan
    order, to the oracle's class; ``criticals`` is the brute-force list
    of critical branchings, keyed by branching key.
    """

    classes: dict
    criticals: dict


@pytest.fixture(scope="session")
def pseudomonoid_oracle(pseudomonoid):
    """The oracle on every pseudomonoid cell of at most 4 rows over x, a, ..., a^4."""
    from test_rewriting import brute_force_criticals, oracle_classify

    pres = pseudomonoid.presentation
    starts = [OneCell("x", ("a",) * n) for n in range(5)]
    cells = [c for c in enumerate_two_cells(pres.sig, 4, starts) if length(c) <= 4]
    classes = {}
    for phi in cells:
        steps = find_redexes(pres, phi)
        for s1, s2 in itertools.product(steps, steps):
            b = Branching(s1, s2)
            classes[b] = oracle_classify(pres, b)
    return OracleTable(classes, brute_force_criticals(pres, cells, classes))


@pytest.fixture()
def rng():
    return random.Random(20240811)


def random_one_cell(sig: Signature, rng: random.Random, max_len=4, start=None) -> OneCell:
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


def random_two_cell(sig: Signature, rng: random.Random, rows=3, max_pad=2, start_cell=None) -> TwoCell:
    """Random whisker chain; rows may fall short when no generator embeds."""
    level = start_cell if start_cell is not None else random_one_cell(sig, rng, max_pad + 2)
    whiskers = []
    cell = sig.id2(level)
    for _ in range(rows):
        options = []
        for gen, (src, _) in sig.two.items():
            w = level.word
            for cut in range(len(w) - len(src.word) + 1):
                if tuple(w[cut : cut + len(src.word)]) == src.word:
                    pre = OneCell(level.start, w[:cut])
                    if sig.end0(pre) != src.start:
                        continue
                    options.append((gen, cut))
        if not options:
            break
        gen, cut = rng.choice(options)
        src = sig.src1(gen)
        pre = OneCell(level.start, level.word[:cut])
        post_start = sig.end0(sig.make1(level.start, level.word[: cut + len(src.word)]))
        post = OneCell(post_start, level.word[cut + len(src.word) :])
        whisk = sig.whisker0(pre, sig.gen2_cell(gen), post)
        cell = sig.compose(cell, whisk, 1)
        level = sig.target(cell)
    return cell


def two_cell_to_expr(sig: Signature, phi: TwoCell):
    """Whisker-by-whisker expression denoting a 2-cell."""
    if not phi.whiskers:
        return EId(phi.source1)
    parts = []
    for w in phi.whiskers:
        core = EGen(2, w.gen)
        if w.right.word:
            core = ELowR(0, core, w.right)
        if w.left.word:
            core = ELowL(0, w.left, core)
        parts.append(core)
    expr = parts[-1]
    for p in reversed(parts[:-1]):
        expr = ETop(p, expr)
    return expr


def enumerate_two_cells(sig: Signature, max_rows: int, start_words):
    """All whisker chains up to ``max_rows`` over the given source 1-cells."""
    out = []
    frontier = [sig.id2(u) for u in start_words]
    out.extend(frontier)
    for _ in range(max_rows):
        nxt = []
        for cell in frontier:
            level = sig.target(cell)
            for gen, (src, _) in sig.two.items():
                w = level.word
                for cut in range(len(w) - len(src.word) + 1):
                    if tuple(w[cut : cut + len(src.word)]) != src.word:
                        continue
                    pre = OneCell(level.start, w[:cut])
                    if sig.end0(pre) != src.start:
                        continue
                    post_start = sig.end0(sig.make1(level.start, w[: cut + len(src.word)]))
                    post = OneCell(post_start, w[cut + len(src.word) :])
                    whisk = sig.whisker0(pre, sig.gen2_cell(gen), post)
                    nxt.append(sig.compose(cell, whisk, 1))
        out.extend(nxt)
        frontier = nxt
    return out
