"""Shared fixtures: builtin entries, the expression-tree converter used
by boundary oracles, and ``tools/differential.py`` loaded as the module
``differential``, whose random cell generators the tests use too."""

import importlib.util
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

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


# the builtins whose engine mode is Gray (not q)
GRAY_BUILTINS = ["pseudomonoid", "pseudoadjunction", "selfduality", "frobenius"]

# the differential record set, and the inputs that the tests and the
# record set share: ``disjoint_copies`` of a shipped file, the combs, the
# chains and the random cells
_spec = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)
random_one_cell = differential.random_one_cell
random_two_cell = differential.random_two_cell


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
    of critical branchings, keyed by branching key; ``natural`` is the
    set of natural branchings on the cells, built from the definition.
    """

    classes: dict
    criticals: dict
    natural: frozenset


@pytest.fixture(scope="session")
def pseudomonoid_oracle(pseudomonoid):
    """The oracle on every pseudomonoid cell of at most 4 rows over x, a, ..., a^4."""
    from test_rewriting import brute_force_criticals, natural_branchings, oracle_classify

    pres = pseudomonoid.presentation
    starts = [OneCell("x", ("a",) * n) for n in range(5)]
    cells = [c for c in enumerate_two_cells(pres.sig, 4, starts) if length(c) <= 4]
    natural = frozenset(natural_branchings(pres, cells))
    classes = {}
    for phi in cells:
        steps = find_redexes(pres, phi)
        for s1, s2 in itertools.product(steps, steps):
            b = Branching(s1, s2)
            classes[b] = oracle_classify(pres, b, natural)
    return OracleTable(classes, brute_force_criticals(pres, cells, classes), natural)


@pytest.fixture()
def rng():
    return random.Random(20240811)


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
