"""Shared fixtures: builtin entries, the oracle table on small pseudomonoid
cells, and the expression-tree converter used by boundary oracles.  The
generated inputs are drawn from ``tools/inputs.py``, imported as ``inputs``."""

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

from inputs import enumerate_two_cells


# the builtins whose engine mode is Gray (not q)
GRAY_BUILTINS = ["pseudomonoid", "pseudoadjunction", "selfduality", "frobenius"]


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

