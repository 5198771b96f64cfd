"""Shared fixtures: builtin entries and the oracle table on small pseudomonoid
cells.  The generated inputs are drawn from ``tools/inputs.py``, imported as
``inputs``, and the oracles from ``tools/reference.py``, imported as
``reference``."""

import itertools
import random
from dataclasses import dataclass

import pytest

from graypol import Branching, OneCell, find_redexes, get_builtin, length

from inputs import enumerate_two_cells
from reference import brute_force_criticals, natural_branchings, oracle_classify


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

