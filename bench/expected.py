"""Known answers the benchmark checks its outputs against.

The catalog answers are what the ``graypol`` command returns today for
each shipped presentation (``report`` at ``--max-steps 30``).  A file
presentation carries no interpretation, so ``pseudomonoid.gray`` is
refused termination and its report is ``inconclusive``, unlike
``builtin:pseudomonoid``.  The sweep tallies count the classes that
``classify`` returns on every ordered pair of redexes of every 2-cell
with at most ``rows`` rows over source words of at most ``letters``
letters.
"""

import os


def catalog_key(source):
    if source.startswith("builtin:"):
        return source
    return "file:" + os.path.splitext(os.path.basename(source))[0]


def _answer(codes, count, strategy, verdict, branchings):
    return {"codes": codes, "count": count, "strategy": strategy, "verdict": verdict, "branchings": branchings}


# exit codes of (validate, critical-pairs, check-termination, report)
CATALOG = {
    "builtin:pseudomonoid": _answer((0, 0, 0, 0), 5, "interp", "coherent-by-squier", 5),
    "builtin:pseudoadjunction": _answer((0, 0, 0, 0), 2, "connected", "coherent-by-squier", 2),
    "builtin:selfduality": _answer((0, 0, 1, 1), 4, None, "inconclusive", 4),
    "builtin:selfduality-q": _answer((0, 1, 0, 1), None, "selfdual", None, None),
    "builtin:frobenius": _answer((0, 0, 1, 1), 19, None, "inconclusive", 19),
    "file:pseudomonoid": _answer((0, 0, 1, 1), 5, None, "inconclusive", 5),
    "file:pseudoadjunction": _answer((0, 0, 0, 0), 2, "connected", "coherent-by-squier", 2),
    "file:selfduality": _answer((0, 0, 1, 1), 4, None, "inconclusive", 4),
    "file:selfduality-q": _answer((0, 1, 0, 1), None, "selfdual", None, None),
    "file:frobenius": _answer((0, 0, 1, 1), 19, None, "inconclusive", 19),
}

SWEEP = {
    "pseudomonoid": {
        "rows": 4,
        "letters": 4,
        "keys": 5,
        "tally": {
            "cells": 12116,
            "redexes": 19098,
            "Trivial": 19098,
            "NonMinimal": 13916,
            "Independent": 2290,
            "Natural": 128,
            "Critical": 10,
        },
    },
    "pseudoadjunction": {
        "rows": 3,
        "letters": 4,
        "keys": 2,
        "tally": {"cells": 517, "redexes": 526, "Trivial": 526, "NonMinimal": 166, "Natural": 42, "Critical": 4},
    },
    "frobenius": {
        "rows": 3,
        "letters": 4,
        "keys": 10,
        "tally": {"cells": 769, "redexes": 700, "Trivial": 700, "NonMinimal": 144, "Natural": 60, "Critical": 20},
    },
}

# The same sweeps at a tiny size, for the smoke mode.
SWEEP_SMOKE = {
    "pseudomonoid": {
        "rows": 3,
        "letters": 3,
        "keys": 4,
        "tally": {"cells": 575, "redexes": 592, "Trivial": 592, "NonMinimal": 148, "Natural": 74, "Critical": 8},
    },
    "pseudoadjunction": {
        "rows": 3,
        "letters": 3,
        "keys": 2,
        "tally": {"cells": 263, "redexes": 262, "Trivial": 262, "NonMinimal": 76, "Natural": 26, "Critical": 4},
    },
    "frobenius": {
        "rows": 3,
        "letters": 3,
        "keys": 9,
        "tally": {"cells": 297, "redexes": 262, "Trivial": 262, "NonMinimal": 44, "Natural": 22, "Critical": 18},
    },
}
