"""Built-in presentations and their expected statistics.

Each builtin is defined once, by its file ``presentations/NAME.gray``
shipped inside the package; ``get_builtin`` parses that file, and a
shipped file that cannot be read or parsed is a defect of graypol, an
``InternalError`` naming the file, not a user's parse error.  Tiles
are part of the file: they are the joins the coherence engine computes
for the tile-free presentation, renamed ``R1``, ``R2``, ...  The table
below adds what a file does not say: the linear interpretation when
one certifies termination, the expected critical branching count, and
the expected certification strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional, Tuple

from .cells import InternalError
from .presentation import GrayPresentation
from .termination import AffineMap, LinearInterpretation
from .textio import ParseError, parse_presentation

BUILTIN_NAMES = ("pseudomonoid", "pseudoadjunction", "selfduality", "selfduality-q", "frobenius")

_PSEUDOMONOID_INTERP = LinearInterpretation(
    weights={"a": 1},
    maps={
        "mu": AffineMap.make(2, [[2, 1]], [1]),
        "eta": AffineMap.make(0, [[]], [1]),
    },
)

# name: (interpretation, expected critical count, expected strategy)
_METADATA = {
    "pseudomonoid": (_PSEUDOMONOID_INTERP, 5, "interp"),
    "pseudoadjunction": (None, 2, "connected"),
    "selfduality": (None, None, None),
    "selfduality-q": (None, None, "selfdual"),
    "frobenius": (None, 19, None),
}


@dataclass(frozen=True)
class BuiltinEntry:
    name: str
    presentation: GrayPresentation
    interpretation: Optional[LinearInterpretation]
    expected_critical: Optional[int]
    expected_strategy: Optional[str]
    tile_names: Tuple[str, ...]


@lru_cache(maxsize=None)
def get_builtin(name: str) -> BuiltinEntry:
    if name not in _METADATA:
        raise KeyError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    path = resources.files(__package__) / "presentations" / f"{name}.gray"
    try:
        pres = parse_presentation(path.read_text(encoding="utf-8"))
    except (OSError, ParseError) as exc:
        # the file ships with graypol: failing to read or parse it is a defect
        raise InternalError(f"builtin file {path}: {exc}") from exc
    tile_names = tuple(t.name for t in pres.tiles)
    return BuiltinEntry(name, pres, *_METADATA[name], tile_names)

