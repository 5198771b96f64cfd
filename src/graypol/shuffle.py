"""Shuffle graphs of two vertically composed 2-cells.

Vertices are order-preserving interleavings of the whisker letters
``l1..lk`` of the first cell with ``r1..rk'`` of the second; edges are
the elementary swaps moving one ``l`` past one ``r``.  Interpreting a
vertex produces the interleaved 2-cell, interpreting an edge produces
the interchange rewriting step between the two interpretations, and the
canonical staircase path interprets to the composite interchanger
3-cell exchanging the two cells entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Tuple

from .cells import (
    CellError,
    Interchanger,
    InternalError,
    Signature,
    Step,
    ThreeCell,
    TwoCell,
    Whisker2,
    length,
    level_at,
)

# binomial growth; no catalog use case exceeds 6
MAX_SHUFFLE_LETTERS = 12

Letter = Tuple[str, int]  # ('l', i) or ('r', j), indices 1-based
Word = Tuple[Letter, ...]


class ShuffleError(CellError):
    pass


@dataclass(frozen=True)
class ShuffleEdge:
    """Swap ``l_i r_j -> r_j l_i`` between ``prefix`` and ``suffix``."""

    prefix: Word
    i: int
    j: int
    suffix: Word

    @property
    def source(self) -> Word:
        return self.prefix + (("l", self.i), ("r", self.j)) + self.suffix

    @property
    def target(self) -> Word:
        return self.prefix + (("r", self.j), ("l", self.i)) + self.suffix


def check_composable0(sig: Signature, phi: TwoCell, psi: TwoCell):
    if sig.end0(sig.source(phi)) != sig.source(psi).start:
        raise ShuffleError("2-cells are not 0-composable")


def _check_size(k: int, kp: int):
    if k + kp > MAX_SHUFFLE_LETTERS:
        raise ShuffleError(
            f"shuffle graph on {k}+{kp} letters exceeds the supported size {MAX_SHUFFLE_LETTERS}"
        )


def _letters(kind: str, n: int) -> Word:
    return tuple((kind, idx) for idx in range(1, n + 1))


def shuffle_words(k: int, kp: int) -> List[Word]:
    """All shuffles of ``l1..lk`` with ``r1..rk'``."""
    _check_size(k, kp)
    ls, rs = _letters("l", k), _letters("r", kp)
    out = []
    for lpos in combinations(range(k + kp), k):
        placed, rest = dict(zip(lpos, ls)), iter(rs)
        out.append(tuple(placed[p] if p in placed else next(rest) for p in range(k + kp)))
    return out


def word_edges(word: Word) -> List[ShuffleEdge]:
    sides = [_side(letter) for letter in word]
    out = []
    for p in range(len(word) - 1):
        if sides[p] < sides[p + 1]:
            out.append(ShuffleEdge(word[:p], word[p][1], word[p + 1][1], word[p + 2 :]))
    return out


def shuffle_graph(sig: Signature, phi: TwoCell, psi: TwoCell):
    """Vertices and edges of the shuffle graph of ``phi`` and ``psi``."""
    check_composable0(sig, phi, psi)
    k, kp = length(phi), length(psi)
    vertices = shuffle_words(k, kp)
    if len(vertices) != comb(k + kp, k):
        raise InternalError(f"shuffle graph on {k}+{kp} letters has {len(vertices)} vertices")
    edges = [e for w in vertices for e in word_edges(w)]
    return vertices, edges


def lindex(word: Word, k: int) -> Dict[int, int]:
    """Position (1-based) of each ``l`` letter in the word."""
    out = {}
    for pos, letter in enumerate(word):
        if not _side(letter):
            out[letter[1]] = pos + 1
    if sorted(out.keys()) != list(range(1, k + 1)):
        raise ShuffleError(f"word is not a shuffle with {k} l-letters")
    return out


def inv(word: Word) -> int:
    """Number of inverted pairs: an ``r`` letter before an ``l`` letter."""
    count = 0
    rs = 0
    for letter in word:
        if _side(letter):
            rs += 1
        else:
            count += rs
    return count


def path_exists(word: Word, word2: Word) -> bool:
    """Reachability in the shuffle graph, by the left-index criterion."""
    k = sum(1 for letter in word if not _side(letter))
    k2 = sum(1 for letter in word2 if not _side(letter))
    if k != k2 or len(word) != len(word2):
        raise ShuffleError("words are not vertices of the same shuffle graph")
    a, b = lindex(word, k), lindex(word2, k)
    return all(a[i] <= b[i] for i in range(1, k + 1))


def _side(letter: Letter) -> int:
    """The cell a letter reads from: 0 for ``l``, 1 for ``r``; ``ShuffleError`` for any other letter."""
    kind, idx = letter
    if kind not in ("l", "r"):
        raise ShuffleError(f"unknown letter {kind}_{idx}")
    return int(kind == "r")


def _row(cells, at, letter: Letter):
    """The side and row of ``letter``, the next unread row of its cell; ``at`` counts rows read."""
    kind, idx = letter
    side = _side(letter)
    rows = cells[side].whiskers
    if idx != at[side] + 1:
        raise ShuffleError(f"expected {kind}_{at[side] + 1}, found {kind}_{idx}")
    if idx > len(rows):
        raise ShuffleError(f"{kind}_{idx} is past the last row of a {len(rows)}-row cell")
    at[side] = idx
    return side, rows[idx - 1]


def _interleave(sig: Signature, cells, at, word: Word) -> TwoCell:
    """The 2-cell of ``word`` read from ``at``: each row whiskered, on the other
    cell's side, by the level that the other cell's letters have reached."""
    source = sig.compose(level_at(sig, cells[0], at[0]), level_at(sig, cells[1], at[1]), 0)
    whiskers = []
    for letter in word:
        side, w = _row(cells, at, letter)
        other = level_at(sig, cells[1 - side], at[1 - side])
        left = sig.compose(other, w.left, 0) if side else w.left
        right = w.right if side else sig.compose(w.right, other, 0)
        whiskers.append(Whisker2(left, w.gen, right))
    return TwoCell(source, tuple(whiskers))


def interp_vertex(sig: Signature, word: Word, i: int, j: int, phi: TwoCell, psi: TwoCell) -> TwoCell:
    """Interleaved 2-cell of a shuffle of ``l_i..`` and ``r_j..``.

    ``i`` and ``j`` locate the first letters the word may draw from;
    the boundary state on each side starts just before them.
    """
    for kind, first, cell in (("l", i, phi), ("r", j, psi)):
        if not 1 <= first <= length(cell) + 1:
            raise ShuffleError(f"first letter {kind}_{first} is outside {kind}_1..{kind}_{length(cell) + 1}")
    return _interleave(sig, (phi, psi), [i - 1, j - 1], word)


def interp_edge(sig: Signature, edge: ShuffleEdge, phi: TwoCell, psi: TwoCell) -> Step:
    """Interchange rewriting step between the two endpoint interpretations."""
    cells, at = (phi, psi), [0, 0]
    lam = _interleave(sig, cells, at, edge.prefix)
    _, wl = _row(cells, at, ("l", edge.i))
    _, wr = _row(cells, at, ("r", edge.j))
    inner = Interchanger(wl.gen, sig.compose(wl.right, wr.left, 0), wr.gen)
    return Step(lam, wl.left, inner, wr.right, _interleave(sig, cells, at, edge.suffix))


def sigma_path(sig: Signature, phi: TwoCell, psi: TwoCell) -> List[ShuffleEdge]:
    """Canonical staircase path from ``l..l r..r`` to ``r..r l..l``.

    Moves the last ``l`` letter across all ``r`` letters, then the next
    one, and so on; its length is ``k * k'``.
    """
    check_composable0(sig, phi, psi)
    k, kp = length(phi), length(psi)
    _check_size(k, kp)
    ls, rs = _letters("l", k), _letters("r", kp)
    return [
        ShuffleEdge(ls[: p - 1] + rs[: q - 1], p, q, rs[q:] + ls[p:])
        for p in range(k, 0, -1)
        for q in range(1, kp + 1)
    ]


def big_x(sig: Signature, phi: TwoCell, psi: TwoCell) -> ThreeCell:
    """Composite interchanger 3-cell exchanging ``phi`` past ``psi``."""
    path = sigma_path(sig, phi, psi)
    start = interp_vertex(sig, _letters("l", length(phi)) + _letters("r", length(psi)), 1, 1, phi, psi)
    return ThreeCell(start, tuple(interp_edge(sig, e, phi, psi) for e in path))
