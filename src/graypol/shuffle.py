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


def shuffle_words(k: int, kp: int) -> List[Word]:
    """All shuffles of ``l1..lk`` with ``r1..rk'``."""
    _check_size(k, kp)
    out = []
    for lpos in combinations(range(k + kp), k):
        word: List[Letter] = []
        li, ri = 1, 1
        lset = set(lpos)
        for p in range(k + kp):
            if p in lset:
                word.append(("l", li))
                li += 1
            else:
                word.append(("r", ri))
                ri += 1
        out.append(tuple(word))
    return out


def word_edges(word: Word) -> List[ShuffleEdge]:
    out = []
    for p in range(len(word) - 1):
        (ka, ia), (kb, ib) = word[p], word[p + 1]
        if ka == "l" and kb == "r":
            out.append(ShuffleEdge(word[:p], ia, ib, word[p + 2 :]))
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
    for pos, (kind, idx) in enumerate(word):
        if kind == "l":
            out[idx] = pos + 1
    if sorted(out.keys()) != list(range(1, k + 1)):
        raise ShuffleError(f"word is not a shuffle with {k} l-letters")
    return out


def inv(word: Word) -> int:
    """Number of inverted pairs: an ``r`` letter before an ``l`` letter."""
    count = 0
    rs = 0
    for kind, _ in word:
        if kind == "r":
            rs += 1
        else:
            count += rs
    return count


def path_exists(word: Word, word2: Word) -> bool:
    """Reachability in the shuffle graph, by the left-index criterion."""
    k = sum(1 for kind, _ in word if kind == "l")
    k2 = sum(1 for kind, _ in word2 if kind == "l")
    if k != k2 or len(word) != len(word2):
        raise ShuffleError("words are not vertices of the same shuffle graph")
    a, b = lindex(word, k), lindex(word2, k)
    return all(a[i] <= b[i] for i in range(1, k + 1))


def interp_vertex(sig: Signature, word: Word, i: int, j: int, phi: TwoCell, psi: TwoCell) -> TwoCell:
    """Interleaved 2-cell of a shuffle of ``l_i..`` and ``r_j..``.

    ``i`` and ``j`` locate the first letters the word may draw from;
    the boundary state on each side starts just before them.
    """
    start_l, start_r = level_at(sig, phi, i - 1), level_at(sig, psi, j - 1)
    state_l, state_r = start_l, start_r
    want_l, want_r = i, j
    whiskers = []
    for kind, idx in word:
        if kind == "l":
            if idx != want_l:
                raise ShuffleError(f"expected l_{want_l}, found l_{idx}")
            w = phi.whiskers[idx - 1]
            whiskers.append(Whisker2(w.left, w.gen, sig.compose(w.right, state_r, 0)))
            state_l = sig.whisker_target(w)
            want_l += 1
        else:
            if idx != want_r:
                raise ShuffleError(f"expected r_{want_r}, found r_{idx}")
            w = psi.whiskers[idx - 1]
            whiskers.append(Whisker2(sig.compose(state_l, w.left, 0), w.gen, w.right))
            state_r = sig.whisker_target(w)
            want_r += 1
    return TwoCell(sig.compose(start_l, start_r, 0), tuple(whiskers))


def interp_edge(sig: Signature, edge: ShuffleEdge, phi: TwoCell, psi: TwoCell) -> Step:
    """Interchange rewriting step between the two endpoint interpretations."""
    i, j = edge.i, edge.j
    lam = interp_vertex(sig, edge.prefix, 1, 1, phi, psi)
    wl = phi.whiskers[i - 1]
    wr = psi.whiskers[j - 1]
    mid = sig.compose(wl.right, wr.left, 0)
    inner = Interchanger(wl.gen, mid, wr.gen)
    rho = interp_vertex(sig, edge.suffix, i + 1, j + 1, phi, psi)
    return Step(lam, wl.left, inner, wr.right, rho)


def sigma_path(sig: Signature, phi: TwoCell, psi: TwoCell) -> List[ShuffleEdge]:
    """Canonical staircase path from ``l..l r..r`` to ``r..r l..l``.

    Moves the last ``l`` letter across all ``r`` letters, then the next
    one, and so on; its length is ``k * k'``.
    """
    check_composable0(sig, phi, psi)
    k, kp = length(phi), length(psi)
    _check_size(k, kp)
    word: List[Letter] = [("l", i) for i in range(1, k + 1)] + [("r", j) for j in range(1, kp + 1)]
    edges = []
    for p in range(k, 0, -1):
        for q in range(1, kp + 1):
            pos = word.index(("l", p))
            if word[pos + 1] != ("r", q):
                raise InternalError("staircase path lost track of the swap position")
            edges.append(ShuffleEdge(tuple(word[:pos]), p, q, tuple(word[pos + 2 :])))
            word[pos], word[pos + 1] = word[pos + 1], word[pos]
    return edges


def big_x(sig: Signature, phi: TwoCell, psi: TwoCell) -> ThreeCell:
    """Composite interchanger 3-cell exchanging ``phi`` past ``psi``."""
    start = interp_vertex(
        sig,
        tuple([("l", i) for i in range(1, length(phi) + 1)] + [("r", j) for j in range(1, length(psi) + 1)]),
        1,
        1,
        phi,
        psi,
    )
    steps = tuple(interp_edge(sig, e, phi, psi) for e in sigma_path(sig, phi, psi))
    return ThreeCell(start, steps)
