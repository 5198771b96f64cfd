"""Cells of a free precategory, kept in whisker normal form.

A signature declares generators in dimensions 0 to 3.  Cells over the
signature are represented canonically:

* a 1-cell is a composable word of 1-generators with an explicit start
  0-generator (so that empty words are typed),
* a 2-cell is a vertical (``compose_1``) chain of whiskers
  ``left . gen . right`` with an explicit source 1-cell,
* a 3-cell is a chain of rewriting steps, each of the shape
  ``lam *1 (left *0 inner *0 right) *1 rho`` where ``inner`` names a
  3-dimensional generator instance.

Equality of normal forms is structural equality, which decides equality
of cells in the free precategory.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union


class CellError(Exception):
    """Base class for errors raised by the cell algebra."""


class SignatureError(CellError):
    """A generator declaration is malformed."""


class CompositionError(CellError):
    """Two cells were composed along mismatched boundaries."""


class TypingError(CellError):
    """An expression violates a typing rule; ``rule`` names the rule."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


@dataclass(frozen=True)
class OneCell:
    start: str
    word: Tuple[str, ...]

    def __repr__(self):
        inner = " ".join(self.word) if self.word else f"@{self.start}"
        return f"<1:{inner}>"


@dataclass(frozen=True)
class Whisker2:
    """One 2-generator in a 0-dimensional context: ``left . gen . right``."""

    left: OneCell
    gen: str
    right: OneCell


@dataclass(frozen=True)
class TwoCell:
    source1: OneCell
    whiskers: Tuple[Whisker2, ...]

    def __repr__(self):
        if not self.whiskers:
            return f"<2:id{self.source1!r}>"
        rows = ";".join(
            f"({len(w.left.word)}|{w.gen}|{len(w.right.word)})" for w in self.whiskers
        )
        return f"<2:{rows}>"


@dataclass(frozen=True)
class OpGen:
    """Reference to a named (operational) 3-generator."""

    name: str


@dataclass(frozen=True)
class Interchanger:
    """Interchange generator exchanging ``alpha`` past ``beta`` across ``mid``.

    Boundaries are always computed from the signature, never stored.
    """

    alpha: str
    mid: OneCell
    beta: str


@dataclass(frozen=True)
class QInterchanger:
    """Oriented interchange rule of the self-duality rewriting system.

    ``rev`` selects the orientation: when true the rule rewrites the
    standard interchanger target back to its source.
    """

    alpha: str
    mid: OneCell
    beta: str
    rev: bool


GenInstance = Union[OpGen, Interchanger, QInterchanger]


@dataclass(frozen=True)
class Step:
    """A rewriting step: a 3-dimensional whisker."""

    lam: TwoCell
    left: OneCell
    inner: GenInstance
    right: OneCell
    rho: TwoCell


@dataclass(frozen=True)
class ThreeCell:
    source2: TwoCell
    steps: Tuple[Step, ...]


Cell = Union[OneCell, TwoCell, ThreeCell]


def dim(c: Cell) -> int:
    if isinstance(c, OneCell):
        return 1
    if isinstance(c, TwoCell):
        return 2
    if isinstance(c, ThreeCell):
        return 3
    raise CellError(f"not a cell: {c!r}")


def length(c: Cell) -> int:
    """Whisker count: the length of the top-dimensional composite."""
    if isinstance(c, OneCell):
        return len(c.word)
    if isinstance(c, TwoCell):
        return len(c.whiskers)
    if isinstance(c, ThreeCell):
        return len(c.steps)
    raise CellError(f"not a cell: {c!r}")


def is_identity(c: Cell) -> bool:
    return length(c) == 0


def equals(a: Cell, b: Cell) -> bool:
    """Structural equality of normal forms decides cell equality."""
    return a == b


class Signature:
    """Generator signature in dimensions 0 to 3 with typed boundaries.

    ``three`` holds the operational 3-generators only; interchange
    generators are materialized on demand as :class:`Interchanger`.
    """

    def __init__(
        self,
        zero: Iterable[str] = (),
        one: Iterable[Tuple[str, str, str]] = (),
        two: Iterable[Tuple[str, OneCell, OneCell]] = (),
        three: Iterable[Tuple[str, TwoCell, TwoCell]] = (),
    ):
        self.zero: Tuple[str, ...] = tuple(zero)
        zset = set(self.zero)
        if len(zset) != len(self.zero):
            raise SignatureError("duplicate 0-generator")
        self.one = {}
        for name, s, t in one:
            if name in self.one:
                raise SignatureError(f"duplicate 1-generator {name}")
            if s not in zset or t not in zset:
                raise SignatureError(f"1-generator {name} has undeclared endpoint")
            self.one[name] = (s, t)
        self.two = {}
        for name, s, t in two:
            if name in self.two:
                raise SignatureError(f"duplicate 2-generator {name}")
            self.check1(s)
            self.check1(t)
            if s.start != t.start or self.end0(s) != self.end0(t):
                raise SignatureError(f"2-generator {name}: source and target not parallel")
            self.two[name] = (s, t)
        self.three = {}
        for name, s, t in three:
            if name in self.three:
                raise SignatureError(f"duplicate 3-generator {name}")
            self.check2(s)
            self.check2(t)
            if self.source(s) != self.source(t) or self.target(s) != self.target(t):
                raise SignatureError(f"3-generator {name}: source and target not parallel")
            self.three[name] = (s, t)

    def _data(self):
        return (
            self.zero,
            tuple(self.one.items()),
            tuple(self.two.items()),
            tuple(self.three.items()),
        )

    def __eq__(self, other):
        return isinstance(other, Signature) and self._data() == other._data()

    def __hash__(self):
        return hash(self._data())

    def __repr__(self):
        return (
            f"<Signature {len(self.zero)}/{len(self.one)}/{len(self.two)}/{len(self.three)}>"
        )

    # ---- 1-cells -------------------------------------------------

    def id1(self, x: str) -> OneCell:
        if x not in self.zero:
            raise SignatureError(f"unknown 0-generator {x}")
        return OneCell(x, ())

    def make1(self, start: str, word: Iterable[str]) -> OneCell:
        c = OneCell(start, tuple(word))
        self.check1(c)
        return c

    def word1(self, *gens: str) -> OneCell:
        """1-cell from a nonempty word, inferring the start 0-cell."""
        if not gens:
            raise CellError("word1 needs at least one generator; use id1 for identities")
        if gens[0] not in self.one:
            raise SignatureError(f"unknown 1-generator {gens[0]}")
        return self.make1(self.one[gens[0]][0], gens)

    def check1(self, u: OneCell):
        if u.start not in self.zero:
            raise SignatureError(f"unknown 0-generator {u.start}")
        here = u.start
        for g in u.word:
            if g not in self.one:
                raise SignatureError(f"unknown 1-generator {g}")
            s, t = self.one[g]
            if s != here:
                raise CompositionError(f"1-cell not composable at {g}: expected source {here}, got {s}")
            here = t

    def end0(self, u: OneCell) -> str:
        """Target 0-cell of ``u``; read off its last letter, so ``u`` is not re-checked."""
        if not u.word:
            return u.start
        try:
            return self.one[u.word[-1]][1]
        except KeyError:
            raise SignatureError(f"unknown 1-generator {u.word[-1]}") from None

    # ---- 2-cells -------------------------------------------------

    def src1(self, gen2: str) -> OneCell:
        if gen2 not in self.two:
            raise SignatureError(f"unknown 2-generator {gen2}")
        return self.two[gen2][0]

    def tgt1(self, gen2: str) -> OneCell:
        if gen2 not in self.two:
            raise SignatureError(f"unknown 2-generator {gen2}")
        return self.two[gen2][1]

    def whisker_source(self, w: Whisker2) -> OneCell:
        return self._concat(w.left, self._concat(self.src1(w.gen), w.right))

    def whisker_target(self, w: Whisker2) -> OneCell:
        return self._concat(w.left, self._concat(self.tgt1(w.gen), w.right))

    def id2(self, u: OneCell) -> TwoCell:
        self.check1(u)
        return TwoCell(u, ())

    def gen2_cell(self, name: str) -> TwoCell:
        """The bare 2-generator as a length-one 2-cell."""
        src = self.src1(name)
        w = Whisker2(self.id1(src.start), name, self.id1(self.end0(src)))
        return TwoCell(src, (w,))

    def check2(self, phi: TwoCell):
        self.check1(phi.source1)
        here = phi.source1
        for w in phi.whiskers:
            self.check1(w.left)
            self.check1(w.right)
            if w.gen not in self.two:
                raise SignatureError(f"unknown 2-generator {w.gen}")
            src = self.whisker_source(w)
            if src != here:
                raise CompositionError(
                    f"2-cell whisker chain broken at {w.gen}: expected 1-source {here!r}, got {src!r}"
                )
            here = self.whisker_target(w)

    # ---- 3-generator instances ----------------------------------

    def gen3_source(self, name: str) -> TwoCell:
        if name not in self.three:
            raise SignatureError(f"unknown 3-generator {name}")
        return self.three[name][0]

    def gen3_target(self, name: str) -> TwoCell:
        if name not in self.three:
            raise SignatureError(f"unknown 3-generator {name}")
        return self.three[name][1]

    def interchanger_boundaries(self, alpha: str, mid: OneCell, beta: str) -> Tuple[TwoCell, TwoCell]:
        """Source and target of the interchange generator for ``alpha, mid, beta``.

        Both are 2-whisker cells: the source stacks ``alpha`` above
        ``beta``, shifted left; the target stacks them the other way.
        """
        f, fp = self.two.get(alpha, (None, None))
        if f is None:
            raise SignatureError(f"unknown 2-generator {alpha}")
        h, hp = self.two.get(beta, (None, None))
        if h is None:
            raise SignatureError(f"unknown 2-generator {beta}")
        self.check1(mid)
        if self.end0(f) != mid.start:
            raise CompositionError(f"interchanger: {alpha} not 0-composable with middle word")
        if self.end0(mid) != h.start:
            raise CompositionError(f"interchanger: middle word not 0-composable with {beta}")
        idl = self.id1(f.start)
        idr = self.id1(self.end0(h))
        src = TwoCell(
            self._concat(f, self._concat(mid, h)),
            (
                Whisker2(idl, alpha, self._concat(mid, h)),
                Whisker2(self._concat(fp, mid), beta, idr),
            ),
        )
        tgt = TwoCell(
            self._concat(f, self._concat(mid, h)),
            (
                Whisker2(self._concat(f, mid), beta, idr),
                Whisker2(idl, alpha, self._concat(mid, hp)),
            ),
        )
        return src, tgt

    def inst_source(self, inst: GenInstance) -> TwoCell:
        if isinstance(inst, OpGen):
            return self.gen3_source(inst.name)
        if isinstance(inst, Interchanger):
            return self.interchanger_boundaries(inst.alpha, inst.mid, inst.beta)[0]
        if isinstance(inst, QInterchanger):
            s, t = self.interchanger_boundaries(inst.alpha, inst.mid, inst.beta)
            return t if inst.rev else s
        raise CellError(f"not a 3-generator instance: {inst!r}")

    def inst_target(self, inst: GenInstance) -> TwoCell:
        if isinstance(inst, OpGen):
            return self.gen3_target(inst.name)
        if isinstance(inst, Interchanger):
            return self.interchanger_boundaries(inst.alpha, inst.mid, inst.beta)[1]
        if isinstance(inst, QInterchanger):
            s, t = self.interchanger_boundaries(inst.alpha, inst.mid, inst.beta)
            return s if inst.rev else t
        raise CellError(f"not a 3-generator instance: {inst!r}")

    # ---- steps and 3-cells ---------------------------------------

    def step_source(self, s: Step) -> TwoCell:
        mid = self.whisker0(s.left, self.inst_source(s.inner), s.right)
        return self.compose(self.compose(s.lam, mid, 1), s.rho, 1)

    def step_target(self, s: Step) -> TwoCell:
        mid = self.whisker0(s.left, self.inst_target(s.inner), s.right)
        return self.compose(self.compose(s.lam, mid, 1), s.rho, 1)

    def step_cell(self, s: Step) -> ThreeCell:
        return ThreeCell(self.step_source(s), (s,))

    def id3(self, phi: TwoCell) -> ThreeCell:
        self.check2(phi)
        return ThreeCell(phi, ())

    def gen3_cell(self, inst: GenInstance) -> ThreeCell:
        """The bare 3-generator instance as a length-one 3-cell."""
        src = self.inst_source(inst)
        s1 = src.source1
        step = Step(
            self.id2(s1),
            self.id1(s1.start),
            inst,
            self.id1(self.end0(s1)),
            self.id2(self.target(src)),
        )
        return ThreeCell(src, (step,))

    def check3(self, F: ThreeCell):
        self.check2(F.source2)
        here = F.source2
        for s in F.steps:
            src = self.step_source(s)
            if src != here:
                raise CompositionError(
                    f"3-cell step chain broken: expected 2-source {here!r}, got {src!r}"
                )
            here = self.step_target(s)

    def check(self, c: Cell):
        if isinstance(c, OneCell):
            self.check1(c)
        elif isinstance(c, TwoCell):
            self.check2(c)
        elif isinstance(c, ThreeCell):
            self.check3(c)
        else:
            raise CellError(f"not a cell: {c!r}")

    # ---- boundaries ----------------------------------------------

    def source(self, c: Cell):
        """One-step source boundary (codimension 1)."""
        if isinstance(c, OneCell):
            return c.start
        if isinstance(c, TwoCell):
            return c.source1
        if isinstance(c, ThreeCell):
            return c.source2
        if isinstance(c, Step):
            return self.step_source(c)
        raise CellError(f"not a cell: {c!r}")

    def target(self, c: Cell):
        if isinstance(c, OneCell):
            return self.end0(c)
        if isinstance(c, TwoCell):
            if not c.whiskers:
                return c.source1
            return self.whisker_target(c.whiskers[-1])
        if isinstance(c, ThreeCell):
            if not c.steps:
                return c.source2
            return self.step_target(c.steps[-1])
        if isinstance(c, Step):
            return self.step_target(c)
        raise CellError(f"not a cell: {c!r}")

    def boundary(self, c: Cell, k: int, eps: str):
        """Iterated boundary ``k``-cell of ``c``; ``eps`` is '-' or '+'."""
        if eps not in ("-", "+"):
            raise CellError(f"boundary sign must be '-' or '+', got {eps!r}")
        d = dim(c) if not isinstance(c, Step) else 3
        if not 0 <= k < d:
            raise CellError(f"boundary dimension {k} out of range for a {d}-cell")
        cur = c
        while d > k + 1:
            cur = self.source(cur)
            d -= 1
        return self.source(cur) if eps == "-" else self.target(cur)

    # ---- composition ---------------------------------------------

    def _concat(self, a: OneCell, b: OneCell) -> OneCell:
        if self.end0(a) != b.start:
            raise CompositionError(
                f"1-cells not 0-composable: {a!r} ends at {self.end0(a)}, {b!r} starts at {b.start}"
            )
        return OneCell(a.start, a.word + b.word)

    def compose(self, a, b, i: int):
        """Composite ``a *_i b`` in normal form.

        Defined when the lower of the two dimensions is ``i + 1``;
        whiskering a 2- or 3-cell by a 1-cell, stacking 2-cells, and
        chaining 3-cells are all instances.
        """
        da, db = dim(a), dim(b)
        if min(da, db) != i + 1:
            raise CompositionError(
                f"compose_{i} undefined for dimensions {da} and {db}"
            )
        if da == 1 and db == 1:
            return self._concat(a, b)
        if i == 0 and da == 1 and db == 2:
            if self.end0(a) != b.source1.start:
                raise CompositionError("0-whiskering boundary mismatch (left)")
            return TwoCell(
                self._concat(a, b.source1),
                tuple(Whisker2(self._concat(a, w.left), w.gen, w.right) for w in b.whiskers),
            )
        if i == 0 and da == 2 and db == 1:
            if self.end0(self.source(a)) != b.start:
                raise CompositionError("0-whiskering boundary mismatch (right)")
            return TwoCell(
                self._concat(a.source1, b),
                tuple(Whisker2(w.left, w.gen, self._concat(w.right, b)) for w in a.whiskers),
            )
        if i == 1 and da == 2 and db == 2:
            if self.target(a) != b.source1:
                raise CompositionError(
                    f"2-cells not 1-composable: target {self.target(a)!r} vs source {b.source1!r}"
                )
            return TwoCell(a.source1, a.whiskers + b.whiskers)
        if i == 0 and da == 1 and db == 3:
            return ThreeCell(
                self.compose(a, b.source2, 0),
                tuple(
                    Step(self.compose(a, s.lam, 0), self._concat(a, s.left), s.inner, s.right,
                         self.compose(a, s.rho, 0))
                    for s in b.steps
                ),
            )
        if i == 0 and da == 3 and db == 1:
            return ThreeCell(
                self.compose(a.source2, b, 0),
                tuple(
                    Step(self.compose(s.lam, b, 0), s.left, s.inner, self._concat(s.right, b),
                         self.compose(s.rho, b, 0))
                    for s in a.steps
                ),
            )
        if i == 1 and da == 2 and db == 3:
            if self.target(a) != b.source2.source1:
                raise CompositionError("1-whiskering boundary mismatch (above)")
            return ThreeCell(
                self.compose(a, b.source2, 1),
                tuple(Step(self.compose(a, s.lam, 1), s.left, s.inner, s.right, s.rho) for s in b.steps),
            )
        if i == 1 and da == 3 and db == 2:
            if self.target(self.source(a)) != b.source1:
                raise CompositionError("1-whiskering boundary mismatch (below)")
            return ThreeCell(
                self.compose(a.source2, b, 1),
                tuple(Step(s.lam, s.left, s.inner, s.right, self.compose(s.rho, b, 1)) for s in a.steps),
            )
        if i == 2 and da == 3 and db == 3:
            if self.target(a) != b.source2:
                raise CompositionError("3-cells not 2-composable")
            return ThreeCell(a.source2, a.steps + b.steps)
        raise CompositionError(f"compose_{i} undefined for dimensions {da} and {db}")

    def whisker0(self, left: OneCell, c: Cell, right: OneCell) -> Cell:
        """``left *0 c *0 right`` for a cell of dimension at least 1."""
        out = c
        if dim(c) == 1:
            return self._concat(left, self._concat(c, right))
        out = self.compose(left, out, 0)
        out = self.compose(out, right, 0)
        return out

    def whisker1(self, lam: TwoCell, F: ThreeCell, rho: TwoCell) -> ThreeCell:
        """``lam *1 F *1 rho`` for a 3-cell."""
        return self.compose(self.compose(lam, F, 1), rho, 1)

    # ---- identity on any cell ------------------------------------

    def identity(self, c) -> Cell:
        if isinstance(c, str):
            return self.id1(c)
        if isinstance(c, OneCell):
            return self.id2(c)
        if isinstance(c, TwoCell):
            return ThreeCell(c, ())
        raise CellError(f"cannot form an identity on {c!r}")


def slice2(sig: Signature, phi: TwoCell, lo: int, hi: int) -> TwoCell:
    """Contiguous sub-chain of rows ``lo..hi-1`` of ``phi`` as a 2-cell."""
    if not 0 <= lo <= hi <= len(phi.whiskers):
        raise CellError(f"row slice {lo}:{hi} out of range")
    if lo == 0:
        src = phi.source1
    else:
        src = sig.whisker_target(phi.whiskers[lo - 1])
    return TwoCell(src, phi.whiskers[lo:hi])
