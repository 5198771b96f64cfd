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
of cells in the free precategory.  All values are immutable.  Every cell
class is declared with :func:`frozen_value`: a frozen, slotted dataclass
whose ``__init__`` stores each field through its slot, so a value costs
less to build while it compares, hashes, prints, copies and pickles as
the plain dataclass does.

A signature memoizes the two sides of every 3-generator instance it has
built, keyed by the instance and the side.  This is sound because a
signature never changes after construction and instances are frozen and
compared by value, so a side, once built and checked, is the side on
every later call; errors are never stored.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Iterable, Tuple, Union


class CellError(Exception):
    """Base class for errors raised by the cell algebra."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect of graypol, never a fault of the input."""


class SignatureError(CellError):
    """A generator declaration is malformed."""


class CompositionError(CellError):
    """Two cells were composed along mismatched boundaries."""


class TypingError(CellError):
    """An expression violates a typing rule; ``rule`` names the rule."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


def frozen_value(cls):
    """``dataclass(frozen=True, slots=True)`` with an ``__init__`` that stores each field through its slot.

    The dataclass's frozen ``__init__`` stores each field with
    ``object.__setattr__``; this one calls each slot's own member
    descriptor, and is generated once per class, with the same parameter
    names, order, annotations and ``__qualname__``.  Everything else is
    the dataclass's: ``__eq__``, ``__hash__`` (the hash of the field
    tuple), ``__repr__``, ``__match_args__``, ``fields``, ``replace``,
    pickling, and ``FrozenInstanceError`` on assignment or deletion.

    A class whose ``__init__`` does more than store its fields in order
    is refused with ``TypeError``: a field with a default, ``init=False``,
    ``kw_only`` or ``InitVar``, or a ``__post_init__``.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"frozen_value: {cls.__qualname__} has a __post_init__")
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if [p.name for p in params] != names or any(
        p.default is not p.empty or p.kind is not p.POSITIONAL_OR_KEYWORD for p in params
    ):
        raise TypeError(f"frozen_value: {cls.__qualname__} has a field with a default or outside __init__")
    setters = ", ".join(f"_set_{n}" for n in names)
    body = "".join(f"        _set_{n}(self, {n})\n" for n in names)
    source = f"def make({setters}):\n    def __init__(self, {', '.join(names)}):\n{body}    return __init__\n"
    scope = {}
    exec(source, {"__name__": cls.__module__}, scope)
    init = scope["make"](*[getattr(cls, n).__set__ for n in names])
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@frozen_value
class OneCell:
    start: str
    word: Tuple[str, ...]

    def __repr__(self):
        inner = " ".join(self.word) if self.word else f"@{self.start}"
        return f"<1:{inner}>"


@frozen_value
class Whisker2:
    """One 2-generator in a 0-dimensional context: ``left . gen . right``."""

    left: OneCell
    gen: str
    right: OneCell


@frozen_value
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


@frozen_value
class OpGen:
    """Reference to a named (operational) 3-generator."""

    name: str


@frozen_value
class Interchanger:
    """Interchange generator exchanging ``alpha`` past ``beta`` across ``mid``.

    Boundaries are always computed from the signature, never stored.
    """

    alpha: str
    mid: OneCell
    beta: str


@frozen_value
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


@frozen_value
class Step:
    """A rewriting step: a 3-dimensional whisker."""

    lam: TwoCell
    left: OneCell
    inner: GenInstance
    right: OneCell
    rho: TwoCell


@frozen_value
class ThreeCell:
    source2: TwoCell
    steps: Tuple[Step, ...]


Cell = Union[OneCell, TwoCell, ThreeCell]


def dim(c: Cell) -> int:
    if isinstance(c, TwoCell):
        return 2
    if isinstance(c, OneCell):
        return 1
    if isinstance(c, ThreeCell):
        return 3
    raise CellError(f"not a cell: {c!r}")


def length(c: Cell) -> int:
    """Whisker count: the length of the top-dimensional composite."""
    if isinstance(c, TwoCell):
        return len(c.whiskers)
    if isinstance(c, OneCell):
        return len(c.word)
    if isinstance(c, ThreeCell):
        return len(c.steps)
    raise CellError(f"not a cell: {c!r}")


def is_identity(c: Cell) -> bool:
    return length(c) == 0


# The most instance sides one signature's memo holds; a full memo is
# emptied before the next side is stored, so its memory stays bounded.
# A 25 s benchmark run stores at most 222 sides in one signature's memo
# (normalize; sweep 30, pipeline 126), so the benchmark never empties it.
SIDES_MEMO_MAX = 4096


class Signature:
    """Generator signature in dimensions 0 to 3 with typed boundaries.

    ``three`` holds the operational 3-generators only; interchange
    generators are materialized on demand as :class:`Interchanger`.
    A signature is immutable: ``one``, ``two`` and ``three`` are
    read-only mappings, and its attributes are written once, by
    ``_build``, apart from its hash and its rotation, which are computed
    once each, going from ``None`` to their value; any other assignment
    or deletion raises ``AttributeError``.  The sides of 3-generator
    instances are memoized (``_sides``, keyed by ``(instance,
    source)``), up to ``SIDES_MEMO_MAX`` of them.  The memo is not part
    of the value: equality and the hash read ``_key`` only.

    The constructor checks every generator.  ``rotated`` and, for the
    parser only, ``_extended`` build a signature from generator sides
    that are already checked, and check only what is new.
    """

    def __init__(
        self,
        zero: Iterable[str] = (),
        one: Iterable[Tuple[str, str, str]] = (),
        two: Iterable[Tuple[str, OneCell, OneCell]] = (),
        three: Iterable[Tuple[str, TwoCell, TwoCell]] = (),
    ):
        zero = tuple(zero)
        zset = set(zero)
        if len(zset) != len(zero):
            raise SignatureError("duplicate 0-generator")
        ones = {}
        for name, s, t in one:
            if name in ones:
                raise SignatureError(f"duplicate 1-generator {name}")
            if s not in zset or t not in zset:
                raise SignatureError(f"1-generator {name} has undeclared endpoint")
            ones[name] = (s, t)
        self._build(zero, ones, {}, {}, two, three, typed=False)

    def _build(self, zero, ones: dict, twos: dict, threes: dict, two, three, typed: bool):
        """Set the generator tables, then add the 2-generators ``two`` and the 3-generators ``three``.

        Each added generator needs a name not yet declared and a source
        parallel to its target.  Unless ``typed``, each of its sides is
        first checked as a cell over the generators of lower dimension.
        The tables given are taken as they are, with no check.
        """
        fill = vars(self)
        fill.update(
            zero=zero,
            one=MappingProxyType(ones),
            two=MappingProxyType(twos),
            three=MappingProxyType(threes),
            _hash=None,
            _rotated=None,
            _sides={},
        )
        for k, table, gens, check in ((2, twos, two, self.check1), (3, threes, three, self.check2)):
            for name, s, t in gens:
                if name in table:
                    raise SignatureError(f"duplicate {k}-generator {name}")
                if not typed:
                    check(s)
                    check(t)
                if self.source(s) != self.source(t) or self.target(s) != self.target(t):
                    raise SignatureError(f"{k}-generator {name}: source and target not parallel")
                table[name] = (s, t)
        fill["_key"] = (zero, tuple(ones.items()), tuple(twos.items()), tuple(threes.items()))

    def _extended(self, two=(), three=()) -> "Signature":
        """This signature with the 2-generators ``two``, then the 3-generators ``three``, added.

        For ``textio.parse_presentation`` only, which checks each side as
        it reads it.  The sides are trusted to be checked cells: each word
        of ``two`` a 1-cell of this signature, each side of ``three`` a
        2-cell of this signature with ``two`` added.  Only the names and
        parallel sides of the new generators are checked here; an
        unchecked side would break the guarantee that a signature's
        generators are well typed, so other callers use the constructor.
        """
        sig = Signature.__new__(Signature)
        sig._build(self.zero, dict(self.one), dict(self.two), dict(self.three), two, three, typed=True)
        return sig

    def __setattr__(self, name, value):
        """Only ``_hash`` and ``_rotated`` are set after ``_build``, each once, from ``None``."""
        if name not in ("_hash", "_rotated") or vars(self).get(name, False) is not None:
            raise AttributeError(f"a Signature is immutable: cannot set {name}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"a Signature is immutable: cannot delete {name}")

    def __eq__(self, other):
        return isinstance(other, Signature) and self._key == other._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

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
        return self._row_level(w, self.src1(w.gen))

    def whisker_target(self, w: Whisker2) -> OneCell:
        return self._row_level(w, self.tgt1(w.gen))

    def _row_level(self, w: Whisker2, mid: OneCell) -> OneCell:
        """``w.left . mid . w.right`` as one 1-cell, built with one allocation.

        The checks and messages are those of
        ``_concat(w.left, _concat(mid, w.right))``, made in the same order.
        """
        left, right = w.left, w.right
        if self.end0(mid) != right.start:
            raise CompositionError(
                f"1-cells not 0-composable: {mid!r} ends at {self.end0(mid)}, {right!r} starts at {right.start}"
            )
        if self.end0(left) != mid.start:
            inner = OneCell(mid.start, mid.word + right.word)
            raise CompositionError(
                f"1-cells not 0-composable: {left!r} ends at {self.end0(left)}, {inner!r} starts at {mid.start}"
            )
        return OneCell(left.start, left.word + mid.word + right.word)

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
        """Source and target of the interchange generator for ``alpha, mid, beta``."""
        return self.inst_boundaries(Interchanger(alpha, mid, beta))

    def inst_side(self, inst: GenInstance, source: bool) -> TwoCell:
        """The source of a 3-generator instance, or else its target; only that side is built."""
        return self._side(inst, source)[0]

    def _side(self, inst: GenInstance, source: bool) -> Tuple[TwoCell, OneCell]:
        """An instance side and its target 1-cell, memoized in ``_sides`` by ``(inst, source)``.

        Only a side that was built, and so checked, is stored: an invalid
        instance raises on every call.
        """
        key = (inst, source)
        try:
            hit = self._sides.get(key)
        except TypeError:
            raise CellError(f"not a 3-generator instance: {inst!r}") from None
        if hit is None:
            side = self._build_side(inst, source)
            if len(self._sides) >= SIDES_MEMO_MAX:
                self._sides.clear()
            hit = self._sides[key] = (side, self.target(side))
        return hit

    def _build_side(self, inst: GenInstance, source: bool) -> TwoCell:
        """The side of ``inst`` asked for, built and checked.

        An interchanger's sides are 2-whisker cells: the source stacks
        ``alpha`` above ``beta``, shifted left; the target stacks them
        the other way.  They are built from the 1-boundaries of ``alpha``
        and ``beta`` once ``mid`` is checked to be a 1-cell that
        0-composes with both.
        """
        if isinstance(inst, OpGen):
            return self.gen3_source(inst.name) if source else self.gen3_target(inst.name)
        if not isinstance(inst, (Interchanger, QInterchanger)):
            raise CellError(f"not a 3-generator instance: {inst!r}")
        if isinstance(inst, QInterchanger) and inst.rev:
            source = not source
        alpha, mid, beta = inst.alpha, inst.mid, inst.beta
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
        # the target is the source upside down, each generator's boundary
        # between the two rows swapped: alpha's target for its source, beta's
        # source for its target
        a, b = (fp, h) if source else (f, hp)
        rows = (
            Whisker2(OneCell(f.start, ()), alpha, OneCell(mid.start, mid.word + b.word)),
            Whisker2(OneCell(a.start, a.word + mid.word), beta, OneCell(self.end0(h), ())),
        )
        return TwoCell(OneCell(f.start, f.word + mid.word + h.word), rows if source else rows[::-1])

    def inst_boundaries(self, inst: GenInstance) -> Tuple[TwoCell, TwoCell]:
        """Source and target of a 3-generator instance."""
        return self.inst_side(inst, True), self.inst_side(inst, False)

    def inst_source(self, inst: GenInstance) -> TwoCell:
        return self.inst_side(inst, True)

    def inst_target(self, inst: GenInstance) -> TwoCell:
        return self.inst_side(inst, False)

    # ---- steps and 3-cells ---------------------------------------

    def _whiskered(self, l: OneCell, rows, r: OneCell) -> Tuple[Whisker2, ...]:
        """The rows ``rows`` of a 2-cell whiskered by ``l`` on the left and ``r`` on the right.

        Nothing is checked: the caller knows that ``l`` ends where the
        rows start and ``r`` starts where they end.  So a context with no
        letters leaves the rows' contexts on its side as they are, and
        they are not built again.
        """
        start, lw, rw = l.start, l.word, r.word
        if not lw and not rw:
            return tuple(rows)
        return tuple([
            Whisker2(
                OneCell(start, lw + w.left.word) if lw else w.left,
                w.gen,
                OneCell(w.right.start, w.right.word + rw) if rw else w.right,
            )
            for w in rows
        ])

    def _step_fault(self, s: Step, top: OneCell, bottom: OneCell, above: OneCell, below: OneCell):
        """The ``CompositionError`` of a step whose window runs from ``top`` to ``bottom``, or ``None``.

        These are the checks of ``compose``, each a comparison of 1-cells,
        because the window's side is a checked 2-cell: ``left`` and
        ``right`` must 0-compose with the side, ``above`` (the target of
        ``lam``) must be the level above the window and ``below`` (the
        source of ``rho``) the level below it.  The caller passes those two
        levels: a step's own, or those of the cell it is cut from.  The
        window's levels are ``top`` and ``bottom`` padded by ``left`` and
        ``right``; they are compared field by field, and a OneCell is built
        only for a message.
        """
        left, right = s.left, s.right
        if self.end0(left) != top.start or self.end0(top) != right.start:
            return CompositionError("0-whiskering boundary mismatch")
        start, lw, rw = left.start, left.word, right.word
        if above.start != start or above.word != lw + top.word + rw:
            return CompositionError(
                f"2-cells not 1-composable: target {above!r} vs source {OneCell(start, lw + top.word + rw)!r}"
            )
        if below.start != start or below.word != lw + bottom.word + rw:
            return CompositionError(
                f"2-cells not 1-composable: target {OneCell(start, lw + bottom.word + rw)!r} vs source {below!r}"
            )
        return None

    def _step_side(self, s: Step, source: bool) -> TwoCell:
        """``lam *1 (left *0 side *0 right) *1 rho`` for the instance's source, or else its target.

        Only the side asked for is used, from the memo.  Its rows are
        whiskered by ``left`` and ``right`` straight into the splice
        between the rows of ``lam`` and ``rho``, once ``_step_fault``
        finds that the parts meet; no window cell is built.
        """
        side, bottom = self._side(s.inner, source)
        fault = self._step_fault(s, side.source1, bottom, self.target(s.lam), s.rho.source1)
        if fault is not None:
            raise fault
        rows = self._whiskered(s.left, side.whiskers, s.right)
        return TwoCell(s.lam.source1, s.lam.whiskers + rows + s.rho.whiskers)

    def _is_step_source(self, s: Step, here: TwoCell) -> bool:
        """Whether ``step_source(s)`` returns a cell equal to ``here`` without raising.

        Nothing is built: the rows of ``lam``, the instance's source rows
        whiskered by ``left`` and ``right`` (``rows_fit``, once the row
        counts agree), and the rows of ``rho`` are compared with those of
        ``here`` in place, after the junctions of ``_step_fault``.  An
        error that ``step_source`` raises before its junctions, such as an
        unknown generator, is raised here as well.
        So a caller that gets ``False`` runs ``step_source`` and its
        comparison, and gets the outcome it would have had without this
        test: the same error, message and order.
        """
        side, bottom = self._side(s.inner, True)
        if self._step_fault(s, side.source1, bottom, self.target(s.lam), s.rho.source1) is not None:
            return False
        lam, rho, rows = s.lam.whiskers, s.rho.whiskers, here.whiskers
        up, down = len(lam), len(rows) - len(rho)
        if here.source1 != s.lam.source1 or down - up != len(side.whiskers) or rows[:up] != lam or rows[down:] != rho:
            return False
        return rows_fit(rows[up:down], side.whiskers, s.left.start, s.left.word, s.right.word)

    def step_source(self, s: Step) -> TwoCell:
        return self._step_side(s, True)

    def step_target(self, s: Step) -> TwoCell:
        return self._step_side(s, False)

    def step_cell(self, s: Step) -> ThreeCell:
        return ThreeCell(self.step_source(s), (s,))

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

    def check3(self, F: ThreeCell) -> TwoCell:
        """Check ``F.source2``, then that each step's source is the cell the steps before it reach.

        Each source is compared in place by ``_is_step_source``, so only
        the targets are built; ``step_source`` runs only for a step that
        does not fit, to raise its error or to report the mismatch.
        Returns the cell the last step reaches: the target of ``F``.
        """
        self.check2(F.source2)
        here = F.source2
        for s in F.steps:
            if not self._is_step_source(s, here):
                src = self.step_source(s)
                if src != here:
                    raise CompositionError(
                        f"3-cell step chain broken: expected 2-source {here!r}, got {src!r}"
                    )
            here = self.step_target(s)
        return here

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
        if isinstance(c, TwoCell):
            return c.source1
        if isinstance(c, OneCell):
            return c.start
        if isinstance(c, ThreeCell):
            return c.source2
        if isinstance(c, Step):
            return self.step_source(c)
        raise CellError(f"not a cell: {c!r}")

    def target(self, c: Cell):
        if isinstance(c, TwoCell):
            if not c.whiskers:
                return c.source1
            return self.whisker_target(c.whiskers[-1])
        if isinstance(c, OneCell):
            return self.end0(c)
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

    def _stack(self, a: TwoCell, b: TwoCell) -> TwoCell:
        """``a *1 b``: the rows of ``a`` above those of ``b``."""
        if self.target(a) != b.source1:
            raise CompositionError(f"2-cells not 1-composable: target {self.target(a)!r} vs source {b.source1!r}")
        return TwoCell(a.source1, a.whiskers + b.whiskers)

    def compose(self, a, b, i: int):
        """Composite ``a *_i b`` in normal form.

        Defined when the lower of the two dimensions is ``i + 1``;
        whiskering a 2- or 3-cell by a 1-cell, stacking 2-cells, and
        chaining 3-cells are all instances.  A whiskering on one side is
        the two-sided ``whisker0`` or ``whisker1`` with an identity on
        the other.
        """
        da, db = dim(a), dim(b)
        if min(da, db) != i + 1 or (i == 1 and da == db == 3):
            raise CompositionError(f"compose_{i} undefined for dimensions {da} and {db}")
        if i == 0:
            if da == db:
                return self._concat(a, b)
            if da == 1:
                top = b.source1 if db == 2 else b.source2.source1
                return self.whisker0(a, b, OneCell(self.end0(top), ()))
            top = a.source1 if da == 2 else a.source2.source1
            return self.whisker0(OneCell(top.start, ()), a, b)
        if i == 1:
            if da == db:
                return self._stack(a, b)
            if da == 2:
                return self.whisker1(a, b, TwoCell(self.target(b.source2), ()))
            return self.whisker1(TwoCell(a.source2.source1, ()), a, b)
        if self.target(a) != b.source2:
            raise CompositionError("3-cells not 2-composable")
        return ThreeCell(a.source2, a.steps + b.steps)

    def whisker0(self, left: OneCell, c: Cell, right: OneCell) -> Cell:
        """``left *0 c *0 right`` for a 1-, 2- or 3-cell.

        Every 1-cell is extended by a checked ``_concat``, row by row
        and step by step, so contexts that do not fit raise
        ``CompositionError``.
        """
        if isinstance(c, OneCell):
            return self._concat(left, self._concat(c, right))
        if isinstance(c, TwoCell):
            return TwoCell(
                self._concat(left, self._concat(c.source1, right)),
                tuple(
                    Whisker2(self._concat(left, w.left), w.gen, self._concat(w.right, right)) for w in c.whiskers
                ),
            )
        if isinstance(c, ThreeCell):
            return ThreeCell(
                self.whisker0(left, c.source2, right),
                tuple(
                    Step(self.whisker0(left, s.lam, right), self._concat(left, s.left), s.inner,
                         self._concat(s.right, right), self.whisker0(left, s.rho, right))
                    for s in c.steps
                ),
            )
        raise CellError(f"not a cell: {c!r}")

    def whisker1(self, lam: TwoCell, F: ThreeCell, rho: TwoCell) -> ThreeCell:
        """``lam *1 F *1 rho`` for a 3-cell: ``lam`` stacked above every step, ``rho`` below."""
        return ThreeCell(
            self._stack(self._stack(lam, F.source2), rho),
            tuple(Step(self._stack(lam, s.lam), s.left, s.inner, s.right, self._stack(s.rho, rho)) for s in F.steps),
        )

    # ---- the 180° rotation ----------------------------------------

    def rotate(self, c):
        """Image of a 1-cell, 2-cell, step or Gray generator instance under the 180° rotation.

        The rotation reverses 0-composition (words) and 1-composition
        (rows) at once; the image lives over :meth:`rotated`.  It keeps
        the direction of 3-cells and the orientation of interchangers:
        ``Interchanger(alpha, m, beta)`` goes to
        ``Interchanger(beta, rot m, alpha)``.  Rotating twice, the
        second time over the rotated signature, is the identity.
        """
        if isinstance(c, OneCell):
            return OneCell(self.end0(c), c.word[::-1])
        if isinstance(c, TwoCell):
            return TwoCell(
                self.rotate(self.target(c)),
                tuple(
                    Whisker2(self.rotate(w.right), w.gen, self.rotate(w.left))
                    for w in reversed(c.whiskers)
                ),
            )
        if isinstance(c, Step):
            return Step(
                self.rotate(c.rho), self.rotate(c.right), self.rotate(c.inner),
                self.rotate(c.left), self.rotate(c.lam),
            )
        if isinstance(c, OpGen):
            return c
        if isinstance(c, Interchanger):
            return Interchanger(c.beta, self.rotate(c.mid), c.alpha)
        raise CellError(f"the rotation is not defined on {c!r}")

    def rotated(self) -> "Signature":
        """Signature of the rotated cells: every 1-generator reversed and
        every 2-generator's source and target swapped.  Built once per
        signature.

        Its generator tables are the rotated tables of this signature,
        taken as they are: the rotation maps checked cells to checked
        cells and parallel sides to parallel sides, and keeps names
        distinct, so the checks of the constructor would all pass.
        """
        if self._rotated is None:
            rot = Signature.__new__(Signature)
            rot._build(
                self.zero,
                {name: (t, s) for name, (s, t) in self.one.items()},
                {name: (self.rotate(t), self.rotate(s)) for name, (s, t) in self.two.items()},
                {name: (self.rotate(s), self.rotate(t)) for name, (s, t) in self.three.items()},
                (), (), typed=True,
            )
            self._rotated = rot
        return self._rotated

    # ---- identity on any cell ------------------------------------

    def identity(self, c) -> Cell:
        if isinstance(c, str):
            return self.id1(c)
        if isinstance(c, OneCell):
            return self.id2(c)
        if isinstance(c, TwoCell):
            return ThreeCell(c, ())
        raise CellError(f"cannot form an identity on {c!r}")


def rows_fit(rows, side_rows, start: str, lw: Tuple[str, ...], rw: Tuple[str, ...]) -> bool:
    """Whether ``rows`` are ``side_rows`` whiskered by the context words ``lw`` and ``rw``.

    ``lw`` starts at ``start``, and the caller passes as many rows as side
    rows.  The rows are compared field by field, with no context or row
    built.
    """
    for row, w in zip(rows, side_rows):
        if (
            row.gen != w.gen
            or row.left.word != lw + w.left.word
            or row.right.word != w.right.word + rw
            or row.left.start != start
            or row.right.start != w.right.start
        ):
            return False
    return True


def level_at(sig: Signature, phi: TwoCell, t: int) -> OneCell:
    """The 1-cell above row ``t`` of ``phi``: its source, or the target of row ``t - 1``."""
    return phi.source1 if t == 0 else sig.whisker_target(phi.whiskers[t - 1])


def slice2(sig: Signature, phi: TwoCell, lo: int, hi: int) -> TwoCell:
    """Contiguous sub-chain of rows ``lo..hi-1`` of ``phi`` as a 2-cell."""
    if not 0 <= lo <= hi <= len(phi.whiskers):
        raise CellError(f"row slice {lo}:{hi} out of range")
    return TwoCell(level_at(sig, phi, lo), phi.whiskers[lo:hi])
