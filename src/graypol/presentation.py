"""Gray presentations: signature plus tiles and engine mode.

A presentation owns the rewriting alphabet.  In the default mode the
alphabet is the operational 3-generators together with all (forward)
interchange generators; in ``q`` mode it is the operational generators
together with the four oriented interchange families of the
self-duality system, and the natural branching class is dropped.

Independence and naturality 4-generators are schema markers and are
never enumerated; tiles are the user-supplied (or completion-emitted)
4-generators with explicit parallel 3-cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .cells import (
    CellError,
    Signature,
    ThreeCell,
    length,
)


@dataclass(frozen=True)
class Tile:
    """A 4-generator identifying two parallel 3-cells."""

    name: str
    lhs: ThreeCell
    rhs: ThreeCell


def _tile_fault(sig: Signature, tile: Tile, typed: bool = False) -> Optional[str]:
    """Why ``tile`` is not a pair of parallel, typed 3-cells, or ``None``.

    With ``typed``, the sides are known to type-check (``check3``) and
    only their boundaries are compared.  Otherwise ``check3`` types each
    side and returns its target.
    """
    if typed:
        targets = sig.target(tile.lhs), sig.target(tile.rhs)
    else:
        try:
            targets = sig.check3(tile.lhs), sig.check3(tile.rhs)
        except CellError as exc:
            return str(exc)
    if sig.source(tile.lhs) != sig.source(tile.rhs) or targets[0] != targets[1]:
        return "boundaries are not parallel 3-cells"
    return None


@dataclass(frozen=True)
class QMode:
    """Names of the cap and cup 2-generators driving the oriented rules."""

    eta: str
    eps: str

    @cached_property
    def rules(self) -> Tuple[Tuple[str, str, bool], ...]:
        """The four oriented interchange families ``(alpha, beta, rev)``:
        those with ``beta == eta`` are reversed, the others forward."""
        eta, eps = self.eta, self.eps
        return ((eta, eta, True), (eta, eps, False), (eps, eta, True), (eps, eps, False))


@dataclass(frozen=True)
class GrayPresentation:
    name: str
    sig: Signature
    tiles: Tuple[Tile, ...] = ()
    qmode: Optional[QMode] = None
    # True when both sides of every tile were checked with ``sig.check3``
    # as the presentation was built.  Only ``textio.parse_presentation``
    # sets it, after construction; no caller can pass it, and a copy
    # (``with_tiles``, ``dataclasses.replace``) starts with it False.
    # Not part of the value.
    tiles_typed: bool = field(init=False, default=False, compare=False, repr=False)

    def with_tiles(self, tiles) -> "GrayPresentation":
        return GrayPresentation(self.name, self.sig, tuple(tiles), self.qmode)

    def operational(self):
        return tuple(self.sig.three.keys())

    @cached_property
    def rotated(self) -> "GrayPresentation":
        """The 180° rotation of this Gray-mode presentation, without tiles.

        Mirror-image cases of the rewriting analysis are the plain case
        run on this presentation; see ``Signature.rotate``.
        """
        if self.qmode is not None:
            raise CellError("the rotation is defined for Gray-mode presentations only")
        return GrayPresentation(self.name, self.sig.rotated())

    @cached_property
    def redex_sources(self) -> dict:
        """What a window can match, by the generators of its first two rows and their offset.

        A window starting on a row ``g`` followed by a row ``h`` whose
        left context is ``shift`` letters longer is looked up under
        ``(g, h, shift)``, and under ``(g, h)`` when that key is missing;
        one starting on the last row ``g`` under ``(g, None)``, and one
        starting below the last row under ``None``.  Whiskering keeps the
        offset of two rows, so a source of two or more rows can match only
        under the key of its own first two rows, and ``(g, h, shift)`` is
        a key only where such a source sits.  Each entry is
        ``(sources, shapes)``:

        - the operational sources ``(name, source, rows)`` that can match
          there: the identity sources, the one-row sources on ``g`` and
          the sources keyed there;
        - the interchanger shapes ``(rev, need)``, ``rev`` being the
          ``target`` argument of ``match_interchanger``: in Gray mode the
          source shape, in q mode each shape whose ``(alpha, beta, rev)``
          is in ``QMode.rules``.  A shape leaves room for a middle word
          only when ``shift`` (the source shape) or ``-shift`` (the
          target shape) is at least ``need``, the length of ``tgt g`` or
          of ``src h``; the scan checks that before matching.

        So the table holds one key per ordered pair of 2-generators, one
        per generator and one per offset some source sits at, however long
        the rows' contexts are.  A key with an undeclared generator is
        missing.
        """
        sig = self.sig
        empty, first, by_offset = [], {}, {}
        for name, (src, _) in sig.three.items():
            rows = src.whiskers
            entry = (name, src, len(rows))
            if not rows:
                empty.append(entry)
            elif len(rows) == 1:
                first.setdefault(rows[0].gen, []).append(entry)
            else:
                shift = len(rows[1].left.word) - len(rows[0].left.word)
                by_offset.setdefault((rows[0].gen, rows[1].gen, shift), []).append(entry)
        rules = None if self.qmode is None else self.qmode.rules
        entries = {None: (tuple(empty), ())}
        for g, (_, g_tgt) in sig.two.items():
            on_g = tuple(empty + first.get(g, []))
            entries[g, None] = (on_g, ())
            for h, (h_src, _) in sig.two.items():
                shapes = []
                if rules is None or (g, h, False) in rules:
                    shapes.append((False, len(g_tgt.word)))
                if rules is not None and (h, g, True) in rules:
                    shapes.append((True, len(h_src.word)))
                entries[g, h] = (on_g, tuple(shapes))
        for (g, h, shift), sources in by_offset.items():
            entries[g, h, shift] = (entries[g, None][0] + tuple(sources), entries[g, h][1])
        return entries

    @cached_property
    def validation(self) -> "ValidationReport":
        """Well-typedness and positivity diagnostics, computed once; never raises.

        The tiles of a parsed presentation (``tiles_typed``) are not
        checked again: the parser typed each side with ``check3`` over
        this same immutable signature and refused the file otherwise,
        so a second check could only pass.  Other tiles are checked
        here.  Every tile's sides are then compared for parallelism,
        which the parser does not require.
        """
        sig = self.sig
        well_typed = positive = sources_positive = True
        messages = []
        for name, (src, tgt) in sig.two.items():
            if length(tgt) == 0:
                positive = False
                messages.append(f"2-generator {name} has an identity target (not positive)")
        for name, (src, tgt) in sig.three.items():
            if length(src) == 0:
                sources_positive = False
                messages.append(f"3-generator {name} has an identity source")
        for tile in self.tiles:
            fault = _tile_fault(sig, tile, typed=self.tiles_typed)
            if fault is not None:
                well_typed = False
                messages.append(f"tile {tile.name}: {fault}")
        if self.qmode is not None:
            for gen in (self.qmode.eta, self.qmode.eps):
                if gen not in sig.two:
                    well_typed = False
                    messages.append(f"q-mode generator {gen} is not a declared 2-generator")
        return ValidationReport(well_typed, positive, sources_positive, tuple(messages))


@dataclass(frozen=True)
class ValidationReport:
    well_typed: bool = True
    positive: bool = True
    operational_sources_positive: bool = True
    messages: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.well_typed


def validate(pres: GrayPresentation) -> ValidationReport:
    """The presentation's validation report; see ``GrayPresentation.validation``."""
    return pres.validation
