"""Rewriting steps, redex matching, branchings and their classification.

Redexes of a 2-cell are found by matching operational sources on
contiguous whisker windows and solving for the context, and by matching
consecutive whisker pairs against the interchanger shapes the mode
rewrites: the source shape in Gray mode, and in q mode also the target
shape, which is the source shape upside down.  Whiskering keeps the
offset between two rows' left contexts, so a lookup by the generators
of a row and the row below it, and by their offset where a source sits
at it, gives every source and shape that can match there
(``GrayPresentation.redex_sources``), and nothing is tried elsewhere.
Local branchings are
classified as trivial, non-minimal, independent, natural or critical, all
but the first by counting the rows and letters of the two windows on
their shared source; a cell is built only for a non-minimal witness.
The complete finite list of critical branchings of a presentation is
enumerated by the overlap analysis.

Every candidate of that analysis is one glue of two generator windows,
the first row of one laid on a row of the other (``_glue``): two
operational windows, or an interchanger above an operational window,
below it or inside its source.  The contexts are read off the lengths of
the two rows laid on each other, and one comparison of the whiskered
rows decides whether the windows overlap; a glue that passes it is a
branching by construction, so no candidate is typed again.  Every
candidate is built once, in the presentation's own coordinates.  The
interchangers below a window are those above the window of the 180°
rotation (``pres.rotated``), each rotated back on its own and glued under
the window's last row; no step or 2-cell is rotated.

The enumeration's work is linear in the candidates it yields.  A
window's first row is laid only on the window rows with its generator,
found by lookup, and an interchanger is built only when ``alpha``'s
target ends where the middle word starts, found by lookup of the
2-generators by the 0-cell their target ends at; so no glue fails on its
first generator and no instance fails to type.  Each candidate has an
empty context on each side and shares no row above or below, so
``common_peel`` answers "minimal" from counts, before any word is
listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cells import (
    CellError,
    Interchanger,
    InternalError,
    OneCell,
    OpGen,
    QInterchanger,
    Signature,
    SignatureError,
    Step,
    TwoCell,
    Whisker2,
    frozen_value,
    level_at,
    rows_fit,
    slice2,
)
from .presentation import GrayPresentation, validate


class RewritingError(CellError):
    pass


class UnsupportedError(RewritingError):
    pass


@frozen_value
class Branching:
    """Two rewriting steps out of the same 2-cell."""

    s1: Step
    s2: Step


@dataclass(frozen=True)
class Trivial:
    pass


@frozen_value
class NonMinimal:
    """Witness: the common context (lam, left, right, rho) and the reduced branching."""

    lam: TwoCell
    left: OneCell
    right: OneCell
    rho: TwoCell
    reduced: Branching


@dataclass(frozen=True)
class Independent:
    pass


@dataclass(frozen=True)
class Natural:
    pass


@dataclass(frozen=True)
class Critical:
    pass


@frozen_value
class CriticalBranching:
    branching: Branching
    key: tuple


# ---------------------------------------------------------------- redexes


def _match_window(
    sig: Signature, phi: TwoCell, t: int, pattern: TwoCell, above: Optional[OneCell]
) -> List[Tuple[OneCell, OneCell]]:
    """Solve ``l *0 pattern *0 r == rows t..t+len(pattern) of phi``.

    ``above`` is the level above row ``t`` of ``phi``, or ``None``, and
    then it is computed once the rows fit.  Returns all solutions (one for
    nonempty patterns, possibly several for identity patterns sliding
    along a 1-cell).
    """
    m = len(pattern.whiskers)
    if m == 0:
        level = above if above is not None else level_at(sig, phi, t)
        pw, out = pattern.source1.word, []
        for cut in range(len(level.word) - len(pw) + 1):
            if level.word[cut : cut + len(pw)] != pw:
                continue
            l = OneCell(level.start, level.word[:cut])
            if sig.end0(l) == pattern.source1.start:
                out.append((l, OneCell(sig.end0(pattern.source1), level.word[cut + len(pw) :])))
        return out
    rows = phi.whiskers[t : t + m]
    if len(rows) < m:
        return []
    first, pfirst = rows[0], pattern.whiskers[0]
    dl = len(first.left.word) - len(pfirst.left.word)
    dr = len(first.right.word) - len(pfirst.right.word)
    if dl < 0 or dr < 0:
        return []
    lw = first.left.word[:dl]
    rw = first.right.word[len(first.right.word) - dr :]
    if not rows_fit(rows, pattern.whiskers, first.left.start, lw, rw):
        return []
    # the typing checks of the whiskering.  The pattern is a checked
    # 3-generator source, so every row's right context ends where its
    # source does and ``r`` starts there; ``l`` must end where it begins.
    l = OneCell(first.left.start, lw)
    if sig.end0(l) != pattern.source1.start:
        return []
    if above is None:
        above = level_at(sig, phi, t)
    if above.start != l.start or above.word != lw + pattern.source1.word + rw:
        return []
    return [(l, OneCell(sig.end0(pattern.source1), rw))]


def _step_at(phi: TwoCell, t: int, m: int, below: OneCell, l: OneCell, inner, r: OneCell) -> Step:
    """The step on rows ``t..t+m-1`` of ``phi``, ``below`` the level under them.

    Callers pass ``0 <= t <= t + m <= len(phi.whiskers)``.
    """
    rows = phi.whiskers
    return Step(TwoCell(phi.source1, rows[:t]), l, inner, r, TwoCell(below, rows[t + m :]))


def match_interchanger(sig: Signature, wa: Whisker2, wb: Whisker2, target: bool):
    """Match two consecutive whiskers against the interchanger source shape, or its target shape.

    Between the rows of the source shape lie ``alpha``'s target, the
    middle word and ``beta``'s source.  The target shape is the source
    shape upside down with each 2-generator's source and target swapped.
    Returns ``(l, alpha, mid, beta, r)`` or ``None``; the middle word is
    the unique solution of the boundary equations.
    """
    if target:
        wa, wb = wb, wa
        a_side, b_side = sig.src1, sig.tgt1
    else:
        a_side, b_side = sig.tgt1, sig.src1
    l, r = wa.left, wb.right
    fa = a_side(wa.gen)
    cut = len(l.word) + len(fa.word)
    lw = wb.left.word
    if len(lw) < cut or wb.left.start != l.start or lw[:cut] != l.word + fa.word:
        return None
    mid = OneCell(sig.end0(fa), lw[cut:])
    if wa.right.start != mid.start or wa.right.word != mid.word + b_side(wb.gen).word + r.word:
        return None
    return (l, wa.gen, mid, wb.gen, r)


def find_redexes(
    pres: GrayPresentation,
    phi: TwoCell,
    lowest_from: Optional[int] = None,
    *,
    levels: Optional[Sequence[OneCell]] = None,
) -> List[Step]:
    """All rewriting steps with source ``phi``, in canonical order.

    The scan goes row by row.  At start row ``t`` it takes the offset
    ``shift`` of row ``t+1``'s left context over row ``t``'s and looks up
    ``pres.redex_sources`` under the generators of the two rows and
    ``shift``, then, when no source sits there, under the two generators
    alone.  It tries the operational sources listed there, then
    the interchanger shapes listed there whose offset leaves room for a
    middle word: in Gray mode the source shape, in q mode the source and
    the target shape of the oriented rules (``pres.qmode.rules``), a
    forward and a reversed rule.  No other window can match at ``t``.
    A row naming an undeclared 2-generator raises ``SignatureError``.
    With ``lowest_from=k`` it starts at row ``k`` and returns only the
    steps of the first row ``>= k`` that has any, which are the steps
    with the smallest ``|lam| >= k``.

    ``levels``, when given, lists ``phi``'s levels, ``levels[t]`` the
    1-cell above row ``t`` (so the last is its target).  A caller that
    keeps them across scans, as ``normalize2`` does, passes them, and the
    level above each window and the level below it are read from the
    list; without it each is computed from the row above it when needed.
    The steps are the same either way.
    """
    sig = pres.sig
    gray = pres.qmode is None
    index = pres.redex_sources
    whiskers = phi.whiskers
    n = len(whiskers)
    out = []
    for t in range(lowest_from or 0, n + 1):
        if t + 1 < n:
            wa, wb = whiskers[t], whiskers[t + 1]
            shift = len(wb.left.word) - len(wa.left.word)
            entry = index.get((wa.gen, wb.gen, shift)) or index.get((wa.gen, wb.gen))
        else:
            entry = index.get((whiskers[t].gen, None) if t < n else None)
        if entry is None:
            gen = next(w.gen for w in whiskers[t : t + 2] if w.gen not in sig.two)
            raise SignatureError(f"unknown 2-generator {gen}")
        ops, shapes = entry
        above = None if levels is None else levels[t]
        for name, src, m in ops:
            if t + m > n:
                continue
            for l, r in _match_window(sig, phi, t, src, above):
                below = level_at(sig, phi, t + m) if levels is None else levels[t + m]
                out.append(_step_at(phi, t, m, below, l, OpGen(name), r))
        for rev, need in shapes:
            if (-shift if rev else shift) < need:
                continue
            hit = match_interchanger(sig, wa, wb, rev)
            if hit is None:
                continue
            l, alpha, mid, beta, r = hit
            inst = Interchanger(alpha, mid, beta) if gray else QInterchanger(alpha, mid, beta, rev)
            below = level_at(sig, phi, t + 2) if levels is None else levels[t + 2]
            out.append(_step_at(phi, t, 2, below, l, inst, r))
        if out and lowest_from is not None:
            break
    if len(out) > 1:
        out.sort(key=step_key)
    return out


# ---------------------------------------------------------------- keys


def _inst_key(inner) -> tuple:
    if isinstance(inner, OpGen):
        return (0, inner.name)
    if isinstance(inner, Interchanger):
        return (1, inner.alpha, inner.mid.word, inner.beta)
    if isinstance(inner, QInterchanger):
        return (2, inner.alpha, inner.mid.word, inner.beta, inner.rev)
    raise InternalError(f"not a generator instance: {inner!r}")


def step_key(s: Step) -> tuple:
    return (len(s.lam.whiskers), _inst_key(s.inner), len(s.left.word), len(s.right.word))


def _keyed(b: Branching) -> Tuple[Branching, tuple]:
    """``canonical_branching(b)`` and its ``branching_key``, each instance keyed once.

    The swap test is ``step_key`` read in the order ``(inner, |lam|)``
    first: the two steps' instance keys and ``lam`` row counts, then their
    ``left`` and ``right`` letter counts.
    """
    s1, s2 = b.s1, b.s2
    k1, k2 = _inst_key(s1.inner), _inst_key(s2.inner)
    n1, n2 = len(s1.lam.whiskers), len(s2.lam.whiskers)
    if (k2, n2, len(s2.left.word), len(s2.right.word)) < (k1, n1, len(s1.left.word), len(s1.right.word)):
        return Branching(s2, s1), (k2, k1, n2, n1)
    return b, (k1, k2, n1, n2)


def branching_key(b: Branching) -> tuple:
    """Canonical-form key ``(inner1, inner2, |lam1|, |lam2|)``."""
    return (_inst_key(b.s1.inner), _inst_key(b.s2.inner), len(b.s1.lam.whiskers), len(b.s2.lam.whiskers))


def canonical_branching(b: Branching) -> Branching:
    """Representative of ``(s1, s2) ~ (s2, s1)`` chosen by the step keys."""
    return _keyed(b)[0]


# ---------------------------------------------------------------- classification


def _common_prefix_len(words) -> int:
    """Length of the longest common prefix of ``words``: that of the least and the greatest."""
    lo, hi = min(words), max(words)
    return next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b), len(lo))


def _unpad1(sig: Signature, u: OneCell, nl: int, nr: int) -> OneCell:
    word = u.word[nl : len(u.word) - nr if nr else None]
    pre = OneCell(u.start, u.word[:nl])
    return OneCell(sig.end0(pre), word)


def _strip0(sig: Signature, phi: TwoCell, nl: int, nr: int) -> TwoCell:
    """``phi`` without ``nl`` / ``nr`` outer letters in its source and every row's contexts."""
    return TwoCell(
        _unpad1(sig, phi.source1, nl, nr),
        tuple(Whisker2(_unpad1(sig, w.left, nl, 0), w.gen, _unpad1(sig, w.right, 0, nr)) for w in phi.whiskers),
    )


def common_peel(pres: GrayPresentation, b: Branching, phi: TwoCell):
    """Maximal shared context ``(lam, l, r, rho)`` of a local branching and the reduced branching.

    ``lam`` and ``rho`` are the rows of the shared source ``phi`` above
    and below both windows; ``l`` and ``r`` are the letters that both
    steps' contexts and every row in between start and end with.  The
    reduced branching is the two steps on those rows, ``l`` and ``r``
    stripped.  ``None`` when all four are empty.  Then no cell is built:
    with no shared row above or below, the letters are read from ``phi``
    itself, and the answer is known before anything is sliced.  When one
    step's left context and one step's right context have no letter
    either, as for every candidate of the enumeration, the answer is
    read from the counts alone, before any word is listed.
    """
    sig = pres.sig
    s1, s2 = b.s1, b.s2
    lam1, lam2 = len(s1.lam.whiskers), len(s2.lam.whiskers)
    rho1, rho2 = len(s1.rho.whiskers), len(s2.rho.whiskers)
    t_lam, t_rho = min(lam1, lam2), min(rho1, rho2)
    if not (t_lam or t_rho or (s1.left.word and s2.left.word) or (s1.right.word and s2.right.word)):
        return None
    n = len(phi.whiskers)
    middle = slice2(sig, phi, t_lam, n - t_rho) if t_lam or t_rho else phi
    top = middle.source1
    nl = _common_prefix_len([s1.left.word, s2.left.word, top.word] + [w.left.word for w in middle.whiskers])
    rights = [s1.right.word, s2.right.word, top.word] + [w.right.word for w in middle.whiskers]
    nr = _common_prefix_len([u[::-1] for u in rights])
    if not (t_lam or t_rho or nl or nr):
        return None
    core = _strip0(sig, middle, nl, nr)
    reduced = Branching(*(
        _step_at(core, lam - t_lam, n - lam - rho, level_at(sig, core, n - t_lam - rho),
                 _unpad1(sig, s.left, nl, 0), s.inner, _unpad1(sig, s.right, 0, nr))
        for s, lam, rho in ((s1, lam1, rho1), (s2, lam2, rho2))
    ))
    lam = slice2(sig, phi, 0, t_lam)
    rho = slice2(sig, phi, n - t_rho, n)
    return lam, OneCell(top.start, top.word[:nl]), _unpad1(sig, top, len(top.word) - nr, 0), rho, reduced


def is_independent(pres: GrayPresentation, b: Branching) -> bool:
    """One window lies above the other, a middle 2-cell between them.

    The definition asks for ``phi = win1 ; chi ; win2`` with ``s2.lam =
    win1 ; chi`` and ``s1.rho = chi ; win2``.  On the shared source that
    ``classify`` checks first, both hold as soon as ``s1`` starts at the
    top, ``s2`` ends at the bottom and ``s2``'s window starts below
    ``s1``'s, so the row counts decide it, in either order.
    """
    sig = pres.sig
    return any(
        not s1.lam.whiskers and not s2.rho.whiskers
        and len(s2.lam.whiskers) >= len(sig.inst_source(s1.inner).whiskers)
        for s1, s2 in ((b.s1, b.s2), (b.s2, b.s1))
    )


def _window_on_interchanger(k: int, above: int, outer: int, x_above: int, keep: int, below) -> bool:
    """The naturality rule on counts, with the generator window on top.

    The window has ``k`` rows, ``above`` rows above it, ``outer`` letters
    left of it and a ``keep``-letter target; ``below`` holds the
    left-context length of each row below it, ``x_above`` the rows above
    the interchanger step.  On a shared source, an interchanger step with
    ``k - 1`` rows above swaps rows ``k - 1`` and ``k``, and only one step
    does: ``match_interchanger`` solves for a unique middle word.
    When the window starts the source at its left edge and every row
    below keeps its target on the left, that is the step which slides the
    window's last row down, the one ``shuffle.interp_edge`` builds.
    """
    return k >= 1 and above == 0 and outer == 0 and x_above == k - 1 and min(below, default=-1) >= keep


def rotate_branching(sig: Signature, b: Branching) -> Branching:
    """The 180° rotation of a branching over ``sig``; see ``Signature.rotate``."""
    return Branching(sig.rotate(b.s1), sig.rotate(b.s2))


def is_natural(pres: GrayPresentation, b: Branching) -> bool:
    """Naturality of ``b`` in either order, the window on top or at the bottom.

    The window at the bottom is the 180° rotation of the window on top,
    which swaps lam/rho, left/right and the window's target/source, so
    it is the same rule on the mirrored counts; no cell is rotated.  The
    window's target length is read from the memo of its source
    (``Signature._side``), so no 1-cell is built.
    """
    if pres.qmode is not None:
        return False
    sig = pres.sig
    for s_op, s_x in ((b.s1, b.s2), (b.s2, b.s1)):
        if isinstance(s_x.inner, Interchanger):
            phi_a, target = sig._side(s_op.inner, True)
            k = len(phi_a.whiskers)
            if _window_on_interchanger(
                k, len(s_op.lam.whiskers), len(s_op.left.word), len(s_x.lam.whiskers),
                len(target.word), (len(w.left.word) for w in s_op.rho.whiskers),
            ) or _window_on_interchanger(
                k, len(s_op.rho.whiskers), len(s_op.right.word), len(s_x.rho.whiskers),
                len(phi_a.source1.word), (len(w.right.word) for w in s_op.lam.whiskers),
            ):
                return True
    return False


def classify(pres: GrayPresentation, b: Branching):
    """Branching taxonomy; checks both the branching and its symmetric one.

    The shared source is built once, from ``s1``, for the same-source
    check and for ``common_peel``; ``s2``'s source is compared with it in
    place (``Signature._is_step_source``) and built only when they differ,
    for the error.  Minimality, independence and naturality are read
    from the row and letter counts of the two windows on it; the only
    cells built are a non-minimal branching's witness, and no closing
    square is built.  In q mode the natural class is dropped.
    """
    sig = pres.sig
    phi = sig.step_source(b.s1)
    if not sig._is_step_source(b.s2, phi) and sig.step_source(b.s2) != phi:
        raise RewritingError("not a branching: the two steps have different sources")
    if b.s1 == b.s2:
        return Trivial()
    peel = common_peel(pres, b, phi)
    if peel is not None:
        return NonMinimal(*peel)
    if is_independent(pres, b):
        return Independent()
    if is_natural(pres, b):
        return Natural()
    return Critical()


# ---------------------------------------------------------------- enumeration


def _glue(pres: GrayPresentation, top, bottom, d: int):
    """Branchings of two overlapping windows, the first row of ``bottom`` on row ``d`` of ``top``.

    ``top`` and ``bottom`` are generator instances, each whiskered by
    contexts that are empty on one side; their sources are read from the
    signature's memo, and an instance that does not type is a defect of
    the caller and raises ``InternalError``.  The shared 2-cell is ``top``
    down to the end of the overlap, then the rest of ``bottom``, then the
    rest of ``top``, so a window inside the other is no special case.
    Yields the one ``Branching(bottom step, top step)``, if there is one.
    An interchanger goes in as ``top`` at ``d = 1`` above a window, and
    as ``bottom`` at ``d = k - 1`` under a ``k``-row window or at ``d = t``
    inside it.

    The contexts are read off the lengths of the two rows laid on each
    other: on each side the row with the shorter context word is
    whiskered by the longer word's extra letters, and the other row by
    none.  Both left contexts start
    where the longer left word starts, and each right context starts where
    its own row's right context ends.  Callers lay only rows with the same
    generator on each other, so the whiskered rows are equal exactly when
    the shorter word is a suffix (left) or a prefix (right) of the longer
    one and the contexts 0-compose; rows that differ anywhere in the
    overlap give no branching.  Every row of a checked source starts and
    ends where the source does, so the rows are whiskered unchecked.
    """
    sig = pres.sig
    srcs = []
    for inst in (bottom, top):
        try:
            srcs.append(sig.inst_source(inst))
        except CellError as exc:
            raise InternalError(f"internal invariant violated: {inst!r} is not well typed: {exc}") from exc
    src1, src2 = srcs
    k1, k2 = len(src1.whiskers), len(src2.whiskers)
    over = min(d + k1, k2) - d
    w1, w2 = src1.whiskers[0], src2.whiskers[d]
    u1, u2 = w1.left.word, w2.left.word
    start = (w1.left if len(u1) > len(u2) else w2.left).start
    l1 = OneCell(start, u2[: max(len(u2) - len(u1), 0)])
    l2 = OneCell(start, u1[: max(len(u1) - len(u2), 0)])
    r1 = OneCell(sig.end0(w1.right), w2.right.word[len(w1.right.word) :])
    r2 = OneCell(sig.end0(w2.right), w1.right.word[len(w2.right.word) :])
    rows1 = sig._whiskered(l1, src1.whiskers, r1)
    rows2 = sig._whiskered(l2, src2.whiskers, r2)
    if rows1[:over] != rows2[d : d + over]:
        return
    # ``shared`` is well typed: two checked windows joined where their
    # rows are equal, so each row starts where the row above it ends.
    # Each step is its window of ``shared``, so both have it as source.
    rows = rows2[: d + over] + rows1[over:] + rows2[d + over :]
    shared = TwoCell(OneCell(l2.start, l2.word + src2.source1.word + r2.word), rows)
    yield Branching(
        _step_at(shared, d, k1, level_at(sig, shared, d + k1), l1, bottom, r1),
        _step_at(shared, 0, k2, level_at(sig, shared, k2), l2, top, r2),
    )


def _op_x_inside(pres: GrayPresentation, name: str):
    """Interchangers inside an operational window, paired with the bare step.

    Each pair of consecutive source rows ``t, t + 1`` that spells an
    interchanger source gives that interchanger, glued under the window
    at ``d = t``; the branching is ``(window step, interchanger step)``.
    """
    sig, window = pres.sig, OpGen(name)
    rows = sig.gen3_source(name).whiskers
    for t in range(len(rows) - 1):
        hit = match_interchanger(sig, rows[t], rows[t + 1], False)
        if hit is not None:
            _, alpha, mid, beta, _ = hit
            for b in _glue(pres, window, Interchanger(alpha, mid, beta), t):
                yield Branching(b.s2, b.s1)


def _target_ends(sig: Signature) -> dict:
    """The 2-generators of ``sig`` by the 0-cell their target ends at, each list in declaration order."""
    ends = {}
    for alpha, (_, tgt) in sig.two.items():
        ends.setdefault(sig.end0(tgt), []).append(alpha)
    return ends


def _x_above(sig: Signature, name: str, ends: dict):
    """The interchangers whose lower row can be the first row of the window.

    Each is ``X(alpha, mid, beta)``, ``beta`` the first row's generator
    and ``mid`` a strict suffix of that row's left context, the shortest
    first; longer crossings give natural branchings.  ``alpha``'s target
    must end where ``mid`` starts, which for the empty suffix is where
    ``beta``'s source starts, so only the 2-generators that ``ends``
    (``_target_ends(sig)``) lists under that 0-cell are tried, in
    declaration order: every instance is well typed, and no other is
    built.
    """
    first = sig.gen3_source(name).whiskers[0]
    lw = first.left.word
    for cut in range(len(lw), 0, -1):
        mid = OneCell(sig.one[lw[cut - 1]][1], lw[cut:])
        for alpha in ends.get(mid.start, ()):
            yield Interchanger(alpha, mid, first.gen)


def _op_x_above(pres: GrayPresentation, name: str, ends: dict):
    """The window glued at ``d = 1`` under each interchanger of ``_x_above``;
    ``ends`` is ``_target_ends(pres.sig)``."""
    window = OpGen(name)
    for x in _x_above(pres.sig, name, ends):
        yield from _glue(pres, x, window, 1)


def _op_x_below(pres: GrayPresentation, name: str, ends: dict):
    """Interchangers whose upper row is the last row of the window.

    They are the 180° rotations of the interchangers above the window of
    ``pres.rotated``, so ``ends`` is ``_target_ends(pres.rotated.sig)``;
    each is rotated back and glued under the window's last row, and the
    branching is ``(window step, interchanger step)``.
    """
    sig, rot = pres.sig, pres.rotated.sig
    window, last = OpGen(name), len(sig.gen3_source(name).whiskers) - 1
    for x in _x_above(rot, name, ends):
        for b in _glue(pres, window, rot.rotate(x), last):
            yield Branching(b.s2, b.s1)


def _candidates(pres: GrayPresentation):
    """Every candidate branching: operational overlaps, then per
    generator the interchangers inside, above and below its window.

    Each is one ``_glue`` of two generator instances, built once, over
    ``pres.sig``; the family below a window reads its instances from
    ``pres.rotated`` and rotates back only them.  The overlaps are found
    by lookup: every window row is listed under its generator, in window
    order and then row order, and a window's first row is laid only on
    the rows listed under its generator.  The candidates come in the
    order of trying every window on every row.
    """
    sig = pres.sig
    rows_by_gen = {}
    for top in pres.operational():
        for d, w in enumerate(sig.gen3_source(top).whiskers):
            rows_by_gen.setdefault(w.gen, []).append((top, d))
    for bottom in pres.operational():
        for top, d in rows_by_gen.get(sig.gen3_source(bottom).whiskers[0].gen, ()):
            # a window glued onto itself at row 0 gives two equal steps,
            # a trivial branching, so that glue is skipped
            if d or top != bottom:
                yield from _glue(pres, OpGen(top), OpGen(bottom), d)
    above, below = _target_ends(sig), _target_ends(pres.rotated.sig)
    for name in pres.operational():
        yield from _op_x_inside(pres, name)
        yield from _op_x_above(pres, name, above)
        yield from _op_x_below(pres, name, below)


# the most candidates ``enumerate_critical`` classifies before it refuses
MAX_CANDIDATES = 10**6


def enumerate_critical(pres: GrayPresentation) -> List[CriticalBranching]:
    """Complete list of critical branchings, deduplicated by symmetry.

    ``MAX_CANDIDATES`` bounds the candidates of ``_candidates``; past it the
    enumeration raises ``RewritingError``.  A window glued onto itself at
    row 0 is not a candidate, since it is never critical.
    A candidate that is not a branching, or a critical branching of two
    interchangers, is a defect of the enumeration and raises
    ``InternalError``, not a refusal.
    """
    if pres.qmode is not None:
        raise UnsupportedError(
            "critical-branching enumeration is defined for Gray-mode presentations only"
        )
    rep = validate(pres)
    if not rep.ok:
        raise RewritingError("presentation failed validation: " + "; ".join(rep.messages))
    if not rep.operational_sources_positive:
        raise RewritingError(
            "enumeration requires every operational 3-generator to have a nonempty source"
        )
    seen = {}
    for i, b in enumerate(_candidates(pres)):
        if i >= MAX_CANDIDATES:
            raise RewritingError("candidate budget exceeded")
        b, key = _keyed(b)
        try:
            critical = isinstance(classify(pres, b), Critical)
        except CellError as exc:
            raise InternalError(f"internal invariant violated: candidate {key} is not a branching: {exc}") from exc
        if critical and key not in seen:
            seen[key] = CriticalBranching(b, key)
    out = sorted(seen.values(), key=lambda cb: cb.key)
    for cb in out:
        if isinstance(cb.branching.s1.inner, Interchanger) and isinstance(cb.branching.s2.inner, Interchanger):
            raise InternalError(
                f"internal invariant violated: interchanger/interchanger branching {cb.key} "
                "classified as critical"
            )
    return out
