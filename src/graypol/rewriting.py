"""Rewriting steps, redex matching, branchings and their classification.

Redexes of a 2-cell are found by sliding operational sources over
contiguous whisker windows and solving for the context, and by matching
consecutive whisker pairs against the interchanger source pattern.
Local branchings are classified as trivial, non-minimal, independent,
natural or critical, and the complete finite list of critical
branchings of a presentation is enumerated by the overlap analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cells import (
    CellError,
    CompositionError,
    Interchanger,
    OneCell,
    OpGen,
    QInterchanger,
    Signature,
    Step,
    TwoCell,
    Whisker2,
    length,
    slice2,
)
from .presentation import GrayPresentation, validate
from .shuffle import ShuffleEdge, interp_edge


class RewritingError(CellError):
    pass


class UnsupportedError(RewritingError):
    pass


@dataclass(frozen=True)
class Branching:
    """Two rewriting steps out of the same 2-cell."""

    s1: Step
    s2: Step


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CriticalBranching:
    branching: Branching
    key: tuple


# ---------------------------------------------------------------- redexes


def _word_suffix(u: OneCell, n: int, sig: Signature) -> OneCell:
    # start of the suffix is the endpoint of the dropped prefix
    pre = OneCell(u.start, u.word[: len(u.word) - n])
    return OneCell(sig.end0(pre), u.word[len(u.word) - n :])


def _match_window(sig: Signature, phi: TwoCell, t: int, pattern: TwoCell) -> List[Tuple[OneCell, OneCell]]:
    """Solve ``l *0 pattern *0 r == rows t..t+len(pattern) of phi``.

    Returns all solutions (one for nonempty patterns, possibly several
    for identity patterns sliding along a 1-cell).
    """
    m = length(pattern)
    out = []
    if m == 0:
        level = sig.source(phi) if t == 0 else sig.whisker_target(phi.whiskers[t - 1])
        pw = pattern.source1.word
        for cut in range(len(level.word) - len(pw) + 1):
            if tuple(level.word[cut : cut + len(pw)]) != pw:
                continue
            l = OneCell(level.start, level.word[:cut])
            if sig.end0(l) != pattern.source1.start:
                continue
            rstart = sig.end0(pattern.source1)
            r = OneCell(rstart, level.word[cut + len(pw) :])
            out.append((l, r))
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
    # rows of ``l *0 pattern *0 r``, compared field by field without building them
    for row, prow in zip(rows, pattern.whiskers):
        if (
            row.gen != prow.gen
            or row.left.word != lw + prow.left.word
            or row.right.word != prow.right.word + rw
            or row.left.start != first.left.start
            or row.right.start != prow.right.start
        ):
            return []
    # the typing checks of the whiskering; the pattern is a checked
    # 3-generator source, so these two cover every row of it
    l = OneCell(first.left.start, lw)
    r = _word_suffix(first.right, dr, sig)
    if sig.end0(l) != pattern.source1.start or r.start != sig.end0(pattern.source1):
        return []
    level = sig.source(slice2(sig, phi, t, t + m))
    if level != OneCell(l.start, lw + pattern.source1.word + rw):
        return []
    return [(l, r)]


def _step_at(sig: Signature, phi: TwoCell, t: int, m: int, l: OneCell, inner, r: OneCell) -> Step:
    lam = slice2(sig, phi, 0, t)
    rho = slice2(sig, phi, t + m, length(phi))
    return Step(lam, l, inner, r, rho)


def match_interchanger_source(sig: Signature, wa: Whisker2, wb: Whisker2):
    """Match two consecutive whiskers against the interchanger source shape.

    Returns ``(l, alpha, mid, beta, r)`` or ``None``; the middle word is
    the unique solution of the boundary equations.
    """
    l, r = wa.left, wb.right
    fp = sig.tgt1(wa.gen)
    need = l.word + fp.word
    if wb.left.word[: len(need)] != need or wb.left.start != l.start:
        return None
    mid = OneCell(sig.end0(fp), wb.left.word[len(need) :])
    h = sig.src1(wb.gen)
    if wa.right.word != mid.word + h.word + r.word:
        return None
    if wa.right.start != mid.start:
        return None
    return (l, wa.gen, mid, wb.gen, r)


def match_interchanger_target(sig: Signature, wa: Whisker2, wb: Whisker2):
    """Match against the interchanger target shape (upper whisker shifted right)."""
    l, r = wb.left, wa.right
    f = sig.src1(wb.gen)
    need = l.word + f.word
    if wa.left.word[: len(need)] != need or wa.left.start != l.start:
        return None
    mid = OneCell(sig.end0(f), wa.left.word[len(need) :])
    hp = sig.tgt1(wa.gen)
    if wb.right.word != mid.word + hp.word + r.word:
        return None
    if wb.right.start != mid.start:
        return None
    return (l, wb.gen, mid, wa.gen, r)


def _q_inner(pres: GrayPresentation, alpha: str, mid: OneCell, beta: str, from_target: bool):
    """Oriented self-duality interchange instance for a matched window, if any."""
    q = pres.qmode
    if not from_target:
        if (alpha, beta) in ((q.eta, q.eps), (q.eps, q.eps)):
            return QInterchanger(alpha, mid, beta, rev=False)
        return None
    if (alpha, beta) in ((q.eta, q.eta), (q.eps, q.eta)):
        return QInterchanger(alpha, mid, beta, rev=True)
    return None


def find_redexes(
    pres: GrayPresentation,
    phi: TwoCell,
    include_interchangers: bool = True,
    lowest_from: Optional[int] = None,
) -> List[Step]:
    """All rewriting steps with source ``phi``, in canonical order.

    The scan goes row by row: at start row ``t`` it tries every
    operational source whose window starts there, then the interchanger
    pair ``(t, t+1)``.  With ``lowest_from=k`` it starts at row ``k`` and
    returns only the steps of the first row ``>= k`` that has any, which
    are the steps with the smallest ``|lam| >= k``.
    """
    sig = pres.sig
    qmode = pres.qmode
    whiskers = phi.whiskers
    n = len(whiskers)
    sources = []
    for name in pres.operational():
        src = sig.gen3_source(name)
        m = length(src)
        sources.append((name, src, m, src.whiskers[0].gen if m else None))
    out = []
    for t in range(lowest_from or 0, n + 1):
        for name, src, m, first in sources:
            if t + m > n or (m and whiskers[t].gen != first):
                continue
            for l, r in _match_window(sig, phi, t, src):
                out.append(_step_at(sig, phi, t, m, l, OpGen(name), r))
        if include_interchangers and t + 1 < n:
            wa, wb = whiskers[t], whiskers[t + 1]
            hit = match_interchanger_source(sig, wa, wb)
            if hit is not None:
                l, alpha, mid, beta, r = hit
                if qmode is None:
                    out.append(_step_at(sig, phi, t, 2, l, Interchanger(alpha, mid, beta), r))
                else:
                    inner = _q_inner(pres, alpha, mid, beta, from_target=False)
                    if inner is not None:
                        out.append(_step_at(sig, phi, t, 2, l, inner, r))
            if qmode is not None:
                hit = match_interchanger_target(sig, wa, wb)
                if hit is not None:
                    l, alpha, mid, beta, r = hit
                    inner = _q_inner(pres, alpha, mid, beta, from_target=True)
                    if inner is not None:
                        out.append(_step_at(sig, phi, t, 2, l, inner, r))
        if out and lowest_from is not None:
            break
    out.sort(key=step_key)
    return out


def apply_step(pres: GrayPresentation, step: Step) -> TwoCell:
    return pres.sig.step_target(step)


# ---------------------------------------------------------------- keys


def _inst_key(inner) -> tuple:
    if isinstance(inner, OpGen):
        return (0, inner.name)
    if isinstance(inner, Interchanger):
        return (1, inner.alpha, inner.mid.word, inner.beta)
    if isinstance(inner, QInterchanger):
        return (2, inner.alpha, inner.mid.word, inner.beta, inner.rev)
    raise RewritingError(f"not a generator instance: {inner!r}")


def step_key(s: Step) -> tuple:
    return (length(s.lam), _inst_key(s.inner), len(s.left.word), len(s.right.word))


def branching_key(b: Branching) -> tuple:
    """Canonical-form key ``(inner1, inner2, |lam1|, |lam2|)``."""
    return (
        _inst_key(b.s1.inner),
        _inst_key(b.s2.inner),
        length(b.s1.lam),
        length(b.s2.lam),
    )


def canonical_branching(b: Branching) -> Branching:
    """Representative of ``(s1, s2) ~ (s2, s1)`` chosen by the step keys."""
    a, c = (_inst_key(b.s1.inner), length(b.s1.lam)), (_inst_key(b.s2.inner), length(b.s2.lam))
    if c < a or (c == a and step_key(b.s2) < step_key(b.s1)):
        return Branching(b.s2, b.s1)
    return b


# ---------------------------------------------------------------- classification


def _common_word_prefix(*words):
    n = min(len(w) for w in words)
    out = []
    for i in range(n):
        if all(w[i] == words[0][i] for w in words):
            out.append(words[0][i])
        else:
            break
    return tuple(out)


def _common_word_suffix(*words):
    rev = _common_word_prefix(*[tuple(reversed(w)) for w in words])
    return tuple(reversed(rev))


def _zero_prefix_bound(phi: TwoCell) -> Tuple[str, ...]:
    words = [phi.source1.word] + [w.left.word for w in phi.whiskers]
    return _common_word_prefix(*words)


def _zero_suffix_bound(sig: Signature, phi: TwoCell) -> Tuple[str, ...]:
    words = [phi.source1.word] + [w.right.word for w in phi.whiskers]
    return _common_word_suffix(*words)


def _strip_step(sig: Signature, s: Step, t_lam: int, t_rho: int, nl: int, nr: int) -> Step:
    """Remove ``t_lam``/``t_rho`` outer rows and ``nl``/``nr`` outer letters."""
    lam = TwoCell(
        _unpad1(sig, sig.source(slice2(sig, s.lam, t_lam, length(s.lam))), nl, nr),
        tuple(_unpad_whisker(sig, w, nl, nr) for w in s.lam.whiskers[t_lam:]),
    )
    rho_keep = length(s.rho) - t_rho
    rho = TwoCell(
        _unpad1(sig, sig.source(slice2(sig, s.rho, 0, rho_keep)), nl, nr),
        tuple(_unpad_whisker(sig, w, nl, nr) for w in s.rho.whiskers[:rho_keep]),
    )
    left = _unpad1(sig, s.left, nl, 0)
    right = _unpad1(sig, s.right, 0, nr)
    return Step(lam, left, s.inner, right, rho)


def _unpad1(sig: Signature, u: OneCell, nl: int, nr: int) -> OneCell:
    word = u.word[nl : len(u.word) - nr if nr else None]
    pre = OneCell(u.start, u.word[:nl])
    return OneCell(sig.end0(pre), word)


def _unpad_whisker(sig: Signature, w: Whisker2, nl: int, nr: int) -> Whisker2:
    return Whisker2(_unpad1(sig, w.left, nl, 0), w.gen, _unpad1(sig, w.right, 0, nr))


def common_peel(pres: GrayPresentation, b: Branching):
    """Maximal shared context ``(lam, l, r, rho)`` of a local branching."""
    sig = pres.sig
    s1, s2 = b.s1, b.s2
    phi = sig.step_source(s1)
    t_lam = min(length(s1.lam), length(s2.lam))
    t_rho = min(length(s1.rho), length(s2.rho))
    middle = slice2(sig, phi, t_lam, length(phi) - t_rho)
    lw = _common_word_prefix(s1.left.word, s2.left.word, _zero_prefix_bound(middle))
    rw = _common_word_suffix(s1.right.word, s2.right.word, _zero_suffix_bound(sig, middle))
    nl, nr = len(lw), len(rw)
    lam = slice2(sig, phi, 0, t_lam)
    rho = slice2(sig, phi, length(phi) - t_rho, length(phi))
    left = OneCell(middle.source1.start, lw)
    right = _word_suffix(sig.source(middle), nr, sig)
    reduced = Branching(
        _strip_step(sig, s1, t_lam, t_rho, nl, nr),
        _strip_step(sig, s2, t_lam, t_rho, nl, nr),
    )
    return lam, left, right, rho, reduced


def _is_independent_direct(sig: Signature, s1: Step, s2: Step) -> bool:
    """Definition check: the two redex windows are separated by a middle 2-cell."""
    k1 = length(sig.inst_source(s1.inner))
    if length(s1.lam) != 0 or length(s2.rho) != 0:
        return False
    if length(s2.lam) < k1:
        return False
    chi = slice2(sig, sig.step_source(s1), k1, length(s2.lam))
    win1 = sig.whisker0(s1.left, sig.inst_source(s1.inner), s1.right)
    win2 = sig.whisker0(s2.left, sig.inst_source(s2.inner), s2.right)
    try:
        top = sig.compose(win1, chi, 1)
        bottom = sig.compose(chi, win2, 1)
    except CompositionError:
        return False
    return s2.lam == top and s1.rho == bottom


def is_independent(pres: GrayPresentation, b: Branching) -> bool:
    sig = pres.sig
    k1 = length(sig.inst_source(b.s1.inner))
    k2 = length(sig.inst_source(b.s2.inner))
    if k1 == 0 or k2 == 0:
        return _is_independent_direct(sig, b.s1, b.s2) or _is_independent_direct(sig, b.s2, b.s1)
    return length(b.s1.lam) >= k2 or length(b.s1.rho) >= k2


def _strip0_left(sig: Signature, phi: TwoCell, word: Tuple[str, ...]) -> Optional[TwoCell]:
    n = len(word)
    if phi.source1.word[:n] != word:
        return None
    for w in phi.whiskers:
        if w.left.word[:n] != word:
            return None
    return TwoCell(
        _unpad1(sig, phi.source1, n, 0),
        tuple(_unpad_whisker(sig, w, n, 0) for w in phi.whiskers),
    )


def _strip0_right(sig: Signature, phi: TwoCell, word: Tuple[str, ...]) -> Optional[TwoCell]:
    n = len(word)
    if n and phi.source1.word[-n:] != word:
        return None
    for w in phi.whiskers:
        if n and w.right.word[-n:] != word:
            return None
    return TwoCell(
        _unpad1(sig, phi.source1, 0, n),
        tuple(_unpad_whisker(sig, w, 0, n) for w in phi.whiskers),
    )


def _natural_match(pres: GrayPresentation, s_op: Step, s_x: Step) -> bool:
    """Interchange naturality pattern, in both mirror orientations.

    The generator role may be played by any 3-generator, interchange
    generators included.  The mirrored indices are chosen mechanically;
    see the classify docstring.
    """
    sig = pres.sig
    if not isinstance(s_x.inner, Interchanger):
        return False
    phi_a = sig.inst_source(s_op.inner)
    k = length(phi_a)
    if k == 0:
        return False
    # generator window on top, interchanger swaps its last row downwards
    if length(s_op.lam) == 0 and not s_op.left.word and length(s_x.lam) == k - 1:
        fp = sig.target(phi_a)
        psig = _strip0_left(sig, s_op.rho, fp.word)
        if psig is not None and length(psig) >= 1:
            edge = ShuffleEdge(
                tuple(("l", i) for i in range(1, k)),
                k,
                1,
                tuple(("r", j) for j in range(2, length(psig) + 1)),
            )
            try:
                cand = interp_edge(sig, edge, phi_a, psig)
            except CellError:
                cand = None
            if cand == s_x:
                return True
    # generator window at the bottom, interchanger swaps its first row upwards
    if length(s_op.rho) == 0 and not s_op.right.word and length(s_op.lam) >= 1:
        psi_b = phi_a
        h = sig.source(psi_b)
        phig = _strip0_right(sig, s_op.lam, h.word)
        if phig is not None and length(phig) >= 1 and length(s_x.lam) == length(phig) - 1:
            if sig.target(phig) == s_op.left:
                kk = length(phig)
                edge = ShuffleEdge(
                    tuple(("l", i) for i in range(1, kk)),
                    kk,
                    1,
                    tuple(("r", j) for j in range(2, length(psi_b) + 1)),
                )
                try:
                    cand = interp_edge(sig, edge, phig, psi_b)
                except CellError:
                    cand = None
                if cand == s_x:
                    return True
    return False


def is_natural(pres: GrayPresentation, b: Branching) -> bool:
    if pres.qmode is not None:
        return False
    return _natural_match(pres, b.s1, b.s2) or _natural_match(pres, b.s2, b.s1)


def classify(pres: GrayPresentation, b: Branching):
    """Branching taxonomy; checks both the branching and its symmetric one.

    In q mode the natural class is dropped.  The open convention for the
    mirrored naturality indices is applied mechanically (second clause
    of the naturality match).
    """
    sig = pres.sig
    if sig.step_source(b.s1) != sig.step_source(b.s2):
        raise RewritingError("not a branching: the two steps have different sources")
    if b.s1 == b.s2:
        return Trivial()
    lam, left, right, rho, reduced = common_peel(pres, b)
    if length(lam) or length(rho) or left.word or right.word:
        return NonMinimal(lam, left, right, rho, reduced)
    if is_independent(pres, b):
        return Independent()
    if is_natural(pres, b):
        return Natural()
    return Critical()


# ---------------------------------------------------------------- enumeration


def _try_branching(pres: GrayPresentation, s1: Step, s2: Step) -> Optional[Branching]:
    sig = pres.sig
    try:
        sig.check(sig.step_cell(s1))
        sig.check(sig.step_cell(s2))
        if sig.step_source(s1) != sig.step_source(s2):
            return None
    except CellError:
        return None
    return Branching(s1, s2)


def _solve_left_contexts(sig: Signature, u: OneCell, v: OneCell):
    """Solutions ``(l1, l2)`` of ``l1 * u == l2 * v`` with one side empty."""
    out = []
    if len(v.word) >= len(u.word):
        d = len(v.word) - len(u.word)
        if v.word[d:] == u.word:
            l1 = OneCell(v.start, v.word[:d])
            if sig.end0(l1) == u.start:
                out.append((l1, OneCell(v.start, ())))
    if len(u.word) >= len(v.word):
        d = len(u.word) - len(v.word)
        if u.word[d:] == v.word:
            l2 = OneCell(u.start, u.word[:d])
            if sig.end0(l2) == v.start:
                out.append((OneCell(u.start, ()), l2))
    return _dedupe(out)


def _solve_right_contexts(sig: Signature, u: OneCell, v: OneCell):
    """Solutions ``(r1, r2)`` of ``u * r1 == v * r2`` with one side empty."""
    out = []
    if u.start != v.start:
        return out
    if len(v.word) <= len(u.word) and u.word[: len(v.word)] == v.word:
        out.append((OneCell(sig.end0(u), ()), OneCell(sig.end0(v), u.word[len(v.word) :])))
    if len(u.word) <= len(v.word) and v.word[: len(u.word)] == u.word:
        out.append((OneCell(sig.end0(u), v.word[len(u.word) :]), OneCell(sig.end0(v), ())))
    return _dedupe(out)


def _dedupe(pairs):
    seen = set()
    out = []
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


def _op_op_candidates(pres: GrayPresentation, n1: str, n2: str):
    """Overlaps of two operational windows, the second anchored at the top."""
    sig = pres.sig
    src1, src2 = sig.gen3_source(n1), sig.gen3_source(n2)
    k1, k2 = length(src1), length(src2)
    for d in range(k2):
        over = min(d + k1, k2) - d
        if over <= 0:
            continue
        w1, w2 = src1.whiskers[0], src2.whiskers[d]
        if w1.gen != w2.gen:
            continue
        for l1, l2 in _solve_left_contexts(sig, w1.left, w2.left):
            for r1, r2 in _solve_right_contexts(sig, w1.right, w2.right):
                try:
                    body1 = sig.whisker0(l1, src1, r1)
                    body2 = sig.whisker0(l2, src2, r2)
                except CellError:
                    continue
                if body1.whiskers[:over] != body2.whiskers[d : d + over]:
                    continue
                rows = body2.whiskers[: d + over] + body1.whiskers[over:]
                if d + k1 < k2:
                    rows = body2.whiskers
                try:
                    shared = TwoCell(body2.source1, tuple(rows))
                    sig.check2(shared)
                except CellError:
                    continue
                total = length(shared)
                s1 = Step(slice2(sig, shared, 0, d), l1, OpGen(n1), r1,
                          slice2(sig, shared, d + k1, total))
                s2 = Step(slice2(sig, shared, 0, 0), l2, OpGen(n2), r2,
                          slice2(sig, shared, k2, total))
                b = _try_branching(pres, s1, s2)
                if b is not None:
                    yield b


def _bare_step(sig: Signature, name: str) -> Step:
    src = sig.gen3_source(name)
    return Step(
        slice2(sig, src, 0, 0),
        sig.id1(src.source1.start),
        OpGen(name),
        sig.id1(sig.end0(sig.source(src))),
        slice2(sig, src, length(src), length(src)),
    )


def _op_x_inside(pres: GrayPresentation, n1: str):
    """Interchanger window fully inside an operational source."""
    sig = pres.sig
    src1 = sig.gen3_source(n1)
    k1 = length(src1)
    for t in range(k1 - 1):
        hit = match_interchanger_source(sig, src1.whiskers[t], src1.whiskers[t + 1])
        if hit is None:
            continue
        l2, alpha, mid, beta, r2 = hit
        s2 = Step(slice2(sig, src1, 0, t), l2, Interchanger(alpha, mid, beta), r2,
                  slice2(sig, src1, t + 2, k1))
        b = _try_branching(pres, _bare_step(sig, n1), s2)
        if b is not None:
            yield b


def _op_x_above(pres: GrayPresentation, n1: str):
    """Interchanger whose lower row is the first row of the generator window.

    The crossed word is a strict suffix of the first row's left context;
    longer crossings give natural branchings.
    """
    sig = pres.sig
    src1 = sig.gen3_source(n1)
    first = src1.whiskers[0]
    beta = first.gen
    for cut in range(len(first.left.word)):
        for alpha in sig.two:
            ta = sig.tgt1(alpha)
            mid = OneCell(sig.end0(ta), first.left.word[len(first.left.word) - cut :])
            try:
                sig.check1(mid)
                inst = Interchanger(alpha, mid, beta)
                xs = sig.inst_source(inst)
            except CellError:
                continue
            tam = sig.compose(ta, mid, 0)
            for l1, l2 in _solve_left_contexts(sig, first.left, tam):
                r2 = first.right
                try:
                    body_x = sig.whisker0(l2, xs, r2)
                    r1 = sig.id1(sig.end0(body_x.source1))
                    body_a = sig.whisker0(l1, src1, r1)
                except CellError:
                    continue
                if body_x.whiskers[1] != body_a.whiskers[0]:
                    continue
                try:
                    shared = TwoCell(body_x.source1, (body_x.whiskers[0],) + body_a.whiskers)
                    sig.check2(shared)
                except CellError:
                    continue
                total = length(shared)
                s_op = Step(slice2(sig, shared, 0, 1), l1, OpGen(n1), r1,
                            slice2(sig, shared, 1 + length(src1), total))
                s_x = Step(slice2(sig, shared, 0, 0), l2, inst, r2,
                           slice2(sig, shared, 2, total))
                b = _try_branching(pres, s_op, s_x)
                if b is not None:
                    yield b


def _op_x_below(pres: GrayPresentation, n1: str):
    """Interchanger whose upper row is the last row of the generator window."""
    sig = pres.sig
    src1 = sig.gen3_source(n1)
    k1 = length(src1)
    last = src1.whiskers[-1]
    alpha = last.gen
    l1 = OneCell(src1.source1.start, ())
    l2 = last.left
    for cut in range(len(last.right.word)):
        mid = OneCell(last.right.start, last.right.word[:cut])
        for beta in sig.two:
            try:
                sig.check1(mid)
                inst = Interchanger(alpha, mid, beta)
                xs = sig.inst_source(inst)
                u = sig.compose(mid, sig.src1(beta), 0)
            except CellError:
                continue
            for r1, r2 in _solve_right_contexts(sig, last.right, u):
                try:
                    body_x = sig.whisker0(l2, xs, r2)
                    body_a = sig.whisker0(l1, src1, r1)
                except CellError:
                    continue
                if body_x.whiskers[0] != body_a.whiskers[-1]:
                    continue
                try:
                    shared = TwoCell(body_a.source1, body_a.whiskers + (body_x.whiskers[1],))
                    sig.check2(shared)
                except CellError:
                    continue
                total = length(shared)
                s_op = Step(slice2(sig, shared, 0, 0), l1, OpGen(n1), r1,
                            slice2(sig, shared, k1, total))
                s_x = Step(slice2(sig, shared, 0, k1 - 1), l2, inst, r2,
                           slice2(sig, shared, k1 + 1, total))
                b = _try_branching(pres, s_op, s_x)
                if b is not None:
                    yield b


def enumerate_critical(pres: GrayPresentation, max_candidates: int = 10**6) -> List[CriticalBranching]:
    """Complete list of critical branchings, deduplicated by symmetry."""
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
    sig = pres.sig
    seen = {}
    budget = max_candidates

    def record(b: Branching):
        b = canonical_branching(b)
        if not isinstance(classify(pres, b), Critical):
            return
        key = branching_key(b)
        if key not in seen:
            seen[key] = CriticalBranching(b, key)

    ops = list(pres.operational())
    for n1 in ops:
        for n2 in ops:
            for b in _op_op_candidates(pres, n1, n2):
                budget -= 1
                if budget < 0:
                    raise RewritingError("candidate budget exceeded")
                record(b)
    for n1 in ops:
        for gen in (_op_x_inside(pres, n1), _op_x_above(pres, n1), _op_x_below(pres, n1)):
            for b in gen:
                budget -= 1
                if budget < 0:
                    raise RewritingError("candidate budget exceeded")
                record(b)
    out = sorted(seen.values(), key=lambda cb: cb.key)
    for cb in out:
        if isinstance(cb.branching.s1.inner, Interchanger) and isinstance(cb.branching.s2.inner, Interchanger):
            raise RewritingError(
                f"internal invariant violated: interchanger/interchanger branching {cb.key} "
                "classified as critical"
            )
    return out
