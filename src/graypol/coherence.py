"""Normalization of 2-cells, joining of branchings, Squier completion,
and the zigzag calculus for formally invertible 3-cells.

``normalize2`` rewrites with the deterministic lowest-redex-first
strategy on a working cell, a list of rows and a list of levels that
each step splices at its window, and returns the witnessing rewriting
path.  ``squier_completion`` joins every critical branching and emits
one tile per branching not already covered by an installed tile; the
report verdict follows the coherence criterion: certified termination
plus a tile for every critical branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cells import (
    CellError,
    InternalError,
    Signature,
    ThreeCell,
    TwoCell,
    dim,
    length,
)
from .presentation import GrayPresentation, Tile, _tile_fault
from .rewriting import Branching, enumerate_critical, find_redexes
from .termination import TerminationCertificate, TerminationRefused, certify_termination

DEFAULT_MAX_STEPS = 100000


class NonTermination(CellError):
    """Budget exhausted without reaching a normal form."""

    def __init__(self, message, partial: ThreeCell):
        super().__init__(message)
        self.partial = partial


def normalize2(
    pres: GrayPresentation,
    phi: TwoCell,
    certificate: Optional[TerminationCertificate] = None,
    max_steps: Optional[int] = None,
) -> Tuple[TwoCell, ThreeCell]:
    """Normal form of the 2-cell ``phi`` plus the witnessing rewriting path.

    Requires a termination certificate or an explicit step budget.  A
    budget of ``B`` allows ``B`` steps; ``NonTermination`` (with the
    partial path of ``B`` steps) is raised only when a redex remains
    after them.

    The cell is kept as a working cell: a list of its rows and a list of
    its levels, ``levels[t]`` the 1-cell above row ``t``.  A scan reads the
    levels above and below each window from that list, and a step splices
    both lists at its window: its target side's rows, whiskered by the
    step's contexts, replace the window's rows, and only the levels inside
    the window are computed again.  Before the splice, the step's
    junctions are checked against the levels above and below its window
    (``Signature._step_fault``).  The step was found on this cell, so a
    fault there is a defect of graypol and raises ``InternalError``.  So a
    step costs its window, whose side comes from the signature's memo,
    plus the splices and one copy of the rows as the cell the next scan
    reads.  The returned path is made of ordinary steps, and ``check3``
    replays it.

    Without a certificate the path may loop, and Brent's cycle check
    watches for it: the cell reached is compared with one saved cell,
    which moves forward at distances that double (1, 2, 4, ...).  The
    step taken from a cell is its lowest redex, a function of the cell
    alone (the resumed scan finds the one a full scan would), so once
    the path reaches a cell it reached ``p`` steps earlier, it repeats
    its last ``p`` steps for ever and never reaches a normal form.  The
    rest of the budget is then filled with those steps, and the same
    ``NonTermination`` is raised with the same ``B``-step path, without
    scanning or rewriting again.  With a certificate nothing is compared.
    """
    if not isinstance(phi, TwoCell):
        raise CellError(f"normalize2 needs a 2-cell, got a {dim(phi)}-cell")
    if certificate is None and max_steps is None:
        raise CellError("normalize2 needs a termination certificate or an explicit step budget")
    budget = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
    sig = pres.sig
    reach = max([2] + [length(sig.gen3_source(name)) for name in pres.operational()])
    steps = []
    cur = saved = phi
    rows = list(phi.whiskers)
    levels = [phi.source1] + [sig.whisker_target(w) for w in rows]
    lowest = 0
    # Brent: ``saved`` is compared with the next ``power`` cells; ``since`` counts them
    power, since = 1, 0
    while True:
        redexes = find_redexes(pres, cur, lowest_from=lowest, levels=levels)
        if not redexes:
            return cur, ThreeCell(phi, tuple(steps))
        if len(steps) >= budget:
            break
        step = redexes[0]
        # the window is rows t..u-1, between the rows of lam and rho
        t, u = len(step.lam.whiskers), len(rows) - len(step.rho.whiskers)
        side, bottom = sig._side(step.inner, False)
        fault = sig._step_fault(step, side.source1, bottom, levels[t], levels[u]) if t <= u else "lam and rho overlap"
        if fault is not None:
            raise InternalError(
                f"internal invariant violated: step {len(steps)} does not fit the cell it was found on: {fault}"
            )
        steps.append(step)
        new = sig._whiskered(step.left, side.whiskers, step.right)
        rows[t:u] = new
        # below each new row its target; below the last the level below the
        # window, which stays, and an empty window keeps only the level above it
        levels[t + 1 : u + 1] = [sig.whisker_target(w) for w in new[:-1]] + [levels[u]] if new else []
        cur = TwoCell(phi.source1, tuple(rows))
        # Resume the next scan near the rewrite at row t = |lam|.  Whether a
        # window matches depends only on its own rows and the level above
        # them.  The rows above t are unchanged, and so is the level at t,
        # which the junction check compared with the window's top; and the
        # scan that chose this step found no redex starting above t.  So no
        # window that ends above t can match now, and the windows left to
        # try, of at most ``reach`` rows, start at row t - reach + 1 or later.
        lowest = max(0, t - reach + 1)
        if certificate is None:
            since += 1
            if len(cur.whiskers) == len(saved.whiskers) and cur == saved:
                while len(steps) < budget:
                    steps.append(steps[-since])
                break
            if since == power:
                saved, power, since = cur, 2 * power, 0
    raise NonTermination(
        f"no normal form within {budget} steps; non-termination suspected",
        ThreeCell(phi, tuple(steps)),
    )


@dataclass(frozen=True)
class JoinRecord:
    branching: Branching
    joinable: bool
    f1: Optional[ThreeCell]
    f2: Optional[ThreeCell]
    normal_form: Optional[TwoCell]
    distinct: Optional[Tuple[TwoCell, TwoCell]] = None
    budget_exhausted: bool = False


def join_branching(
    pres: GrayPresentation,
    b: Branching,
    certificate: Optional[TerminationCertificate] = None,
    max_steps: Optional[int] = None,
) -> JoinRecord:
    """Normalize both wings; joinable when they meet at one normal form."""
    sig = pres.sig
    try:
        nf1, f1 = normalize2(pres, sig.step_target(b.s1), certificate, max_steps)
        nf2, f2 = normalize2(pres, sig.step_target(b.s2), certificate, max_steps)
    except NonTermination:
        return JoinRecord(b, False, None, None, None, budget_exhausted=True)
    if nf1 == nf2:
        return JoinRecord(b, True, f1, f2, nf1)
    return JoinRecord(b, False, f1, f2, None, (nf1, nf2))


def tile_covers(sig: Signature, tile: Tile, b: Branching) -> bool:
    """A tile covers a branching when its sides start with the two steps.

    Symmetric coverage counts: a tile for the swapped branching covers
    the branching as well.
    """
    if not tile.lhs.steps or not tile.rhs.steps:
        return False
    first_l, first_r = tile.lhs.steps[0], tile.rhs.steps[0]
    return (first_l == b.s1 and first_r == b.s2) or (first_l == b.s2 and first_r == b.s1)


@dataclass
class BranchingReport:
    key: tuple
    joinable: Optional[bool]
    covered_by: Optional[str]
    emitted: Optional[str]
    normal_form: Optional[TwoCell]


@dataclass
class CoherenceReport:
    termination: Optional[TerminationCertificate]
    termination_refusal: Optional[str]
    branchings: List[BranchingReport]
    verdict: str
    notes: List[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "termination": self.termination.summary() if self.termination else None,
            "termination_refusal": self.termination_refusal,
            "branchings": [
                {
                    "key": key_json(br.key),
                    "joinable": br.joinable,
                    "covered_by": br.covered_by,
                    "emitted": br.emitted,
                }
                for br in self.branchings
            ],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def key_json(key):
    """Branching key as nested JSON lists."""
    def enc(part):
        if isinstance(part, tuple):
            return [enc(p) for p in part]
        return part

    return enc(key)


def squier_completion(
    pres: GrayPresentation,
    interpretation=None,
    max_steps: Optional[int] = None,
) -> Tuple[List[Tile], CoherenceReport]:
    """One tile per uncovered critical branching, plus the verdict.

    Termination is certified first, with ``interpretation`` if given.
    With refused termination the joins still run under the step budget
    and the verdict stays inconclusive.
    """
    certificate = refusal = None
    try:
        certificate = certify_termination(pres, None, interpretation)
    except TerminationRefused as exc:
        refusal = str(exc)
    budget = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
    sig = pres.sig
    criticals = enumerate_critical(pres)
    emitted: List[Tile] = []
    reports: List[BranchingReport] = []
    all_joined = True
    all_covered = True
    for idx, cb in enumerate(criticals, start=1):
        b = cb.branching
        covered = next((t.name for t in pres.tiles if tile_covers(sig, t, b)), None)
        rec = join_branching(pres, b, certificate, budget)
        if not rec.joinable:
            all_joined = False
            reports.append(BranchingReport(cb.key, False, covered, None, None))
            continue
        emitted_name = None
        if covered is None:
            all_covered = False
            # a side is one step of the branching and then its join, on
            # the branching's one source; ``_tile_fault`` types both, and
            # as they are built from a branching and its two joins, a
            # fault here is a defect of graypol, never a refusal
            source = sig.step_source(b.s1)
            lhs = ThreeCell(source, (b.s1,) + rec.f1.steps)
            rhs = ThreeCell(source, (b.s2,) + rec.f2.steps)
            tile = Tile(f"T{idx}", lhs, rhs)
            fault = _tile_fault(sig, tile)
            if fault is not None:
                raise InternalError(f"emitted tile {tile.name} is not a pair of parallel 3-cells: {fault}")
            emitted.append(tile)
            emitted_name = tile.name
        reports.append(BranchingReport(cb.key, True, covered, emitted_name, rec.normal_form))
    if refusal is not None or not all_joined:
        verdict = "inconclusive"
    elif all_covered:
        verdict = "coherent-by-squier"
    else:
        verdict = "completed-with-new-tiles"
    report = CoherenceReport(certificate, refusal, reports, verdict)
    return emitted, report


# ---------------------------------------------------------------- zigzags


@dataclass(frozen=True)
class Zigzag:
    """Formal composite of 3-cells and their inverses."""

    source2: TwoCell
    target2: TwoCell
    entries: Tuple[Tuple[ThreeCell, int], ...]  # sign is +1 or -1


def zz_of(sig: Signature, cell: ThreeCell, sign: int = 1) -> Zigzag:
    if sign not in (1, -1):
        raise CellError("zigzag sign must be +1 or -1")
    src, tgt = sig.source(cell), sig.target(cell)
    if sign == -1:
        src, tgt = tgt, src
    return Zigzag(src, tgt, ((cell, sign),))


def zz_identity(sig: Signature, phi: TwoCell) -> Zigzag:
    return Zigzag(phi, phi, ())


def zz_invert(z: Zigzag) -> Zigzag:
    return Zigzag(z.target2, z.source2, tuple((c, -s) for c, s in reversed(z.entries)))


def zz_compose(sig: Signature, a: Zigzag, b: Zigzag) -> Zigzag:
    if a.target2 != b.source2:
        raise CellError("zigzags are not composable")
    return Zigzag(a.source2, b.target2, a.entries + b.entries)


def _zz_step(sig: Signature, entries):
    """One simplification step; drops and cancellations take priority.

    Returns the list of results of all applicable highest-priority
    rules, or None when the zigzag is reduced.
    """
    prio = []
    for i, (c, s) in enumerate(entries):
        if length(c) == 0:
            prio.append(entries[:i] + entries[i + 1 :])
    for i in range(len(entries) - 1):
        (c1, s1), (c2, s2) = entries[i], entries[i + 1]
        if c1 == c2 and s1 == -s2:
            prio.append(entries[:i] + entries[i + 2 :])
    if prio:
        return prio
    merges = []
    for i in range(len(entries) - 1):
        (c1, s1), (c2, s2) = entries[i], entries[i + 1]
        if s1 == s2 == 1:
            merges.append(entries[:i] + ((sig.compose(c1, c2, 2), 1),) + entries[i + 2 :])
        elif s1 == s2 == -1:
            merges.append(entries[:i] + ((sig.compose(c2, c1, 2), -1),) + entries[i + 2 :])
    return merges or None


def zz_simplify(sig: Signature, z: Zigzag) -> Zigzag:
    """Reduced form: no identity entries, no mergeable or cancelling pairs."""
    entries = z.entries
    while True:
        nxt = _zz_step(sig, entries)
        if nxt is None:
            return Zigzag(z.source2, z.target2, entries)
        entries = nxt[0]


def zz_is_reduced(sig: Signature, z: Zigzag) -> bool:
    return _zz_step(sig, z.entries) is None


def zz_all_reduced_forms(sig: Signature, z: Zigzag, cap: int = 100000):
    """All reduced forms reachable by applying the rules in any order."""
    seen = {z.entries}
    stack = [z.entries]
    out = set()
    while stack:
        cur = stack.pop()
        nxt = _zz_step(sig, cur)
        if nxt is None:
            out.add(cur)
            continue
        for e in nxt:
            if e not in seen:
                if len(seen) > cap:
                    raise CellError("zigzag closure exceeded the exploration cap")
                seen.add(e)
                stack.append(e)
    return out
