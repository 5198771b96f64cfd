"""Normalization of 2-cells, joining of branchings, Squier completion,
and the zigzag calculus for formally invertible 3-cells.

``normalize2`` rewrites with the deterministic lowest-redex-first
strategy and returns the witnessing rewriting path.  ``squier_completion``
joins every critical branching and emits one tile per branching not
already covered by an installed tile; the report verdict follows the
coherence criterion: certified termination plus a tile for every
critical branching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cells import (
    CellError,
    Signature,
    ThreeCell,
    TwoCell,
    length,
)
from .presentation import GrayPresentation, Tile
from .rewriting import Branching, enumerate_critical, find_redexes
from .termination import TerminationCertificate, TerminationRefused, certify_termination

DEFAULT_MAX_STEPS = 100000

MIRROR_CONVENTION_NOTE = (
    "naturality patterns are matched in both mirror orientations; the mirrored "
    "index convention is fixed mechanically"
)


def default_budget() -> int:
    """Step budget from ``GRAYPOL_MAX_STEPS``; ``ValueError`` unless a positive integer."""
    env = os.environ.get("GRAYPOL_MAX_STEPS")
    if not env:
        return DEFAULT_MAX_STEPS
    return positive_budget(env, "GRAYPOL_MAX_STEPS")


def positive_budget(value, origin: str) -> int:
    """``value`` as a step budget; ``ValueError`` naming ``origin`` unless a positive integer."""
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"{origin} must be a positive integer, got {value!r}")
    return budget


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
    """Normal form of ``phi`` plus the witnessing rewriting path.

    Requires a termination certificate or an explicit step budget.  A
    budget of ``B`` allows ``B`` steps; ``NonTermination`` (with the
    partial path of ``B`` steps) is raised only when a redex remains
    after them.
    """
    if certificate is None and max_steps is None:
        raise CellError("normalize2 needs a termination certificate or an explicit step budget")
    budget = max_steps if max_steps is not None else default_budget()
    sig = pres.sig
    reach = max([2] + [length(sig.gen3_source(name)) for name in pres.operational()])
    steps = []
    cur = phi
    lowest = 0
    while True:
        redexes = find_redexes(pres, cur, lowest_from=lowest)
        if not redexes:
            return cur, ThreeCell(phi, tuple(steps))
        if len(steps) >= budget:
            raise NonTermination(
                f"no normal form within {budget} steps; non-termination suspected",
                ThreeCell(phi, tuple(steps)),
            )
        step = redexes[0]
        steps.append(step)
        cur = sig.step_target(step)
        # Resume the next scan near the rewrite at row t = |lam|.  Whether a
        # window matches depends only on its own rows and the level above
        # them.  The rewrite kept the rows above t and the level at t, and
        # the scan that chose this step found no redex starting above t.  So
        # no window that ends above t can match now, and the windows left to
        # try, of at most ``reach`` rows, start at row t - reach + 1 or later.
        lowest = max(0, length(step.lam) - reach + 1)


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
    certificate: Optional[TerminationCertificate] = None,
    interpretation=None,
    max_steps: Optional[int] = None,
) -> Tuple[List[Tile], CoherenceReport]:
    """One tile per uncovered critical branching, plus the verdict.

    With refused termination the joins still run under the step budget
    and the verdict stays inconclusive.
    """
    refusal = None
    if certificate is None:
        try:
            certificate = certify_termination(pres, None, interpretation)
        except TerminationRefused as exc:
            refusal = str(exc)
    budget = max_steps if max_steps is not None else default_budget()
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
            lhs = sig.compose(sig.step_cell(b.s1), rec.f1, 2)
            rhs = sig.compose(sig.step_cell(b.s2), rec.f2, 2)
            tile = Tile(f"T{idx}", lhs, rhs)
            emitted.append(tile)
            emitted_name = tile.name
        reports.append(BranchingReport(cb.key, True, covered, emitted_name, rec.normal_form))
    if refusal is not None or not all_joined:
        verdict = "inconclusive"
    elif all_covered:
        verdict = "coherent-by-squier"
    else:
        verdict = "completed-with-new-tiles"
    report = CoherenceReport(certificate, refusal, reports, verdict, [MIRROR_CONVENTION_NOTE])
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


def zz_whisker0(sig: Signature, left, z: Zigzag, right) -> Zigzag:
    return Zigzag(
        sig.whisker0(left, z.source2, right),
        sig.whisker0(left, z.target2, right),
        tuple((sig.whisker0(left, c, right), s) for c, s in z.entries),
    )


def zz_whisker1(sig: Signature, lam: TwoCell, z: Zigzag, rho: TwoCell) -> Zigzag:
    return Zigzag(
        sig.compose(sig.compose(lam, z.source2, 1), rho, 1),
        sig.compose(sig.compose(lam, z.target2, 1), rho, 1),
        tuple((sig.whisker1(lam, c, rho), s) for c, s in z.entries),
    )


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
