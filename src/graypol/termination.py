"""Reduction-order certification for presented rewriting systems.

Four strategies are implemented:

* ``interp``: a linear monotone interpretation handles the operational
  generators and the interchange norm handles the interchangers
  (requires positivity),
* ``interchange``: the interchange norm alone, for presentations whose
  alphabet is interchangers only,
* ``connected``: operational generators strictly drop the whisker count
  and every diagram is connected, so interchanger chains terminate by a
  cited external theorem, recorded as an explicit assumption,
* ``selfdual``: the counting measure of the oriented self-duality
  system, valid on connected diagrams.

Each invariant these orders compare (the interchange norm, the affine
map of a linear interpretation, the connected components of the string
diagram and the self-duality measure) is computed in one pass over the
rows of a 2-cell.  Two generator-level checks search a bounded set of
middle words, bounded by the module constants ``INTERCHANGER_MAX_MID``
(the interchange-norm witnesses) and ``Q_RULE_MAX_MID`` (the oriented
rules).  The interpretation and the cospans need no search, since they
cannot tell the two sides of an interchanger apart, and the closed-diagram
check of ``connected`` is a fixed point over letters, sound for every
presentation.

Certificates carry replayable witnesses; refusal names the first
failing comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cells import (
    CellError,
    InternalError,
    OneCell,
    QInterchanger,
    Signature,
    TwoCell,
    length,
)
from .presentation import GrayPresentation, validate


class TerminationRefused(CellError):
    def __init__(self, strategy: str, reason: str):
        super().__init__(f"{strategy}: {reason}")
        self.strategy = strategy
        self.reason = reason


# Witness bound: ``check_positive_intnorm`` lists the norm drop of the
# interchangers whose middle words have at most this length.  It bounds only
# the list: positivity makes the norm drop whatever the middle word.
INTERCHANGER_MAX_MID = 2
# Search bound: ``check_q_system`` compares the measure across the oriented
# rules whose middle words have at most this length.  When ``eta != eps`` a
# longer middle word only widens the drop, and every middle word longer than
# the bound is nonempty, so the drop holds there too (see ``check_q_system``).
Q_RULE_MAX_MID = 3


# ---------------------------------------------------------------- interchange norm


def interchange_norm(phi: TwoCell) -> Tuple[int, ...]:
    """Reversed sequence of left-context lengths of the whiskers."""
    return tuple(len(w.left.word) for w in reversed(phi.whiskers))


def seq_less(a: Tuple[int, ...], b: Tuple[int, ...]) -> Optional[bool]:
    """Same-length lexicographic comparison; None when incomparable."""
    if len(a) != len(b):
        return None
    return a < b


def check_positive_intnorm(pres: GrayPresentation):
    """Positivity makes the interchange norm drop across every interchanger.

    The source of ``X(alpha, m, beta)`` has rows ``alpha`` (left context
    empty) above ``beta`` (left context ``fp . m``, ``fp`` the target of
    ``alpha``), so its reversed left lengths are ``(|fp| + |m|, 0)``.  Its
    target has ``beta`` (left context ``f . m``) above ``alpha``, so they
    are ``(0, |f| + |m|)``.  Positivity gives ``|fp| >= 1``, and the target
    is lexicographically smaller whatever ``m`` is.  So the check is
    positivity itself; the witnesses list the drop on the interchangers
    with middle words of at most ``INTERCHANGER_MAX_MID`` letters.
    """
    sig = pres.sig
    for name, (_, tgt) in sig.two.items():
        if length(tgt) == 0:
            raise TerminationRefused(
                "interchange",
                f"presentation is not positive: 2-generator {name} has an identity target",
            )
    witnesses = []
    for alpha, mid, beta, src, tgt in _small_interchangers(sig):
        ns, nt = interchange_norm(src), interchange_norm(tgt)
        if seq_less(nt, ns) is not True:
            raise InternalError(
                f"internal invariant violated: the interchange norm does not drop across X({alpha}, {mid!r}, {beta})"
            )
        witnesses.append(("interchanger", alpha, tuple(mid.word), beta, ns, nt))
    return witnesses


def _small_interchangers(sig: Signature):
    """``(alpha, mid, beta, source, target)`` for each interchanger whose middle
    word has at most ``INTERCHANGER_MAX_MID`` letters."""
    for alpha in sig.two:
        for beta in sig.two:
            for mid in _small_middles(sig, alpha, beta, INTERCHANGER_MAX_MID):
                yield (alpha, mid, beta, *sig.interchanger_boundaries(alpha, mid, beta))


def _small_middles(sig: Signature, alpha: str, beta: str, max_len: int):
    start = sig.end0(sig.src1(alpha))
    goal = sig.src1(beta).start
    frontier = [OneCell(start, ())]
    for _ in range(max_len + 1):
        nxt = []
        for u in frontier:
            if sig.end0(u) == goal:
                yield u
            for g, (s, t) in sig.one.items():
                if s == sig.end0(u):
                    nxt.append(OneCell(u.start, u.word + (g,)))
        frontier = nxt


# ---------------------------------------------------------------- linear interpretations


@dataclass(frozen=True)
class AffineMap:
    """Affine map ``N^m -> N^n``: ``x -> matrix @ x + const``."""

    m: int
    matrix: Tuple[Tuple[int, ...], ...]  # n rows of m entries
    const: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.const)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(
            n,
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            (0,) * n,
        )

    @staticmethod
    def make(m, matrix, const) -> "AffineMap":
        matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        const = tuple(int(v) for v in const)
        if len(matrix) != len(const):
            raise CellError("affine map: matrix row count must match constant length")
        if any(len(r) != m for r in matrix):
            raise CellError("affine map: matrix rows must have the input arity")
        if any(v < 0 for row in matrix for v in row) or any(v < 0 for v in const):
            raise CellError("affine map: coefficients must be natural numbers")
        return AffineMap(int(m), matrix, const)

    def strictly_monotone(self) -> bool:
        if self.n == 0:
            return self.m == 0
        for j in range(self.m):
            if not any(self.matrix[i][j] > 0 for i in range(self.n)):
                return False
        return True

    def symbolic(self) -> str:
        names = "xyzuvw"
        outs = []
        for i in range(self.n):
            terms = []
            for j, coef in enumerate(self.matrix[i]):
                var = names[j] if j < len(names) else f"x{j}"
                if coef == 1:
                    terms.append(var)
                elif coef > 1:
                    terms.append(f"{coef}{var}")
            if self.const[i] or not terms:
                terms.append(str(self.const[i]))
            outs.append(" + ".join(terms))
        return "(" + ", ".join(outs) + ")"


@dataclass(frozen=True)
class LinearInterpretation:
    """Arity weights for 1-generators and affine maps for 2-generators."""

    weights: Dict[str, int]
    maps: Dict[str, AffineMap]

    def word_weight(self, u: OneCell) -> int:
        return sum(self.weights[g] for g in u.word)


def _check_interpretation(sig: Signature, interp: LinearInterpretation):
    for g in sig.one:
        if g not in interp.weights:
            raise TerminationRefused("interp", f"no weight for 1-generator {g}")
    for name, (src, tgt) in sig.two.items():
        f = interp.maps.get(name)
        if f is None:
            raise TerminationRefused("interp", f"no interpretation for 2-generator {name}")
        if f.m != interp.word_weight(src) or f.n != interp.word_weight(tgt):
            raise TerminationRefused(
                "interp", f"interpretation of {name} does not respect its boundaries"
            )
        if not f.strictly_monotone():
            raise TerminationRefused(
                "interp", f"interpretation of {name} is not strictly monotone (zero column)"
            )


def eval_interpretation(sig: Signature, interp: LinearInterpretation, phi: TwoCell) -> AffineMap:
    """Symbolic affine composite of a 2-cell under the interpretation.

    Each output coordinate is kept as its coefficients over the source
    variables followed by its constant.  A row ``left . g . right``
    replaces the coordinates that ``g`` reads, which start at the weight
    of ``left``, by the map of ``g`` applied to them.  The interpretation
    is not checked here (``check_interpretation_decrease`` checks it);
    a generator it does not interpret, or a map whose arity does not fit
    the rows, raises ``CellError``.
    """
    try:
        width = interp.word_weight(sig.source(phi))
        rows = [(interp.maps[w.gen], interp.word_weight(w.left), interp.word_weight(w.right)) for w in phi.whiskers]
        out_width = interp.word_weight(sig.target(phi))
    except KeyError as exc:
        raise CellError(f"the interpretation has no weight or map for generator {exc.args[0]}") from None
    coords = [[int(i == j) for j in range(width)] + [0] for i in range(width)]
    for f, a, b in rows:
        if a + f.m + b != len(coords):
            raise CellError("affine map composition arity mismatch")
        ins, outs = coords[a : a + f.m], []
        for row, cst in zip(f.matrix, f.const):
            out = [0] * width + [cst]
            for c, x in zip(row, ins):
                for j, v in enumerate(x):
                    out[j] += c * v
            outs.append(out)
        coords[a : a + f.m] = outs
    if len(coords) != out_width:
        raise CellError("affine map composition arity mismatch")
    return AffineMap(width, tuple(tuple(x[:-1]) for x in coords), tuple(x[-1] for x in coords))


def _dominates(big: AffineMap, small: AffineMap) -> bool:
    """Sufficient pointwise-decrease criterion: entrywise >= with one constant >."""
    if big.n != small.n or big.m != small.m:
        return False
    for rb, rs in zip(big.matrix, small.matrix):
        if any(b < s for b, s in zip(rb, rs)):
            return False
    if any(b < s for b, s in zip(big.const, small.const)):
        return False
    return any(b > s for b, s in zip(big.const, small.const))


def check_interpretation_decrease(pres: GrayPresentation, interp: LinearInterpretation):
    sig = pres.sig
    _check_interpretation(sig, interp)
    witnesses = []
    for name, (src, tgt) in sig.three.items():
        fs = eval_interpretation(sig, interp, src)
        ft = eval_interpretation(sig, interp, tgt)
        if not _dominates(fs, ft):
            raise TerminationRefused(
                "interp", f"interpretation does not strictly decrease across {name}"
            )
        witnesses.append(("operational", name, fs.symbolic(), ft.symbolic()))
    # Interchangers need no check: both sides of ``X(alpha, m, beta)`` apply
    # ``alpha`` and ``beta`` to disjoint blocks of coordinates, so a checked
    # interpretation gives them equal affine maps for every ``m``.
    return witnesses


# ---------------------------------------------------------------- cospans and connectedness


@dataclass(frozen=True)
class Cospan:
    """Connected components of a 2-cell's string diagram, seen from its boundary.

    ``left`` and ``right`` give the component of each source and target
    wire; components are numbered by first appearance on the source, then
    on the target.  ``floating`` counts the components that no boundary
    wire touches.
    """

    m: int
    n: int
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    floating: int


def cospan_of(sig: Signature, phi: TwoCell) -> Cospan:
    """One union-find pass over the rows of ``phi``.

    The nodes are the source wires and one node per row.  A row's node
    is joined to the wires it reads, and the wires it writes are that
    node, so a generator without wires is a component of its own.
    """
    m = len(sig.source(phi).word)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    wires = list(range(m))
    for w in phi.whiskers:
        p, k, n = len(w.left.word), len(sig.src1(w.gen).word), len(sig.tgt1(w.gen).word)
        if p + k + len(w.right.word) != len(wires):
            raise CellError("cospan composition boundary mismatch")
        node = len(parent)
        parent.append(node)
        for x in wires[p : p + k]:
            parent[find(x)] = node
        wires[p : p + k] = [node] * n
    labels = {}
    left = tuple(labels.setdefault(find(x), len(labels)) for x in range(m))
    right = tuple(labels.setdefault(find(x), len(labels)) for x in wires)
    components = sum(1 for i in range(len(parent)) if parent[i] == i)
    return Cospan(m, len(wires), left, right, components - len(labels))


def is_connected(sig: Signature, phi: TwoCell) -> bool:
    """Every component is hit by a boundary wire."""
    return cospan_of(sig, phi).floating == 0


def _closed_diagram_possible(sig: Signature) -> Optional[str]:
    """A cap and a cup that could bound a floating component, or None.

    A floating component lies in one region, a 0-cell ``z``.  Its top
    generator reads no wire, so it is a cap ``@z => u``; its bottom one
    writes no wire, so it is a cup ``v => @z``; and every wire inside it
    is made inside it, by a generator all of whose input wires are made
    there too.  So every letter of ``v`` is in ``L``, the least set of
    1-generators that holds the target letters of each 2-generator whose
    source letters are all in it (the caps' at once).  Without such a cap
    and cup at one 0-cell, no 2-cell has a floating component.
    """
    made = set()
    grew = True
    while grew:
        grew = False
        for s, t in sig.two.values():
            if made.issuperset(s.word) and not made.issuperset(t.word):
                made.update(t.word)
                grew = True
    caps = [g for g, (s, _) in sig.two.items() if not s.word]
    cups = [g for g, (_, t) in sig.two.items() if not t.word]
    for cap in caps:
        for cup in cups:
            if sig.src1(cap).start == sig.tgt1(cup).start and made.issuperset(sig.src1(cup).word):
                return f"{cap} feeds {cup}"
    return None


# ---------------------------------------------------------------- self-duality measure


@dataclass(frozen=True)
class SelfDualMeasure:
    n1: int
    n2_eta: Tuple[int, ...]
    n2_eps: Tuple[int, ...]

    def as_tuple(self):
        return (self.n1, self.n2_eta, self.n2_eps)


def selfdual_measure(pres: GrayPresentation, phi: TwoCell) -> SelfDualMeasure:
    """Counting measure of the oriented self-duality system."""
    if pres.qmode is None:
        raise TerminationRefused("selfdual", "presentation has no q-mode configuration")
    eta, eps = pres.qmode.eta, pres.qmode.eps
    n1 = 0
    etas, epss = [], []
    for w in phi.whiskers:
        if w.gen not in (eta, eps):
            raise TerminationRefused("selfdual", f"2-generator {w.gen} is outside the measured alphabet")
        if w.gen == eps:
            # each eps pairs with every eta in the rows above it
            n1 += len(etas)
            epss.append(len(w.right.word))
        if w.gen == eta:
            etas.append(len(w.right.word))
    return SelfDualMeasure(n1, tuple(reversed(etas)), tuple(epss))


def measure_less(a: SelfDualMeasure, b: SelfDualMeasure) -> bool:
    """Strict lexicographic comparison; shapes must agree."""
    if len(a.n2_eta) != len(b.n2_eta) or len(a.n2_eps) != len(b.n2_eps):
        raise TerminationRefused("selfdual", "measures of different shapes are incomparable")
    return a.as_tuple() < b.as_tuple()


def _shrinking_rules(sig: Signature, strategy: str):
    """Each operational rule as ``(name, source, target, witness)``, once it is checked to
    shrink the whisker count; ``strategy`` refuses the first rule that does not."""
    for name, (src, tgt) in sig.three.items():
        if length(tgt) >= length(src):
            raise TerminationRefused(strategy, f"operational rule {name} does not shrink the whisker count")
        yield name, src, tgt, ("operational", name, length(src), length(tgt))


def check_q_system(pres: GrayPresentation):
    """Measure decrease for each oriented rule kind and plain length drop.

    The measure is ``(n1, n2_eta, n2_eps)``: ``n1`` counts the eta rows
    above an eps row, ``n2_eta`` lists the right-context lengths of the
    eta rows bottom up and ``n2_eps`` those of the eps rows top down.  For
    an oriented rule with middle word ``m`` (``s`` and ``t`` the source and
    target of a 2-generator):

    * ``(eta, eps, fwd)`` and ``(eps, eta, rev)`` each remove one eta row
      above an eps row, so ``n1`` drops by one whatever ``m`` is;
    * ``(eta, eta, rev)`` keeps ``n1`` and takes ``n2_eta`` from
      ``(|m| + |t(eta)|, 0)`` to ``(0, |m| + |s(eta)|)``;
    * ``(eps, eps, fwd)`` keeps ``n1`` and ``n2_eta`` and takes ``n2_eps``
      from ``(|m| + |s(eps)|, 0)`` to ``(0, |m| + |t(eps)|)``.

    So a longer middle word only widens the drop, and the shortest middle
    word decides: the last two rules drop unless ``m`` and ``t(eta)``
    (``s(eps)``) are both empty, and a middle word longer than
    ``Q_RULE_MAX_MID`` is not empty.  Checking the middle words of at most
    that length is therefore exact.  When ``eta == eps`` every row counts
    as both, and the four rules are the interchangers on ``(eta, eta)`` in
    both orientations, which undo each other: no measure drops both ways.
    The check refuses such a configuration before any search, since a
    search over short middle words finds nothing to compare when every
    middle word is longer than ``Q_RULE_MAX_MID``.
    """
    if pres.qmode is None:
        raise TerminationRefused("selfdual", "presentation has no q-mode configuration")
    if pres.qmode.eta == pres.qmode.eps:
        raise TerminationRefused(
            "selfdual",
            f"eta == eps ({pres.qmode.eta}): the oriented rules on ({pres.qmode.eta}, {pres.qmode.eta}) "
            "undo each other",
        )
    sig = pres.sig
    witnesses = [witness for _, _, _, witness in _shrinking_rules(sig, "selfdual")]
    for alpha, beta, rev in pres.qmode.rules:
        for mid in _small_middles(sig, alpha, beta, Q_RULE_MAX_MID):
            inst = QInterchanger(alpha, mid, beta, rev)
            src, tgt = sig.inst_boundaries(inst)
            if not measure_less(selfdual_measure(pres, tgt), selfdual_measure(pres, src)):
                raise TerminationRefused(
                    "selfdual",
                    f"measure does not drop across the oriented rule on ({alpha}, {beta})",
                )
        witnesses.append(("oriented-interchange", alpha, beta, "measure drops"))
    return witnesses


# ---------------------------------------------------------------- certificates


EXTERNAL_INTERCHANGER_THEOREM = (
    "interchanger rewriting terminates on connected diagrams (external theorem, assumed)"
)


@dataclass
class TerminationCertificate:
    strategy: str
    witnesses: List[tuple] = field(default_factory=list)
    assumptions: List[str] = field(default_factory=list)
    scope: str = "all 2-cells"

    def summary(self) -> dict:
        return {
            "strategy": self.strategy,
            "witnesses": [list(w) for w in self.witnesses],
            "assumptions": list(self.assumptions),
            "scope": self.scope,
        }


def _certify_interp(pres, interpretation):
    if interpretation is None:
        raise TerminationRefused("interp", "no linear interpretation available")
    w1 = check_interpretation_decrease(pres, interpretation)
    w2 = check_positive_intnorm(pres)
    return TerminationCertificate("interp", w1 + w2)


def _certify_interchange(pres, interpretation):
    if pres.sig.three:
        raise TerminationRefused(
            "interchange", "operational generators are not covered by the interchange norm"
        )
    return TerminationCertificate("interchange", check_positive_intnorm(pres))


def _certify_connected(pres, interpretation):
    sig = pres.sig
    witnesses = []
    for name, src, tgt, witness in _shrinking_rules(sig, "connected"):
        if cospan_of(sig, src) != cospan_of(sig, tgt):
            raise TerminationRefused(
                "connected", f"operational rule {name} does not preserve connectedness"
            )
        witnesses.append(witness)
    # Interchangers need no check: both sides of ``X(alpha, m, beta)`` join
    # the wires of ``alpha`` and those of ``beta`` into disjoint components,
    # so they have equal cospans for every ``m``.
    offender = _closed_diagram_possible(sig)
    if offender is not None:
        raise TerminationRefused(
            "connected", f"closed diagrams are constructible ({offender}); not every 2-cell is connected"
        )
    witnesses.append(("closed-diagrams", "impossible"))
    return TerminationCertificate("connected", witnesses, [EXTERNAL_INTERCHANGER_THEOREM])


def _certify_selfdual(pres, interpretation):
    return TerminationCertificate("selfdual", check_q_system(pres), scope="connected 2-cells")


# strategy name -> certifier(pres, interpretation); the order is the auto order
_CERTIFIERS = {
    "interp": _certify_interp,
    "interchange": _certify_interchange,
    "connected": _certify_connected,
    "selfdual": _certify_selfdual,
}
STRATEGIES = tuple(_CERTIFIERS)


def certify_termination(
    pres: GrayPresentation,
    strategy: Optional[str] = None,
    interpretation: Optional[LinearInterpretation] = None,
) -> TerminationCertificate:
    """Certificate for the chosen strategy, or the first that applies."""
    rep = validate(pres)
    if not rep.ok:
        raise TerminationRefused(strategy or "auto", "presentation failed validation")
    if strategy is not None:
        if strategy not in _CERTIFIERS:
            raise TerminationRefused(strategy, f"unknown strategy (choose from {STRATEGIES})")
        return _CERTIFIERS[strategy](pres, interpretation)
    failures = []
    for name, certifier in _CERTIFIERS.items():
        try:
            return certifier(pres, interpretation)
        except TerminationRefused as exc:
            failures.append(f"{name}: {exc.reason}")
    raise TerminationRefused("auto", "no strategy applies: " + " | ".join(failures))
