"""Reduction orders: interchange norm, linear interpretations, cospan
connectedness, the self-duality measure, and certificates."""

import os
import random

import pytest

from graypol import (
    AffineMap,
    CellError,
    LinearInterpretation,
    OneCell,
    QInterchanger,
    TerminationRefused,
    TwoCell,
    certify_termination,
    check_interpretation_decrease,
    check_positive_intnorm,
    check_q_system,
    cospan_of,
    eval_interpretation,
    interchange_norm,
    is_connected,
    measure_less,
    parse_presentation,
    selfdual_measure,
    seq_less,
)
from graypol.termination import EXTERNAL_INTERCHANGER_THEOREM

import inputs
from inputs import random_interpretation, random_one_cell, random_two_cell
from reference import block_composite, bounded_closed_diagram_search, components_by_search


def test_intnorm_of_interchanger_boundaries(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    for mid_len in range(3):
        mid = OneCell("x", ("a",) * mid_len)
        src, tgt = sig.interchanger_boundaries("mu", mid, "eta")
        assert interchange_norm(src) == (len(sig.tgt1("mu").word) + mid_len, 0)
        assert interchange_norm(tgt) == (0, len(sig.src1("mu").word) + mid_len)
        assert seq_less(interchange_norm(tgt), interchange_norm(src))


def test_intnorm_identity_empty(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    assert interchange_norm(sig.id2(sig.make1("x", ("a",)))) == ()


def test_intnorm_incomparable_across_lengths():
    assert seq_less((1,), (0, 2)) is None


def test_intnorm_context_stability(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(200):
        mid = random_one_cell(sig, rng, 2, start="x")
        src, tgt = sig.interchanger_boundaries("mu", mid, "mu")
        l = random_one_cell(sig, rng, 2, start="x")
        r = OneCell(sig.end0(sig.source(src)), random_one_cell(sig, rng, 2, start="x").word)
        lam = random_two_cell(sig, rng, rows=1)
        ws, wt = sig.whisker0(l, src, r), sig.whisker0(l, tgt, r)
        assert seq_less(interchange_norm(wt), interchange_norm(ws))
        if sig.target(lam) == sig.source(src):
            cs = sig.compose(lam, src, 1)
            ct = sig.compose(lam, tgt, 1)
            assert seq_less(interchange_norm(ct), interchange_norm(cs))


def test_positivity_refusal_names_offender(selfduality):
    with pytest.raises(TerminationRefused) as err:
        check_positive_intnorm(selfduality.presentation)
    assert "eps" in str(err.value)


def test_positive_presentations(pseudomonoid, frobenius):
    assert check_positive_intnorm(pseudomonoid.presentation)
    assert check_positive_intnorm(frobenius.presentation)


def test_a_norm_that_does_not_drop_is_an_internal_error(pseudomonoid, monkeypatch):
    # positivity proves the drop, so a failed comparison after the
    # positivity check is a defect of graypol, not a refusal
    from graypol import InternalError
    from graypol import termination

    monkeypatch.setattr(termination, "interchange_norm", lambda phi: (0,) * len(phi.whiskers))
    with pytest.raises(InternalError, match="norm does not drop"):
        check_positive_intnorm(pseudomonoid.presentation)


def test_intnorm_drops_across_long_middle_words(pseudomonoid, frobenius):
    # positivity alone makes the norm drop, so the witness bound on middle
    # words limits only the list: check middles of 3 to 6 letters too
    from graypol.termination import _small_middles

    checked = 0
    for pres in [pseudomonoid.presentation, frobenius.presentation] + inputs.positive_presentations(20):
        sig = pres.sig
        assert check_positive_intnorm(pres)
        for alpha in sig.two:
            for beta in sig.two:
                for mid in _small_middles(sig, alpha, beta, 6):
                    if len(mid.word) < 3:
                        continue
                    src, tgt = sig.interchanger_boundaries(alpha, mid, beta)
                    ns, nt = interchange_norm(src), interchange_norm(tgt)
                    assert ns == (len(sig.tgt1(alpha).word) + len(mid.word), 0)
                    assert nt == (0, len(sig.src1(alpha).word) + len(mid.word))
                    assert seq_less(nt, ns)
                    checked += 1
    assert checked >= 100


# ---------------------------------------------------------------- interpretations


def test_interpretation_of_assoc_boundaries(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    interp = pseudomonoid.interpretation
    fs = eval_interpretation(sig, interp, sig.gen3_source("A"))
    ft = eval_interpretation(sig, interp, sig.gen3_target("A"))
    assert fs.symbolic() == "(4x + 2y + z + 3)"
    assert fs.matrix == ((4, 2, 1),) and fs.const == (3,)
    # forced by composing the generator interpretation with itself
    assert ft.matrix == ((2, 2, 1),) and ft.const == (2,)


def test_interpretation_identity_cell(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    interp = pseudomonoid.interpretation
    ident = sig.id2(sig.make1("x", ("a",) * 3))
    assert eval_interpretation(sig, interp, ident) == AffineMap.identity(3)


def test_interpretation_invariant_on_interchangers(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    interp = pseudomonoid.interpretation
    for alpha in sig.two:
        for beta in sig.two:
            for n in range(4):
                src, tgt = sig.interchanger_boundaries(alpha, OneCell("x", ("a",) * n), beta)
                assert eval_interpretation(sig, interp, src) == eval_interpretation(
                    sig, interp, tgt
                )


TWO_COLOURS = """presentation two-colours
0 x
1 a : x -> x
1 b : x -> x
2 mu : a a => a
2 nu : a b => b a
2 eta : @x => a
2 beta : b => a b b
"""


def test_interpretation_matches_block_matrix_composite(pseudomonoid, rng):
    for sig in (pseudomonoid.presentation.sig, parse_presentation(TWO_COLOURS).sig):
        for _ in range(150):
            interp = random_interpretation(sig, rng)
            phi = random_two_cell(sig, rng, rows=rng.randrange(9))
            width = interp.word_weight(sig.source(phi))
            assert eval_interpretation(sig, interp, phi) == block_composite(interp, phi, width)


def test_interpretation_rejects_row_of_wrong_arity(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    short = TwoCell(sig.make1("x", ("a",)), mu.whiskers)
    with pytest.raises(CellError, match="arity mismatch"):
        eval_interpretation(sig, pseudomonoid.interpretation, short)


def test_interpretation_without_a_generator_or_of_wrong_arity_is_a_cell_error(pseudomonoid):
    # ``eval_interpretation`` does not check the interpretation first, so
    # what that check would refuse still raises ``CellError``
    sig = pseudomonoid.presentation.sig
    interp = pseudomonoid.interpretation
    bad = {
        "no weight or map": [
            LinearInterpretation({}, interp.maps),
            LinearInterpretation(interp.weights, {k: f for k, f in interp.maps.items() if k != "mu"}),
        ],
        "arity mismatch": [
            LinearInterpretation(interp.weights, {**interp.maps, "mu": AffineMap.make(2, ((1, 1), (1, 1)), (1, 1))}),
        ],
    }
    for message, interps in bad.items():
        for wrong in interps:
            with pytest.raises(CellError, match=message):
                eval_interpretation(sig, wrong, sig.gen2_cell("mu"))


def test_interpretation_is_checked_once_per_certificate(pseudomonoid, monkeypatch):
    from graypol import termination

    calls = []
    check = termination._check_interpretation

    def counted(sig, interp):
        calls.append(interp)
        return check(sig, interp)

    monkeypatch.setattr(termination, "_check_interpretation", counted)
    cert = certify_termination(pseudomonoid.presentation, None, pseudomonoid.interpretation)
    assert cert.strategy == "interp"
    assert calls == [pseudomonoid.interpretation]


def test_interpretation_decrease_witnesses(pseudomonoid):
    wit = check_interpretation_decrease(pseudomonoid.presentation, pseudomonoid.interpretation)
    ops = {w[1] for w in wit if w[0] == "operational"}
    assert ops == {"A", "L", "R"}


def test_non_monotone_interpretation_rejected(pseudomonoid):
    bad = LinearInterpretation(
        weights={"a": 1},
        maps={"mu": AffineMap.make(2, [[2, 0]], [1]), "eta": AffineMap.make(0, [[]], [1])},
    )
    with pytest.raises(TerminationRefused) as err:
        check_interpretation_decrease(pseudomonoid.presentation, bad)
    assert "monotone" in str(err.value)


def test_undefined_generator_rejected(pseudomonoid):
    bad = LinearInterpretation(weights={"a": 1}, maps={"mu": AffineMap.make(2, [[2, 1]], [1])})
    with pytest.raises(TerminationRefused):
        check_interpretation_decrease(pseudomonoid.presentation, bad)


# ---------------------------------------------------------------- cospans


def test_zigzag_cell_connected(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    assert is_connected(sig, sig.gen3_source("N"))
    assert is_connected(sig, sig.gen3_source("N⁻"))


def test_identity_cell_connected(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    assert is_connected(sig, sig.id2(sig.make1("x", ("f",))))


def test_bubble_not_connected(selfduality):
    sig = selfduality.presentation.sig
    eta, eps = sig.gen2_cell("eta"), sig.gen2_cell("eps")
    bubble = sig.compose(eta, eps, 1)
    assert sig.source(bubble) == sig.id1("x") and sig.target(bubble) == sig.id1("x")
    assert not is_connected(sig, bubble)


def test_cospan_matches_graph_search(selfduality, frobenius, rng):
    floating_seen = 0
    for entry in (selfduality, frobenius):
        sig = entry.presentation.sig
        for _ in range(150):
            phi = random_two_cell(sig, rng, rows=rng.randrange(13))
            c = cospan_of(sig, phi)
            assert (c.left, c.right, c.floating) == components_by_search(sig, phi)
            assert (c.m, c.n) == (len(sig.source(phi).word), len(sig.target(phi).word))
            floating_seen += c.floating > 0
    assert floating_seen >= 10


def test_cospan_rejects_row_of_wrong_arity(selfduality):
    sig = selfduality.presentation.sig
    eps = sig.gen2_cell("eps")
    short = TwoCell(sig.make1("x", ("a",)), eps.whiskers)
    with pytest.raises(CellError, match="boundary mismatch"):
        cospan_of(sig, short)


def test_cospan_invariance_of_generators(pseudoadjunction, selfduality):
    for entry in (pseudoadjunction, selfduality):
        sig = entry.presentation.sig
        for name in sig.three:
            assert cospan_of(sig, sig.gen3_source(name)) == cospan_of(sig, sig.gen3_target(name))
        for alpha in sig.two:
            for beta in sig.two:
                src0 = sig.end0(sig.src1(alpha))
                if sig.src1(beta).start != src0:
                    continue
                src, tgt = sig.interchanger_boundaries(alpha, sig.id1(src0), beta)
                assert cospan_of(sig, src) == cospan_of(sig, tgt)


def test_connectedness_preserved_by_padj_steps(pseudoadjunction, rng):
    from graypol import find_redexes

    pres = pseudoadjunction.presentation
    sig = pres.sig
    for _ in range(30):
        phi = random_two_cell(sig, rng, rows=3)
        assert is_connected(sig, phi)
        for s in find_redexes(pres, phi):
            assert is_connected(sig, sig.step_target(s))


# ---------------------------------------------------------------- self-duality measure


def test_eta_measure_pattern(selfduality_q):
    pres = selfduality_q.presentation
    sig = pres.sig
    for n in (0, 1, 2):
        inst = QInterchanger("eta", OneCell("x", ("a",) * n), "eta", rev=True)
        src, tgt = sig.inst_source(inst), sig.inst_target(inst)
        assert selfdual_measure(pres, src).n2_eta == (n + 2, 0)
        assert selfdual_measure(pres, tgt).n2_eta == (0, n)
        assert measure_less(selfdual_measure(pres, tgt), selfdual_measure(pres, src))


def test_n1_counts_eta_before_eps(selfduality_q):
    pres = selfduality_q.presentation
    sig = pres.sig
    eta, eps = sig.gen2_cell("eta"), sig.gen2_cell("eps")
    aa = sig.make1("x", ("a", "a"))
    cell = eta
    cell = sig.compose(cell, sig.compose(eta, aa, 0), 1)
    cell = sig.compose(cell, sig.compose(eps, aa, 0), 1)
    cell = sig.compose(cell, eps, 1)
    m = selfdual_measure(pres, cell)
    assert m.n1 == 2 * 2


def test_measure_decreases_on_random_q_steps(selfduality_q, rng):
    from graypol import find_redexes

    pres = selfduality_q.presentation
    sig = pres.sig
    seen = 0
    for _ in range(300):
        phi = random_two_cell(sig, rng, rows=4)
        if not is_connected(sig, phi):
            continue
        for step in find_redexes(pres, phi):
            if isinstance(step.inner, QInterchanger):
                seen += 1
                before = selfdual_measure(pres, phi)
                after = selfdual_measure(pres, sig.step_target(step))
                assert measure_less(after, before)
    assert seen >= 100


def test_q_system_check(selfduality_q):
    wit = check_q_system(selfduality_q.presentation)
    kinds = {w[0] for w in wit}
    assert kinds == {"operational", "oriented-interchange"}


def test_q_rules_drop_across_long_middle_words(selfduality_q):
    # the measure drops on each oriented rule whatever its middle word, so the
    # search bound on middle words is exact: check middles of 4 to 6 letters too
    pres = selfduality_q.presentation
    sig = pres.sig
    eta, eps = pres.qmode.eta, pres.qmode.eps
    size = {g: (len(sig.src1(g).word), len(sig.tgt1(g).word)) for g in (eta, eps)}
    for alpha, beta, rev in pres.qmode.rules:
        for n in (4, 5, 6):
            src, tgt = sig.inst_boundaries(QInterchanger(alpha, OneCell("x", ("a",) * n), beta, rev))
            before, after = selfdual_measure(pres, src), selfdual_measure(pres, tgt)
            if alpha != beta:
                assert (before.n1, after.n1) == (1, 0)
            elif alpha == eta:
                assert before.n2_eta == (n + size[eta][1], 0)
                assert after.n2_eta == (0, n + size[eta][0])
            else:
                assert before.n2_eps == (n + size[eps][0], 0)
                assert after.n2_eps == (0, n + size[eps][1])
            assert measure_less(after, before)


def test_measure_wrong_signature(pseudomonoid, selfduality_q):
    pres = selfduality_q.presentation
    with pytest.raises(TerminationRefused):
        selfdual_measure(pres, pseudomonoid.presentation.sig.gen2_cell("mu"))


# ---------------------------------------------------------------- certificates


def test_pseudomonoid_certificate(pseudomonoid):
    cert = certify_termination(pseudomonoid.presentation, "interp", pseudomonoid.interpretation)
    assert cert.strategy == "interp"
    assert not cert.assumptions


def test_pseudoadjunction_certificate_records_one_assumption(pseudoadjunction):
    cert = certify_termination(pseudoadjunction.presentation, "connected")
    assert cert.strategy == "connected"
    assert cert.assumptions == [EXTERNAL_INTERCHANGER_THEOREM]


def test_selfdual_certificate_scope(selfduality_q):
    cert = certify_termination(selfduality_q.presentation, "selfdual")
    assert cert.scope == "connected 2-cells"


def test_unknown_strategy_and_auto_order(frobenius):
    pres = frobenius.presentation
    with pytest.raises(TerminationRefused) as err:
        certify_termination(pres, "bogus")
    assert str(err.value).endswith(
        "unknown strategy (choose from ('interp', 'interchange', 'connected', 'selfdual'))"
    )
    # auto mode tries the strategies in that order and reports each refusal
    with pytest.raises(TerminationRefused) as err:
        certify_termination(pres)
    reasons = str(err.value).split("no strategy applies: ", 1)[1].split(" | ")
    assert [r.split(":", 1)[0] for r in reasons] == ["interp", "interchange", "connected", "selfdual"]


def test_frobenius_refusal(frobenius):
    with pytest.raises(TerminationRefused):
        certify_termination(frobenius.presentation)
    with pytest.raises(TerminationRefused) as err:
        certify_termination(frobenius.presentation, "connected")
    assert "shrink" in str(err.value)


def test_selfduality_refusal_mentions_closed_diagrams(selfduality):
    with pytest.raises(TerminationRefused) as err:
        certify_termination(selfduality.presentation, "connected")
    assert "closed" in str(err.value)


def test_certificate_witnesses_replay(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    cert = certify_termination(pres, "interp", pseudomonoid.interpretation)
    for w in cert.witnesses:
        if w[0] == "operational":
            _, name, fs, ft = w
            assert eval_interpretation(sig, pseudomonoid.interpretation, sig.gen3_source(name)).symbolic() == fs
            assert eval_interpretation(sig, pseudomonoid.interpretation, sig.gen3_target(name)).symbolic() == ft
        elif w[0] == "interchanger":
            _, alpha, mid, beta, ns, nt = w
            src, tgt = sig.interchanger_boundaries(alpha, OneCell("x", tuple(mid)), beta)
            assert interchange_norm(src) == ns and interchange_norm(tgt) == nt
            assert seq_less(nt, ns)


def _random_draws(monkeypatch, seed, count):
    """``count`` presentations of the benchmark's ``random_presentation``."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    from workloads import random_presentation

    rng = random.Random(seed)
    return [
        random_presentation(rng, f"r{i}", rng.choice([1, 2]), rng.randint(2, 5), rng.randint(0, 3))
        for i in range(count)
    ]


def test_interchangers_keep_the_interpretation_and_the_cospan(
    pseudomonoid, pseudoadjunction, selfduality, frobenius, monkeypatch
):
    # both sides of ``X(alpha, m, beta)`` act on disjoint coordinate blocks
    # and wires, which is why no certificate checks an interchanger
    from graypol.termination import _small_middles

    rng = random.Random(3)
    entries = (pseudomonoid, pseudoadjunction, selfduality, frobenius)
    sigs = [e.presentation.sig for e in entries] + [parse_presentation(TWO_COLOURS).sig]
    sigs += [p.sig for p in _random_draws(monkeypatch, 7, 40)]
    checked = 0
    for sig in sigs:
        for _ in range(2):
            interp = random_interpretation(sig, rng)
            for alpha in sig.two:
                for beta in sig.two:
                    for mid in _small_middles(sig, alpha, beta, 4):
                        src, tgt = sig.interchanger_boundaries(alpha, mid, beta)
                        assert eval_interpretation(sig, interp, src) == eval_interpretation(sig, interp, tgt)
                        assert cospan_of(sig, src) == cospan_of(sig, tgt)
                        checked += 1
    assert checked > 2000


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_refuses_a_cap_that_reaches_a_cup(n, pseudoadjunction):
    # the cap, the chain and the cup make a floating bubble, and two bubbles
    # side by side interchange forever, however long the chain
    with pytest.raises(TerminationRefused, match=r"closed diagrams are constructible \(cap feeds cup\)"):
        certify_termination(parse_presentation(inputs.chain(n)), "connected")
    # a cap and a cup at different 0-cells bound no bubble
    assert certify_termination(pseudoadjunction.presentation, "connected").strategy == "connected"


def test_closed_diagram_check_refuses_whatever_the_bounded_search_finds(monkeypatch):
    from graypol.termination import _closed_diagram_possible

    named = 0
    for pres in _random_draws(monkeypatch, 11, 300):
        if bounded_closed_diagram_search(pres.sig) is not None:
            assert _closed_diagram_possible(pres.sig) is not None
            named += 1
    assert named >= 20
    # the bounded search misses a cup four rewrites from the cap
    sig = parse_presentation(inputs.chain(4)).sig
    assert bounded_closed_diagram_search(sig) is None
    assert _closed_diagram_possible(sig) == "cap feeds cup"
