"""Expression typing, the rewriting relation, and its termination measure."""

import random

import pytest

from graypol import (
    EGen,
    EId,
    ELowL,
    ELowR,
    ETop,
    Interchanger,
    OneCell,
    OpGen,
    TypingError,
    eval_cell,
    measure,
    normal_form_expr,
    normalize_expression,
    reducts,
    typecheck,
)

from inputs import random_padded_expression, random_two_cell
from reference import reachable_normal_forms, two_cell_to_expr


def test_unit_law(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(20):
        phi = random_two_cell(sig, rng, rows=2)
        t = two_cell_to_expr(sig, phi)
        padded = ETop(EId(sig.source(phi)), t)
        assert normalize_expression(sig, padded, 2) == phi
        padded = ETop(t, EId(sig.target(phi)))
        assert normalize_expression(sig, padded, 2) == phi


def test_right_bracketing(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    cells = []
    cur = None
    for _ in range(4):
        nxt = random_two_cell(sig, rng, rows=1, start_cell=cur)
        cells.append(nxt)
        cur = sig.target(nxt)
    t1, t2, t3, t4 = [two_cell_to_expr(sig, c) for c in cells]
    lhs = ETop(ETop(ETop(t1, t2), t3), t4)
    rhs = ETop(t1, ETop(t2, ETop(t3, t4)))
    assert normal_form_expr(sig, lhs, 2) == normal_form_expr(sig, rhs, 2)


def test_typing_error_cites_rule(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    bad = ETop(EGen(2, "mu"), EGen(2, "mu"))
    with pytest.raises(TypingError) as err:
        typecheck(sig, bad, 2)
    assert err.value.rule == "comp-top"
    with pytest.raises(TypingError) as err:
        typecheck(sig, EGen(3, "mu"), 2)
    assert err.value.rule == "gen-intro"


def test_ill_typed_low_composition(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    f = sig.make1("x", ("f",))
    with pytest.raises(TypingError) as err:
        typecheck(sig, ELowL(0, f, EGen(2, "eta")), 2)
    assert err.value.rule == "comp-left"
    with pytest.raises(TypingError) as err:
        typecheck(sig, ELowR(0, EGen(2, "eps"), sig.make1("x", ("f",))), 2)
    assert err.value.rule == "comp-right"


@pytest.mark.parametrize(
    "expr, rule",
    [
        (ELowL(0, OneCell("x", ("f", "f")), EGen(2, "eta")), "comp-left"),
        (ELowR(0, EGen(2, "eta"), OneCell("x", ("f", "f"))), "comp-right"),
        (ELowL(0, OneCell("x", ("zz",)), EGen(2, "eta")), "comp-left"),
        (EId(OneCell("x", ("f", "f"))), "id-intro"),
        (EGen(3, Interchanger("eta", OneCell("x", ("f", "f")), "eta")), "gen-intro"),
        (EGen(3, OpGen("zz")), "gen-intro"),
    ],
    ids=["left", "right", "unknown-generator", "identity", "interchanger", "unknown-3-generator"],
)
def test_an_ill_formed_operand_is_a_typing_error(pseudoadjunction, expr, rule):
    # f : x -> y, so ``f f`` is not a 1-cell, and ``zz`` is no generator
    with pytest.raises(TypingError) as err:
        typecheck(pseudoadjunction.presentation.sig, expr, 3 if isinstance(expr, EGen) else 2)
    assert err.value.rule == rule
    assert "is not " in str(err.value)


def rewrite_with_strategy(sig, expr, top, pick):
    cur = expr
    trace = [cur]
    while True:
        options = reducts(sig, cur)
        if not options:
            return cur, trace
        cur = pick(options)
        trace.append(cur)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strategy_independence_sampled(pseudomonoid, seed):
    sig = pseudomonoid.presentation.sig
    rng = random.Random(seed)
    for _ in range(70):
        expr = random_padded_expression(sig, rng, 2, max_nodes=rng.randrange(3, 11))
        first, _ = rewrite_with_strategy(sig, expr, 2, lambda opts: opts[0])
        last, _ = rewrite_with_strategy(sig, expr, 2, lambda opts: opts[-1])
        rnd, _ = rewrite_with_strategy(sig, expr, 2, rng.choice)
        assert first == last == rnd
        assert eval_cell(sig, expr, 2) == eval_cell(sig, first, 2)


def test_closure_oracle_unique_normal_form(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    rng = random.Random(7)
    for _ in range(45):
        expr = random_padded_expression(sig, rng, 2, max_nodes=rng.randrange(3, 8))
        normals = reachable_normal_forms(sig, expr, cap=200000)
        assert len(normals) == 1
        assert normal_form_expr(sig, expr, 2) in normals


def test_measure_strictly_decreases(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    rng = random.Random(11)
    for _ in range(60):
        expr = random_padded_expression(sig, rng, 2, max_nodes=rng.randrange(3, 10))
        cur = expr
        while True:
            options = reducts(sig, cur)
            if not options:
                break
            for nxt in options:
                assert measure(nxt, 2) < measure(cur, 2)
            cur = rng.choice(options)


def test_three_dimensional_expressions(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    base = sig.gen3_cell(OpGen("A"))
    expr = ETop(EGen(3, OpGen("A")), EId(sig.target(base)))
    assert normalize_expression(sig, expr, 3) == base
    m = measure(expr, 3)
    assert len(m) == 5
    padded = ELowL(0, sig.make1("x", ("a",)), expr)
    out = normalize_expression(sig, padded, 3)
    assert out == sig.compose(sig.make1("x", ("a",)), base, 0)


def test_identity_absorption_into_markers(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    u = sig.make1("x", ("a",))
    expr = ELowL(0, u, EId(sig.make1("x", ("a",))))
    nf = normal_form_expr(sig, expr, 2)
    assert nf == EId(sig.make1("x", ("a", "a")))
