"""Cell algebra: boundaries, composition, whiskering, and the axiom suite."""

import pytest

from graypol import (
    CompositionError,
    OneCell,
    Signature,
    SignatureError,
    dim,
    length,
)
from graypol.expressions import eval_cell

from conftest import GRAY_BUILTINS, random_one_cell, random_two_cell, two_cell_to_expr


def test_boundary_of_mu_whisker(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    assert sig.boundary(mu, 1, "-") == sig.make1("x", ("a", "a"))
    assert sig.boundary(mu, 1, "+") == sig.make1("x", ("a",))


def test_boundary_of_identity_one_cell(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    assert sig.boundary(sig.id1("x"), 0, "+") == "x"
    assert sig.boundary(sig.id1("x"), 0, "-") == "x"


def test_boundary_dimension_range(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    with pytest.raises(Exception):
        sig.boundary(sig.gen2_cell("mu"), 2, "-")


def test_globular_identities(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(50):
        phi = random_two_cell(sig, rng, rows=3)
        assert sig.boundary(sig.source(phi), 0, "-") == sig.boundary(sig.target(phi), 0, "-")
        assert sig.boundary(phi, 0, "-") == sig.source(phi).start


def test_target_of_random_six_whisker_vs_expression_oracle(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    checked = 0
    for _ in range(200):
        phi = random_two_cell(sig, rng, rows=6, max_pad=3)
        if length(phi) != 6:
            continue
        checked += 1
        assert sig.target(phi) == sig.whisker_target(phi.whiskers[-1])
        expr = two_cell_to_expr(sig, phi)
        assert eval_cell(sig, expr, 2) == phi
    assert checked >= 20


def test_compose_words():
    sig = Signature(zero=["x"], one=[("a", "x", "x")])
    a = sig.make1("x", ("a",))
    assert sig.compose(a, a, 0) == sig.make1("x", ("a", "a"))


def test_end0_reads_the_last_letter(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    assert sig.end0(sig.id1("y")) == "y"
    assert sig.end0(sig.make1("x", ("f",))) == "y"
    assert sig.end0(sig.make1("x", ("f", "g"))) == "x"
    with pytest.raises(SignatureError):
        sig.end0(OneCell("x", ("f", "nope")))


def test_compose_example_source_of_assoc(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    a = sig.make1("x", ("a",))
    cell = sig.compose(sig.compose(mu, a, 0), mu, 1)
    assert length(cell) == 2
    assert cell == sig.gen3_source("A")


def test_compose_mismatch_raises(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    f = sig.make1("x", ("f",))
    with pytest.raises(CompositionError):
        sig.compose(f, f, 0)


def test_length_additive_on_top_composition(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        a = random_two_cell(sig, rng, rows=2)
        b = random_two_cell(sig, rng, rows=2, start_cell=sig.target(a))
        assert length(sig.compose(a, b, 1)) == length(a) + length(b)


def test_whisker_identity_is_noop(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    phi = random_two_cell(sig, rng, rows=3)
    l = sig.id1(sig.source(phi).start)
    r = sig.id1(sig.end0(sig.source(phi)))
    assert sig.whisker0(l, phi, r) == phi


def test_whisker_example_wire_counts(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    two = sig.make1("x", ("a", "a"))
    three = sig.make1("x", ("a",) * 3)
    w = sig.whisker0(two, mu, three)
    assert length(w) == 1
    wk = w.whiskers[0]
    assert (len(wk.left.word), wk.gen, len(wk.right.word)) == (2, "mu", 3)


def test_whisker_preserves_length(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        phi = random_two_cell(sig, rng, rows=3)
        l = random_one_cell(sig, rng, 2, start="x")
        r = random_one_cell(sig, rng, 2, start=sig.end0(sig.target(phi)))
        r = OneCell(sig.end0(sig.source(phi)), r.word)
        assert length(sig.whisker0(l, phi, r)) == length(phi)


def test_whisker_distributes_over_vertical_composite(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        c = random_two_cell(sig, rng, rows=1, start_cell=sig.target(b))
        l = random_one_cell(sig, rng, 2, start="x")
        r = OneCell(sig.end0(sig.source(a)), random_one_cell(sig, rng, 2, start="x").word)
        whole = sig.whisker0(l, sig.compose(sig.compose(a, b, 1), c, 1), r)
        parts = sig.compose(
            sig.compose(sig.whisker0(l, a, r), sig.whisker0(l, b, r), 1),
            sig.whisker0(l, c, r),
            1,
        )
        assert whole == parts


def test_equals_and_dim(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    phi = random_two_cell(sig, rng, rows=2)
    assert phi == phi
    assert dim(phi) == 2


def test_inequality_of_interleavings(pseudomonoid):
    # the two interleavings of two stacked generators differ as cells
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    two = sig.make1("x", ("a", "a"))
    left_first = sig.compose(sig.compose(mu, two, 0), sig.compose(sig.make1("x", ("a",)), mu, 0), 1)
    right_first = sig.compose(sig.compose(two, mu, 0), sig.compose(mu, sig.make1("x", ("a",)), 0), 1)
    assert sig.source(left_first) == sig.source(right_first)
    assert sig.target(left_first) == sig.target(right_first)
    assert left_first != right_first


# ---- precategory axiom suite on random composable cells ----------


def test_axiom_unitality(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=2)
        assert sig.compose(sig.id2(sig.source(phi)), phi, 1) == phi
        assert sig.compose(phi, sig.id2(sig.target(phi)), 1) == phi


def test_axiom_associativity_vertical(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        c = random_two_cell(sig, rng, rows=1, start_cell=sig.target(b))
        assert sig.compose(sig.compose(a, b, 1), c, 1) == sig.compose(a, sig.compose(b, c, 1), 1)


def test_axiom_associativity_whiskering(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=2)
        u = random_one_cell(sig, rng, 2, start="x")
        v = random_one_cell(sig, rng, 2, start="x")
        lhs = sig.compose(u, sig.compose(v, phi, 0), 0)
        rhs = sig.compose(sig.compose(u, v, 0), phi, 0)
        assert lhs == rhs


def test_axiom_distributivity(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        u = random_one_cell(sig, rng, 2, start="x")
        lhs = sig.compose(u, sig.compose(a, b, 1), 0)
        rhs = sig.compose(sig.compose(u, a, 0), sig.compose(u, b, 0), 1)
        assert lhs == rhs


def test_axiom_boundary_compatibility(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        ab = sig.compose(a, b, 1)
        assert sig.source(ab) == sig.source(a)
        assert sig.target(ab) == sig.target(b)


def test_step_and_three_cell_composition(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    from graypol import OpGen

    cell_a = sig.gen3_cell(OpGen("A"))
    cell_l = sig.gen3_cell(OpGen("L"))
    assert length(cell_a) == 1
    # 3-cell lengths add along 2-composition
    tgt = sig.target(cell_a)
    idc = sig.identity(tgt)
    assert length(sig.compose(cell_a, idc, 2)) == 1
    whiskered = sig.whisker1(sig.id2(sig.source(sig.source(cell_a))), cell_a, sig.id2(sig.target(sig.source(cell_a))))
    assert whiskered == cell_a


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_rotation_is_an_involution(name, request, rng):
    sig = request.getfixturevalue(name).presentation.sig
    rsig = sig.rotated()
    assert sig.rotated() is rsig
    assert rsig != sig
    assert rsig.rotated() == sig
    for _ in range(30):
        u = random_one_cell(sig, rng)
        phi = random_two_cell(sig, rng, rows=rng.randrange(5))
        rphi = sig.rotate(phi)
        rsig.check2(rphi)
        assert rsig.rotate(sig.rotate(u)) == u
        assert rsig.rotate(rphi) == phi
        # both compositions are reversed: rows and words
        assert length(rphi) == length(phi)
        assert rsig.source(rphi) == sig.rotate(sig.target(phi))
        assert rsig.target(rphi) == sig.rotate(sig.source(phi))


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_rotation_keeps_interchangers_and_three_cells(name, request):
    from graypol import Interchanger, OpGen

    sig = request.getfixturevalue(name).presentation.sig
    rsig = sig.rotated()
    swaps = 0
    for gen in sig.three:
        assert rsig.inst_source(OpGen(gen)) == sig.rotate(sig.gen3_source(gen))
        assert rsig.inst_target(OpGen(gen)) == sig.rotate(sig.gen3_target(gen))
    for alpha in sig.two:
        for beta in sig.two:
            mid = sig.id1(sig.end0(sig.tgt1(alpha)))
            if mid.start != sig.src1(beta).start:
                continue
            inst = Interchanger(alpha, mid, beta)
            assert sig.rotate(inst) == Interchanger(beta, sig.rotate(mid), alpha)
            src, tgt = sig.interchanger_boundaries(alpha, mid, beta)
            assert rsig.inst_source(sig.rotate(inst)) == sig.rotate(src)
            assert rsig.inst_target(sig.rotate(inst)) == sig.rotate(tgt)
            swaps += 1
    assert swaps > 0


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_signature_is_immutable_and_hashed_by_value(name, request):
    sig = request.getfixturevalue(name).presentation.sig
    first = hash(sig)
    for table in (sig.one, sig.two, sig.three):
        with pytest.raises(TypeError):
            table["new"] = None
        with pytest.raises(TypeError):
            del table[next(iter(table))]
    copy = Signature(
        sig.zero,
        ((g, s, t) for g, (s, t) in sig.one.items()),
        ((g, s, t) for g, (s, t) in sig.two.items()),
        ((g, s, t) for g, (s, t) in sig.three.items()),
    )
    assert copy is not sig and copy == sig
    assert hash(copy) == hash(sig) == first
    sig.rotated()
    assert hash(sig) == first


def test_cell_classes_are_slotted_and_frozen(pseudomonoid):
    from dataclasses import FrozenInstanceError, fields

    from graypol import Interchanger, OpGen, QInterchanger, Step, ThreeCell, TwoCell, Whisker2

    sig = pseudomonoid.presentation.sig
    x, a = sig.id1("x"), sig.word1("a")
    phi = sig.gen2_cell("mu")
    step = sig.gen3_cell(OpGen("A")).steps[0]
    cells = [
        a,
        phi.whiskers[0],
        phi,
        OpGen("A"),
        Interchanger("mu", x, "mu"),
        QInterchanger("mu", x, "mu", False),
        step,
        ThreeCell(phi, ()),
    ]
    kinds = {type(c) for c in cells}
    assert kinds == {OneCell, Whisker2, TwoCell, OpGen, Interchanger, QInterchanger, Step, ThreeCell}
    for c in cells:
        assert not hasattr(c, "__dict__")
        for f in fields(c):
            with pytest.raises(FrozenInstanceError):
                setattr(c, f.name, getattr(c, f.name))
        # a new name has no slot; Python 3.11 reports it as a TypeError
        with pytest.raises((AttributeError, TypeError)):
            c.extra = 1
