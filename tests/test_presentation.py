"""Presentation container, validation diagnostics, interchanger schema."""

import pytest

from graypol import (
    CompositionError,
    GrayPresentation,
    OneCell,
    Signature,
    Tile,
    length,
    validate,
)


def test_empty_presentation_valid():
    pres = GrayPresentation("empty", Signature())
    rep = validate(pres)
    assert rep.ok and rep.positive and rep.operational_sources_positive


def test_pseudomonoid_positive(pseudomonoid):
    rep = validate(pseudomonoid.presentation)
    assert rep.ok and rep.positive


def test_selfduality_not_positive(selfduality):
    rep = validate(selfduality.presentation)
    assert rep.ok and not rep.positive
    assert any("eps" in m for m in rep.messages)


def test_validation_is_computed_once_and_frozen(selfduality):
    import dataclasses

    pres = selfduality.presentation
    rep = validate(pres)
    assert validate(pres) is rep
    assert rep.messages
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.positive = True
    with pytest.raises(AttributeError):
        rep.messages.append("note")


def test_bad_tile_reported(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    from graypol import OpGen

    lhs = sig.gen3_cell(OpGen("A"))
    rhs = sig.gen3_cell(OpGen("L"))
    bad = pres.with_tiles((Tile("broken", lhs, rhs),))
    rep = validate(bad)
    assert not rep.ok
    assert any("broken" in m for m in rep.messages)


def test_interchanger_boundaries_pseudomonoid(pseudomonoid):
    # the mu-past-mu exchange across an empty middle word
    sig = pseudomonoid.presentation.sig
    src, tgt = sig.interchanger_boundaries("mu", sig.id1("x"), "mu")
    aa = sig.make1("x", ("a", "a"))
    mu = sig.gen2_cell("mu")
    a = sig.make1("x", ("a",))
    assert src == sig.compose(sig.compose(mu, aa, 0), sig.compose(a, mu, 0), 1)
    assert tgt == sig.compose(sig.compose(aa, mu, 0), sig.compose(mu, a, 0), 1)


def test_interchanger_needs_composability(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    with pytest.raises(CompositionError):
        sig.interchanger_boundaries("eps", sig.id1("x"), "eps")


def test_interchanger_boundaries_parallel_everywhere(pseudomonoid, frobenius):
    for entry in (pseudomonoid, frobenius):
        sig = entry.presentation.sig
        for alpha in sig.two:
            for beta in sig.two:
                for n in range(3):
                    src, tgt = sig.interchanger_boundaries(alpha, OneCell("x", ("a",) * n), beta)
                    assert length(src) == length(tgt) == 2
                    assert sig.source(src) == sig.source(tgt)
                    assert sig.target(src) == sig.target(tgt)
