"""Presentation container, validation diagnostics, interchanger schema."""

import dataclasses
import os

import pytest

from graypol import (
    CompositionError,
    GrayPresentation,
    OneCell,
    Signature,
    Tile,
    length,
    parse_presentation,
    validate,
)
from graypol.cli import main

FROBENIUS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "presentations", "frobenius.gray")


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


def _counted_check3(monkeypatch):
    """The cells ``Signature.check3`` is called on from now on."""
    calls = []
    check3 = Signature.check3

    def counted(self, F):
        calls.append(F)
        return check3(self, F)

    monkeypatch.setattr(Signature, "check3", counted)
    return calls


@pytest.mark.parametrize("command", ["validate", "check-termination"])
def test_each_tile_side_is_typed_once_per_command(command, monkeypatch, capsys):
    # the parser types each side of the 19 tiles; validation trusts that
    with open(FROBENIUS_FILE, encoding="utf-8") as handle:
        tiles = parse_presentation(handle.read()).tiles
    calls = _counted_check3(monkeypatch)
    main([command, FROBENIUS_FILE])
    assert len(tiles) == 19
    assert calls == [side for tile in tiles for side in (tile.lhs, tile.rhs)]


def test_parsed_tiles_are_compared_without_being_typed_again(monkeypatch):
    text = (
        "presentation p\n0 x\n1 a : x -> x\n2 mu : a a => a\n"
        "3 A : [.|mu|a];[.|mu|.] => [a|mu|.];[.|mu|.]\n"
        "tile T : id2([.|mu|a]) == id2([a|mu|.])\n"
    )
    pres = parse_presentation(text)
    assert pres.tiles_typed
    calls = _counted_check3(monkeypatch)
    rep = validate(pres)
    assert not calls
    assert not rep.ok
    assert rep.messages == ("tile T: boundaries are not parallel 3-cells",)
    # the same tiles given by hand are typed by validation
    assert not validate(pres.with_tiles(pres.tiles)).ok
    assert len(calls) == 2
    # no caller can mark tiles typed, and a copy starts unmarked
    with pytest.raises(TypeError):
        GrayPresentation(pres.name, pres.sig, pres.tiles, tiles_typed=True)
    assert not dataclasses.replace(pres).tiles_typed


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
