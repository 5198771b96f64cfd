"""Built-in presentations: statistics, flags, rosters, shipped files."""

import os
import pathlib
from importlib import resources

import pytest

from graypol import (
    BUILTIN_NAMES,
    LinearInterpretation,
    Tile,
    certify_termination,
    enumerate_critical,
    get_builtin,
    length,
    parse_presentation,
    serialize_presentation,
    squier_completion,
    validate,
)

import inputs

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_builtin_names_are_the_packaged_files():
    packaged = resources.files("graypol") / "presentations"
    shipped = {p.name for p in packaged.iterdir() if p.name.endswith(".gray")}
    assert {f"{name}.gray" for name in BUILTIN_NAMES} == shipped
    with pytest.raises(KeyError):
        get_builtin("nonsense")


def test_pseudomonoid_stats(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    assert len(sig.two) == 2
    assert len(sig.three) == 3
    assert pseudomonoid.expected_critical == 5
    assert pseudomonoid.expected_strategy == "interp"


def test_frobenius_stats(frobenius):
    sig = frobenius.presentation.sig
    assert set(sig.two) == {"mu", "delta"}
    assert set(sig.three) == {"N", "N⁻", "A", "A°", "M", "M°"}
    assert frobenius.expected_critical == 19


def test_pseudoadjunction_stats(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    assert set(sig.three) == {"N", "N⁻"}
    for name in sig.three:
        assert length(sig.gen3_source(name)) == 2
        assert length(sig.gen3_target(name)) == 0
    assert pseudoadjunction.expected_critical == 2


def test_validation_flags():
    assert validate(get_builtin("pseudomonoid").presentation).positive
    assert validate(get_builtin("frobenius").presentation).positive
    assert not validate(get_builtin("selfduality").presentation).positive
    for name in BUILTIN_NAMES:
        assert validate(get_builtin(name).presentation).ok


def test_tile_rosters(pseudomonoid, pseudoadjunction, selfduality, frobenius):
    assert pseudomonoid.tile_names == tuple(f"R{i}" for i in range(1, 6))
    assert pseudoadjunction.tile_names == ("R1", "R2")
    assert selfduality.tile_names == ("R1", "R2")
    assert frobenius.tile_names == tuple(f"R{i}" for i in range(1, 20))


def test_tiles_have_parallel_sides():
    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        sig = pres.sig
        for tile in pres.tiles:
            sig.check3(tile.lhs)
            sig.check3(tile.rhs)
            assert sig.source(tile.lhs) == sig.source(tile.rhs)
            assert sig.target(tile.lhs) == sig.target(tile.rhs)


def test_tiles_match_computed_joins(pseudomonoid):
    from graypol import certify_termination, enumerate_critical, join_branching

    pres = pseudomonoid.presentation
    sig = pres.sig
    cert = certify_termination(pres, "interp", pseudomonoid.interpretation)
    for tile, cb in zip(pres.tiles, enumerate_critical(pres)):
        rec = join_branching(pres, cb.branching, cert)
        assert tile.lhs == sig.compose(sig.step_cell(cb.branching.s1), rec.f1, 2)
        assert tile.rhs == sig.compose(sig.step_cell(cb.branching.s2), rec.f2, 2)


def test_round_trip_is_identity():
    for name in BUILTIN_NAMES:
        entry = get_builtin(name)
        text = serialize_presentation(entry.presentation)
        again = parse_presentation(text)
        assert again == entry.presentation
        assert serialize_presentation(again) == text


def test_shipped_tiles_are_the_completion_of_the_tile_free_presentation():
    """Squier completion of each bare Gray-mode file reproduces its tiles, in order, named R1..Rn."""
    for name in BUILTIN_NAMES:
        entry = get_builtin(name)
        pres = entry.presentation
        if pres.qmode is not None:
            continue
        emitted, _ = squier_completion(pres.with_tiles(()), interpretation=entry.interpretation, max_steps=20000)
        renamed = tuple(Tile(f"R{i}", t.lhs, t.rhs) for i, t in enumerate(emitted, start=1))
        assert renamed == pres.tiles, name


def test_root_presentations_are_the_packaged_files():
    packaged = resources.files("graypol") / "presentations"
    for name in BUILTIN_NAMES:
        assert os.path.samefile(ROOT / "presentations" / f"{name}.gray", str(packaged / f"{name}.gray"))


def test_qmode_entry(selfduality_q):
    pres = selfduality_q.presentation
    assert pres.qmode is not None
    assert pres.qmode.eta == "eta" and pres.qmode.eps == "eps"
    assert selfduality_q.expected_strategy == "selfdual"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name,critical", [("pseudomonoid", 5), ("pseudoadjunction", 2), ("frobenius", 19)])
def test_disjoint_copies_have_k_times_the_critical_branchings(name, critical, k):
    text = (ROOT / "src" / "graypol" / "presentations" / f"{name}.gray").read_text(encoding="utf-8")
    pres = parse_presentation(inputs.disjoint_copies(text, k))
    assert not pres.tiles
    assert len(pres.sig.zero) == k * len(get_builtin(name).presentation.sig.zero)
    assert len(enumerate_critical(pres)) == critical * k
    if name == "pseudoadjunction":
        assert certify_termination(pres, "connected").strategy == "connected"


def _renamed(part):
    """A branching key with every generator name ``NAME`` renamed ``NAME_1``."""
    if isinstance(part, tuple):
        return tuple(_renamed(p) for p in part)
    return f"{part}_1" if isinstance(part, str) else part


def test_a_renamed_copy_has_the_renamed_analysis():
    # ``disjoint_copies(text, 1)`` renames every generator NAME to NAME_1;
    # the keys are compared as sets, as the suffix can reorder names
    # (mu < mu2, but mu_1 > mu2_1); pseudomonoid is given its catalog
    # interpretation, renamed on the copy, so that both sides certify by it
    interp = get_builtin("pseudomonoid").interpretation
    renamed = LinearInterpretation(
        {f"{g}_1": w for g, w in interp.weights.items()}, {f"{g}_1": f for g, f in interp.maps.items()}
    )
    bases = [get_builtin(name).presentation.with_tiles(()) for name in inputs.GRAY_BUILTINS]
    outcomes = []
    for pres in bases + inputs.positive_presentations(30):
        text = serialize_presentation(pres)
        base, copy = parse_presentation(text), parse_presentation(inputs.disjoint_copies(text, 1))
        base_keys = [cb.key for cb in enumerate_critical(base)]
        copy_keys = [cb.key for cb in enumerate_critical(copy)]
        assert len(copy_keys) == len(base_keys)
        assert set(copy_keys) == {_renamed(key) for key in base_keys}
        given = (interp, renamed) if pres.name == "pseudomonoid" else (None, None)
        sides = []
        for p, i in zip((base, copy), given):
            tiles, rep = squier_completion(p, interpretation=i, max_steps=30)
            sides.append((rep.verdict, rep.termination and rep.termination.strategy, len(tiles)))
        assert sides[0] == sides[1], pres.name
        outcomes.append(sides[0])
    assert len(outcomes) == 34
    assert ("completed-with-new-tiles", "interp", 5) in outcomes
