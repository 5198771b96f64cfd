"""Presentation grammar, cell notation, and renderer round-trips."""

import os

import pytest

from graypol import (
    BUILTIN_NAMES,
    OneCell,
    ParseError,
    Signature,
    ThreeCell,
    get_builtin,
    parse_cell,
    parse_presentation,
    render_cell,
    serialize_presentation,
    squier_completion,
)
from graypol.textio import parse_two, parse_three, render_three

from inputs import random_path, random_positive_presentation, random_two_cell

FROBENIUS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "presentations", "frobenius.gray")


def test_empty_file_is_empty_presentation():
    pres = parse_presentation("")
    assert pres.sig.zero == ()
    assert not pres.sig.one and not pres.sig.two and not pres.sig.three
    assert not pres.tiles


def test_comments_and_blanks_ignored():
    pres = parse_presentation("# hello\n\npresentation t\n0 x  # a point\n")
    assert pres.name == "t"
    assert pres.sig.zero == ("x",)


def test_grammar_example_parses(pseudomonoid):
    text = (
        "presentation pseudomonoid\n"
        "0 x\n"
        "1 a : x -> x\n"
        "2 mu : a a => a\n"
        "2 eta : @x => a\n"
        "3 A : [.|mu|a];[.|mu|.] => [a|mu|.];[.|mu|.]\n"
        "3 L : [.|eta|a];[.|mu|.] => id(a)\n"
        "3 R : [a|eta|.];[.|mu|.] => id(a)\n"
    )
    pres = parse_presentation(text)
    assert pres.sig == pseudomonoid.presentation.sig


def test_mismatched_endpoints_name_the_generator():
    text = "presentation bad\n0 x\n0 y\n1 f : x -> y\n2 m : f f => f\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert "m" in str(err.value)
    assert "line 5" in str(err.value)


def test_unknown_directive_reports_line():
    with pytest.raises(ParseError) as err:
        parse_presentation("presentation p\nbogus line here\n")
    assert "line 2" in str(err.value)


_PRELUDE = "presentation p\n0 x\n1 a : x -> x\n2 mu : a a => a\n"
_ASSOC = "3 A : [.|mu|a];[.|mu|.] => [a|mu|.];[.|mu|.]\n"


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("0 x\n1 a : x x\n", "1-generator needs SRC -> TGT (line 2)", 2),
        ("0 x\n1 a : x -> x\n2 mu : a a a\n", "2-generator needs SRC => TGT (line 3)", 3),
        (_PRELUDE + "3 A : [.|mu|a];[.|mu|.] [a|mu|.];[.|mu|.]\n", "3-generator needs SRC => TGT (line 5)", 5),
        (_PRELUDE + _ASSOC + "tile R : id2([.|mu|.]) id2([.|mu|.])\n", "tile needs LHS == RHS (line 6)", 6),
        (_PRELUDE + "bogus line here\n", "unknown directive 'bogus' (line 5)", 5),
        (_PRELUDE + "qmode mu\n", "qmode needs two 2-generator names (line 5)", 5),
        ("0 x\n1 a : x -> y\n", "1-generator a has undeclared endpoint", None),
        (_PRELUDE + "2 mu : a => a\n", "duplicate 2-generator mu", None),
        (_PRELUDE + "2 nu : a b => a\n", "2-generator nu: unknown 1-generator 'b' (line 5)", 5),
        (
            _PRELUDE + "3 A : [.|mu|a];[a|mu|.] => [a|mu|.];[.|mu|.]\n",
            "3-generator A: 2-cell whisker chain broken at mu: expected 1-source <1:a a>, got <1:a a a> (line 5)",
            5,
        ),
        (
            _PRELUDE + _ASSOC + "tile R : {. ; A ; .}|{. ; A ; .} == id2([.|mu|a];[.|mu|.])\n",
            "tile R: 3-cell step chain broken: expected 2-source <2:(1|mu|0);(0|mu|0)>, "
            "got <2:(0|mu|1);(0|mu|0)> (line 6)",
            6,
        ),
        ("presentation p\n0 x\npresentation q\n", "repeated presentation line (line 3)", 3),
        (_PRELUDE + "qmode mu mu\nqmode mu mu\n", "repeated qmode line (line 6)", 6),
        ("0\n", "0-generator needs a name (line 1)", 1),
        ("0 x\n1  : x -> x\n", "1-generator needs a name (line 2)", 2),
        ("0 x\n1 a : x -> x\n2  : a => a\n", "2-generator needs a name (line 3)", 3),
        (_PRELUDE + "3  : [.|mu|a];[.|mu|.] => [a|mu|.];[.|mu|.]\n", "3-generator needs a name (line 5)", 5),
        (_PRELUDE + _ASSOC + "tile  : id2([.|mu|.]) == id2([.|mu|.])\n", "tile needs a name (line 6)", 6),
        ("0 x y\n", "0-generator name 'x y' contains whitespace (line 1)", 1),
        ("0 x\n1 a b : x -> x\n", "1-generator name 'a b' contains whitespace (line 2)", 2),
        ("0 x\n1 a : x -> x\n2 m u : a => a\n", "2-generator name 'm u' contains whitespace (line 3)", 3),
        (_PRELUDE + "3 A B : [.|mu|.] => [.|mu|.]\n", "3-generator name 'A B' contains whitespace (line 5)", 5),
        (
            _PRELUDE + _ASSOC + "tile R S : id2([.|mu|.]) == id2([.|mu|.])\n",
            "tile name 'R S' contains whitespace (line 6)",
            6,
        ),
    ],
    ids=[
        "1-no-arrow", "2-no-arrow", "3-no-arrow", "tile-no-equals", "unknown-directive", "qmode-one-name",
        "undeclared-endpoint", "duplicate-generator", "unknown-letter", "ill-typed-3-source", "unchained-tile",
        "repeated-presentation", "repeated-qmode", "0-no-name", "1-no-name", "2-no-name", "3-no-name", "tile-no-name",
        "0-spaced-name", "1-spaced-name", "2-spaced-name", "3-spaced-name", "tile-spaced-name",
    ],
)
def test_malformed_presentations_report_message_and_line(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == message
    assert err.value.line == line


def test_linear_rendering_notation(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    two = sig.make1("x", ("a", "a"))
    one = sig.make1("x", ("a",))
    cell = sig.compose(
        sig.compose(
            sig.whisker0(sig.id1("x"), mu, two), sig.whisker0(one, mu, sig.id1("x")), 1
        ),
        mu,
        1,
    )
    assert render_cell(sig, cell) == "(0|mu|2);(1|mu|0);(0|mu|0)"
    assert render_cell(sig, sig.id2(two)) == "id(a a)"
    assert parse_cell(sig, "(0|mu|2);(1|mu|0);(0|mu|0)") == cell


def test_round_trip_random_cells(pseudomonoid, pseudoadjunction, rng):
    for entry in (pseudomonoid, pseudoadjunction):
        sig = entry.presentation.sig
        for _ in range(500):
            cell = random_two_cell(sig, rng, rows=rng.randrange(5))
            assert parse_cell(sig, render_cell(sig, cell)) == cell


def test_three_cell_round_trip(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    for tile in pres.tiles:
        for side in (tile.lhs, tile.rhs):
            assert parse_three(sig, render_three(sig, side), None) == side


def test_one_cell_round_trip(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    fg = sig.make1("x", ("f", "g"))
    assert parse_cell(sig, render_cell(sig, fg)) == fg
    empty = sig.id1("y")
    assert render_cell(sig, empty) == "@y"
    assert parse_cell(sig, "@y") == empty


_ONE_WIRE = Signature(zero=["x"], one=[("a", "x", "x")])
_TWO_WIRES = Signature(zero=["x"], one=[("a", "x", "x"), ("b", "x", "x")])


@pytest.mark.parametrize("sig", [_ONE_WIRE, _TWO_WIRES], ids=["one-wire", "two-wires"])
@pytest.mark.parametrize("text", [".", "0", "", "@x"])
def test_empty_word_spellings(sig, text):
    assert parse_cell(sig, text) == OneCell("x", ())


def test_numeric_words():
    assert parse_cell(_ONE_WIRE, "00") == OneCell("x", ())
    assert parse_cell(_ONE_WIRE, "3") == OneCell("x", ("a", "a", "a"))
    for text in ("00", "3"):
        with pytest.raises(ParseError, match="single-wire"):
            parse_cell(_TWO_WIRES, text)


def test_numeric_words_are_bounded():
    from graypol.textio import MAX_NUMERIC_WORD

    limit = str(MAX_NUMERIC_WORD)
    assert len(parse_cell(_ONE_WIRE, limit).word) == MAX_NUMERIC_WORD
    assert len(parse_cell(_ONE_WIRE, "000" + limit).word) == MAX_NUMERIC_WORD
    # 5000 digits is past the length int() accepts from a string
    for text in (str(MAX_NUMERIC_WORD + 1), "9" * 5000):
        with pytest.raises(ParseError, match="numeric word longer than"):
            parse_cell(_ONE_WIRE, text)


@pytest.mark.parametrize("text", [".", "0"])
def test_empty_word_needs_a_start_over_two_points(pseudoadjunction, text):
    with pytest.raises(ParseError, match="explicit start"):
        parse_cell(pseudoadjunction.presentation.sig, text)


def test_whisker_word_inference(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    cell = parse_two(sig, "[.|eta|f]")
    assert cell.whiskers[0].left == sig.id1("x")
    assert cell.whiskers[0].right == sig.make1("x", ("f",))


def test_ascii_and_tikz_render(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    cell = sig.gen3_source("A")
    art = render_cell(sig, cell, "ascii")
    assert "mu" in art
    tikz = render_cell(sig, cell, "tikz")
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.endswith("\\end{tikzpicture}")


def test_q_interchanger_round_trip(selfduality_q):
    pres = selfduality_q.presentation
    sig = pres.sig
    from graypol import QInterchanger

    inst = QInterchanger("eta", sig.make1("x", ("a",)), "eta", rev=True)
    cell = sig.gen3_cell(inst)
    text = render_three(sig, cell)
    assert "X'(" in text
    assert parse_three(sig, text, pres.qmode) == cell


def test_unbalanced_brackets_raise(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    with pytest.raises(ParseError):
        parse_two(sig, "[.|mu|a];[.|mu|.")


def test_serialize_stable(pseudomonoid):
    text = serialize_presentation(pseudomonoid.presentation)
    assert text == serialize_presentation(parse_presentation(text))


# ---------------------------------------------------------------- metamorphic: parse after serialize is the identity

def test_random_presentations_round_trip_with_their_completion_tiles(rng):
    for seed in rng.sample(range(10**6), 40):
        pres = random_positive_presentation(seed)
        if pres is None:
            continue
        assert parse_presentation(serialize_presentation(pres)) == pres
        tiles, _ = squier_completion(pres, max_steps=200)
        completed = pres.with_tiles(tiles)
        assert parse_presentation(serialize_presentation(completed)) == completed


def test_q_mode_presentation_round_trips(selfduality_q):
    pres = selfduality_q.presentation
    assert parse_presentation(serialize_presentation(pres)) == pres


def test_random_cells_round_trip(rng):
    """Random 2-cells and random rewriting paths out of them read back as themselves."""
    for _ in range(150):
        pres = get_builtin(rng.choice(BUILTIN_NAMES)).presentation
        sig = pres.sig
        phi = random_two_cell(sig, rng, rows=rng.randint(0, 8))
        assert parse_cell(sig, render_cell(sig, phi), pres.qmode) == phi
        F = ThreeCell(phi, tuple(random_path(pres, rng, phi, rng.randint(0, 5))))
        assert parse_cell(sig, render_cell(sig, F), pres.qmode) == F


def test_a_frobenius_parse_builds_one_source_per_tile_side(monkeypatch):
    # the 38 tile sides have 112 steps: each step's target is built once,
    # and the source of each side's first step is its source; check3
    # compares every step's source in place
    with open(FROBENIUS_FILE, encoding="utf-8") as handle:
        text = handle.read()
    built = []
    step_side = Signature._step_side
    monkeypatch.setattr(
        Signature, "_step_side", lambda self, s, source: built.append(source) or step_side(self, s, source)
    )
    sides = [side for tile in parse_presentation(text).tiles for side in (tile.lhs, tile.rhs)]
    assert len(sides) == 38 and sum(len(side.steps) for side in sides) == 112
    assert built.count(True) == 38 and built.count(False) == 112
    assert len(built) == 150
