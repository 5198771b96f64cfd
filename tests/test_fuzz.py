"""Property-based fuzzing of the text front end: presentation files and ``--cell``."""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from graypol import ParseError, get_builtin, parse_cell, parse_presentation
from graypol.cli import main


def _shipped_files():
    folder = os.path.join(os.path.dirname(__file__), os.pardir, "presentations")
    texts = []
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


_FILES = _shipped_files()
_LINES = [line for text in _FILES for line in text.splitlines()]
# every token of the shipped files, plus grammar pieces and numbers that
# have crashed the word parser before
_TOKENS = sorted({tok for line in _LINES for tok in line.split()}) + [
    "[", "]", "{", "}", "(", ")", "|", ";", ",", "@", "#", "X(", "X'(", "id(", "id2(",
    "0", "00", "²", "٣", "99999999999", "9" * 5000,
]

# digits and other numerals of every script, since only ASCII digits spell numeric words
_numerals = st.text(st.characters(categories=("Nd", "No")), min_size=1, max_size=12)
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _mutated_files(draw):
    """A shipped file with a few tokens replaced."""
    lines = [line.split(" ") for line in draw(st.sampled_from(_FILES)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.one_of(st.sampled_from(_TOKENS), _numerals))
    return "\n".join(" ".join(toks) for toks in lines)


_token_soup = st.lists(st.sampled_from(_TOKENS), max_size=14)
_files = st.one_of(
    st.text(),
    _mutated_files(),
    st.lists(st.one_of(st.sampled_from(_LINES), _token_soup.map(" ".join), st.text(max_size=12)), max_size=10).map(
        "\n".join
    ),
)
_cells = st.one_of(st.text(), _numerals, _token_soup.map(" ".join), _token_soup.map("".join))


@_FUZZ
@given(_files)
def test_parse_presentation_raises_only_parse_errors(text):
    try:
        parse_presentation(text)
    except ParseError:
        pass


@pytest.mark.parametrize("name", ["pseudomonoid", "selfduality-q", "pseudoadjunction"])
@_FUZZ
@given(text=_cells)
def test_parse_cell_raises_only_parse_errors(name, text):
    pres = get_builtin(name).presentation
    try:
        parse_cell(pres.sig, text, pres.qmode)
    except ParseError:
        pass


def _run_cell_command(command, text):
    """Exit code and stderr of ``graypol COMMAND builtin:pseudomonoid --cell=TEXT``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--cell=TEXT" keeps a leading "-" from reading as an option
        code = main([command, "builtin:pseudomonoid", f"--cell={text}"])
    return code, err.getvalue()


@_FUZZ
@given(_cells)
def test_render_cell_exits_cleanly(text):
    code, err = _run_cell_command("render", text)
    assert code in (0, 2)
    assert "Traceback" not in err


@_FUZZ
@given(_cells)
def test_normalize_cell_exits_cleanly(text):
    code, err = _run_cell_command("normalize", text)
    assert code in (0, 2)
    assert "Traceback" not in err
