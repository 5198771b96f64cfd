"""Fuzzing of the text front end: presentation files and ``--cell``, on seeded random draws."""

import contextlib
import io

import pytest

from graypol import ParseError, get_builtin, parse_cell, parse_presentation
from graypol.cli import main

from inputs import file_tokens, random_cell_text, random_file_text, random_numerals, shipped_texts

DRAWS = 150


def _replacements(rng):
    """The tokens of ``file_tokens``, numbers that have crashed the word parser before,
    and numerals of other scripts, since only ASCII digits spell numeric words."""
    return file_tokens() + ["٣", "99999999999", "9" * 5000] + [random_numerals(rng) for _ in range(64)]


def _cell_texts(rng):
    tokens = _replacements(rng)
    return [random_cell_text(rng, tokens) for _ in range(DRAWS)]


def test_parse_presentation_raises_only_parse_errors(rng):
    texts, tokens = shipped_texts(), _replacements(rng)
    for _ in range(DRAWS):
        try:
            parse_presentation(random_file_text(rng, texts, tokens))
        except ParseError:
            pass


@pytest.mark.parametrize("name", ["pseudomonoid", "selfduality-q", "pseudoadjunction"])
def test_parse_cell_raises_only_parse_errors(name, rng):
    pres = get_builtin(name).presentation
    for text in _cell_texts(rng):
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


def test_render_cell_exits_cleanly(rng):
    for text in _cell_texts(rng):
        code, err = _run_cell_command("render", text)
        assert code in (0, 2), text
        assert "Traceback" not in err, text


def test_normalize_cell_exits_cleanly(rng):
    for text in _cell_texts(rng):
        code, err = _run_cell_command("normalize", text)
        assert code in (0, 2), text
        assert "Traceback" not in err, text
