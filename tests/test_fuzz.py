"""Fuzzing of the text front end: presentation files and ``--cell``, on seeded random draws."""

import contextlib
import io

import pytest

from graypol import OneCell, ParseError, get_builtin, parse_cell, parse_presentation
from graypol.cli import main
from graypol.textio import MAX_NUMERIC_WORD

from inputs import (
    file_tokens,
    random_cell_text,
    random_file_text,
    random_numeric_cell_text,
    random_numerals,
    shipped_texts,
)

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


@pytest.mark.parametrize("name", ["pseudomonoid", "selfduality"])
def test_numeric_words_past_the_bound_are_refused(name, rng):
    # numbers in every word position: a cell parses only when none of its
    # words is longer than MAX_NUMERIC_WORD, and draws land on both sides
    sig = get_builtin(name).presentation.sig
    parsed = refused = 0
    for _ in range(DRAWS):
        text = random_numeric_cell_text(rng, list(sig.two))
        try:
            cell = parse_cell(sig, text)
        except ParseError as exc:
            refused += "numeric word longer than" in str(exc)
            continue
        if isinstance(cell, OneCell):
            words = [cell]
        elif not cell.whiskers:
            words = [cell.source1]
        else:
            words = [u for w in cell.whiskers for u in (w.left, w.right)]
        assert max(len(u.word) for u in words) <= MAX_NUMERIC_WORD, text
        parsed += 1
    assert parsed > 10 and refused > 10


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
