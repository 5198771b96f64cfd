"""The generated inputs, pinned: a sha256 digest of a fixed set of draws of each generator.

Every seeded test and the differential record set draw from these
generators, so a draw that moves changes what they check.  Cells are
encoded in full, with their contexts' letters (their ``repr`` keeps only
context lengths), and random cells also pin the state of their ``rng``
after each draw.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from graypol import BUILTIN_NAMES, OneCell, TwoCell, get_builtin, serialize_presentation

from differential import _one_fields, _two_fields
from inputs import (
    STEP_MUTATIONS,
    chain,
    comb,
    disjoint_copies,
    enumerate_two_cells,
    enumerate_zigzags,
    file_tokens,
    mutated_text,
    positive_presentations,
    random_cell_text,
    random_file_text,
    random_interpretation,
    random_numeric_cell_text,
    random_numerals,
    random_one_cell,
    random_path,
    random_padded_expression,
    random_positive_presentation,
    random_presentation_text,
    random_rough_expression,
    random_text,
    random_two_cell,
    random_zigzag,
    shipped_texts,
    step_mutants,
    step_mutated_text,
    token_soup,
    words_from,
    zigzag_alphabet,
)


def _encoded(v):
    """``v`` as JSON data, every cell in full."""
    if isinstance(v, OneCell):
        return _one_fields(v)
    if isinstance(v, TwoCell):
        return _two_fields(v)
    if dataclasses.is_dataclass(v):
        return [type(v).__name__] + [_encoded(getattr(v, f.name)) for f in dataclasses.fields(v)]
    if isinstance(v, dict):
        return [[k, _encoded(x)] for k, x in v.items()]
    if isinstance(v, (tuple, list)):
        return [_encoded(x) for x in v]
    return v


def _state(rng):
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]


def _sigs():
    return [get_builtin(name).presentation.sig for name in BUILTIN_NAMES]


def _one_cells():
    for sig in _sigs():
        for seed in range(20):
            rng = random.Random(seed)
            for max_len in range(5):
                yield random_one_cell(sig, rng, max_len), _state(rng)
                yield random_one_cell(sig, rng, max_len, start=sig.zero[-1]), _state(rng)


def _two_cells():
    for sig in _sigs():
        for seed in range(20):
            rng = random.Random(seed)
            for rows in range(7):
                yield random_two_cell(sig, rng, rows), _state(rng)
            phi = random_two_cell(sig, rng, 2, max_pad=3)
            yield phi, random_two_cell(sig, rng, 3, start_cell=sig.target(phi)), _state(rng)


def _paths():
    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        rng = random.Random(10)
        for max_steps in range(6):
            steps = random_path(pres, rng, random_two_cell(pres.sig, rng, 4), max_steps)
            yield steps, [list(step_mutants(s, steps[i - 1])) for i, s in enumerate(steps)], _state(rng)


def _enumerated():
    sig = get_builtin("pseudomonoid").presentation.sig
    yield enumerate_two_cells(sig, 3, [OneCell("x", ("a",) * n) for n in range(5)])
    sig = get_builtin("pseudoadjunction").presentation.sig
    yield enumerate_two_cells(sig, 2, [sig.id1(x) for x in sig.zero])


def _words():
    for sig in _sigs():
        for x in sig.zero:
            yield [words_from(sig, x, max_len) for max_len in range(4)]


def _zigzags():
    sig, cells = zigzag_alphabet()
    yield [(g, sig.three[g]) for g in sig.three]
    yield [z.entries for z in enumerate_zigzags(sig, cells, 3)]
    rng = random.Random(11)
    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        yield [random_zigzag(pres, rng, random_two_cell(pres.sig, rng, 2), pieces).entries for pieces in range(6)]


def _positive():
    for seed in range(60):
        for identity_sources in (False, True):
            pres = random_positive_presentation(seed, identity_sources=identity_sources)
            yield None if pres is None else serialize_presentation(pres)
    yield [pres.name for pres in positive_presentations(20)]


def _presentation_texts():
    rng = random.Random(0)
    return [random_presentation_text(rng, index) for index in range(24)]


def _padded_expressions():
    sigs = _sigs()[:2]
    rng = random.Random(5)
    for i in range(120):
        top = rng.choice((1, 2, 2, 3))
        yield random_padded_expression(sigs[i % 2], rng, top, max_nodes=rng.randrange(2, 13))


def _rough_expressions():
    rng = random.Random(6)
    for sig in _sigs():
        yield [random_rough_expression(sig, rng, 2 if n % 3 else 3) for n in range(24)]


def _interpretations():
    rng = random.Random(7)
    for sig in _sigs():
        yield [random_interpretation(sig, rng) for _ in range(10)]


def _shapes():
    yield [comb(n, left) for n in range(1, 9) for left in (True, False)]
    yield [chain(n) for n in range(1, 6)]
    yield [disjoint_copies(text, k) for text in shipped_texts() for k in (1, 2, 3)]


def _mutated_texts():
    texts, tokens = shipped_texts(), file_tokens()
    yield tokens
    rng = random.Random(8)
    yield [mutated_text(rng, texts, tokens) for _ in range(40)]
    for mutate in STEP_MUTATIONS:
        yield [step_mutated_text(rng, texts, mutate) for _ in range(10)]


def _parser_texts():
    texts, tokens = shipped_texts(), file_tokens()
    rng = random.Random(9)
    yield [random_text(rng, max_len) for max_len in range(40)]
    yield [random_numerals(rng) for _ in range(40)]
    yield [token_soup(rng, tokens, max_len) for max_len in range(15)]
    yield [token_soup(rng, tokens, 14, (" ",)) for _ in range(15)]
    yield [random_file_text(rng, texts, tokens) for _ in range(40)]
    yield [random_cell_text(rng, tokens) for _ in range(40)]


def _numeric_cell_texts():
    rng = random.Random(12)
    for name in ("pseudomonoid", "selfduality"):
        gens = list(get_builtin(name).presentation.sig.two)
        yield [random_numeric_cell_text(rng, gens) for _ in range(40)]


DRAWS = {
    "random_one_cell": (_one_cells, "dab5e8c7c9ad537c"),
    "random_two_cell": (_two_cells, "d585f551617b95f7"),
    "random_path_step_mutants": (_paths, "2e17cbdd26afadc9"),
    "enumerate_two_cells": (_enumerated, "cc92e486df9b6fbe"),
    "words_from": (_words, "65803aa963081dd0"),
    "zigzag_alphabet_enumerate_zigzags_random_zigzag": (_zigzags, "24b9709d35312324"),
    "random_positive_presentation": (_positive, "d6c86d7e79e1f8eb"),
    "random_presentation_text": (_presentation_texts, "99df6f0c745d1468"),
    "random_padded_expression": (_padded_expressions, "dca77b833fc2fda7"),
    "random_rough_expression": (_rough_expressions, "8723c99649d1bd13"),
    "random_interpretation": (_interpretations, "988c907d071d9971"),
    "comb_chain_disjoint_copies": (_shapes, "e3416c32db7b7d34"),
    "mutated_text_step_mutated_text": (_mutated_texts, "93c170c21c922091"),
    "random_text_numerals_soup_file_cell": (_parser_texts, "34550ebe071a0b05"),
    "random_numeric_cell_text": (_numeric_cell_texts, "03ec03a03905a084"),
}


@pytest.mark.parametrize("name", DRAWS)
def test_draws_are_pinned(name):
    draws, pinned = DRAWS[name]
    text = json.dumps(_encoded(list(draws())), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned
