"""Smaller contract points: error paths, budgets, order combination."""

import dataclasses

import pytest

from graypol import (
    Branching,
    CellError,
    InternalError,
    branching_key,
    certify_termination,
    enumerate_critical,
    eval_interpretation,
    find_redexes,
    interchange_norm,
    join_branching,
    length,
    normalize2,
    seq_less,
)
from graypol import rewriting
from graypol.rewriting import RewritingError, classify, step_key
from graypol.termination import _dominates

from inputs import random_two_cell


def test_classify_rejects_non_branchings(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    s1 = find_redexes(pres, sig.gen3_source("A"))[0]
    s2 = find_redexes(pres, sig.gen3_source("L"))[0]
    with pytest.raises(RewritingError):
        classify(pres, Branching(s1, s2))


def test_key_of_a_non_instance_is_an_internal_error(pseudomonoid):
    # steps are built by graypol itself, so a step whose inner part is not
    # a generator instance is a defect, never a refusal of the input
    pres = pseudomonoid.presentation
    s = find_redexes(pres, pres.sig.gen3_source("A"))[0]
    bad = dataclasses.replace(s, inner="A")
    for key in (lambda: step_key(bad), lambda: branching_key(Branching(s, bad))):
        with pytest.raises(InternalError, match="not a generator instance") as info:
            key()
        assert not isinstance(info.value, CellError)


def test_enumeration_candidate_budget(pseudomonoid, monkeypatch):
    monkeypatch.setattr(rewriting, "MAX_CANDIDATES", 0)
    with pytest.raises(RewritingError, match="candidate budget exceeded"):
        enumerate_critical(pseudomonoid.presentation)


def test_interchanger_steps_preserve_length(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    sig = pres.sig
    from graypol import Interchanger

    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=4)
        for s in find_redexes(pres, phi):
            if isinstance(s.inner, Interchanger):
                assert length(sig.step_target(s)) == length(phi)


def test_combined_order_decreases_on_pseudomonoid_steps(pseudomonoid, rng):
    # interpretation first, interchange norm as the tie breaker
    pres = pseudomonoid.presentation
    sig = pres.sig
    interp = pseudomonoid.interpretation
    steps_seen = 0
    for _ in range(80):
        phi = random_two_cell(sig, rng, rows=4)
        fa = eval_interpretation(sig, interp, phi)
        for s in find_redexes(pres, phi):
            psi = sig.step_target(s)
            fb = eval_interpretation(sig, interp, psi)
            if fa == fb:
                assert seq_less(interchange_norm(psi), interchange_norm(phi))
            else:
                assert _dominates(fa, fb)
            steps_seen += 1
    assert steps_seen >= 100


def test_three_cell_lengths_add(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    sig = pres.sig
    cert = certify_termination(pres, "interp", pseudomonoid.interpretation)
    added = 0
    for _ in range(30):
        phi = random_two_cell(sig, rng, rows=4)
        mid, f = normalize2(pres, phi, cert)
        if length(f) == 0:
            continue
        cut = length(f) // 2
        first = f.steps[:cut]
        second = f.steps[cut:]
        from graypol import ThreeCell

        a = ThreeCell(f.source2, first)
        b = ThreeCell(sig.target(a), second)
        assert length(sig.compose(a, b, 2)) == length(a) + length(b)
        added += 1
    assert added >= 5


def test_join_record_on_frobenius_budget(frobenius):
    pres = frobenius.presentation.with_tiles(())
    for cb in enumerate_critical(pres)[:3]:
        rec = join_branching(pres, cb.branching, max_steps=2000)
        assert rec.joinable
