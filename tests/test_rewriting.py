"""Redex matching, branching classification, and critical enumeration,
each checked against a definition-level oracle."""

import dataclasses
import itertools
import random

import pytest

from graypol import (
    Branching,
    CellError,
    Critical,
    GrayPresentation,
    Interchanger,
    Natural,
    NonMinimal,
    NonTermination,
    OneCell,
    OpGen,
    QMode,
    Signature,
    SignatureError,
    Trivial,
    UnsupportedError,
    classify,
    enumerate_critical,
    find_redexes,
    length,
    normalize2,
    parse_presentation,
    validate,
)
from graypol.cells import TwoCell, Whisker2
from graypol.rewriting import canonical_branching, is_natural, rotate_branching, step_key

from inputs import (
    GRAY_BUILTINS,
    SHIPPED_FILES,
    disjoint_copies,
    enumerate_two_cells,
    positive_presentations,
    random_one_cell,
    random_positive_presentation,
    random_presentation_text,
    random_two_cell,
    words_from,
)
from reference import (
    brute_force_criticals,
    is_natural_unfiltered,
    lowest_redexes,
    natural_branchings,
    oracle_redexes,
    rewrap_step,
    typed_interchangers_above,
)


def test_assoc_redex_with_trivial_context(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    phi = sig.gen3_source("A")
    steps = find_redexes(pres, phi)
    bare = [s for s in steps if s.inner == OpGen("A")]
    assert len(bare) == 1
    s = bare[0]
    assert length(s.lam) == 0 and length(s.rho) == 0
    assert not s.left.word and not s.right.word


def test_identity_cell_has_no_redexes(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    assert find_redexes(pres, sig.id2(sig.make1("x", ("a", "a")))) == []


def test_redexes_match_context_enumeration_oracle(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    for _ in range(40):
        phi = random_two_cell(pres.sig, rng, rows=rng.randrange(1, 5), max_pad=2)
        if length(phi) > 5:
            continue
        assert set(find_redexes(pres, phi)) == oracle_redexes(pres, phi)


@pytest.mark.parametrize("entry", ["pseudoadjunction", "frobenius", "selfduality_q"])
def test_redexes_match_oracle_on_more_presentations(entry, request, rng):
    # pseudoadjunction has two 0-cells, so empty contexts must carry the right start
    pres = request.getfixturevalue(entry).presentation
    found = 0
    for _ in range(30):
        phi = random_two_cell(pres.sig, rng, rows=rng.randrange(1, 5), max_pad=2)
        steps = find_redexes(pres, phi)
        assert set(steps) == oracle_redexes(pres, phi)
        found += len(steps)
    assert found > 0


def test_apply_unit_rule(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    phi = sig.gen3_source("L")
    steps = [s for s in find_redexes(pres, phi) if s.inner == OpGen("L")]
    assert steps
    assert sig.step_target(steps[0]) == sig.id2(sig.make1("x", ("a",)))


def test_interchanger_round_trip_lengths(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    src, tgt = sig.interchanger_boundaries("mu", sig.id1("x"), "mu")
    assert length(src) == length(tgt) == 2


def test_interchanger_shapes_match_the_built_sides(rng):
    # every builtin's interchangers with middle words of at most 2 letters,
    # and the oriented rules of selfduality-q, whiskered by random contexts:
    # the source rows match one shape and the target rows the other
    from graypol import QInterchanger, get_builtin
    from graypol.catalog import BUILTIN_NAMES
    from graypol.rewriting import match_interchanger
    from graypol.termination import _small_middles

    instances = []
    for name in BUILTIN_NAMES:
        pres = get_builtin(name).presentation
        sig = pres.sig
        for alpha, beta in itertools.product(sig.two, repeat=2):
            for mid in _small_middles(sig, alpha, beta, 2):
                instances.append((sig, Interchanger(alpha, mid, beta), False))
        for alpha, beta, rev in pres.qmode.rules if pres.qmode else ():
            for mid in _small_middles(sig, alpha, beta, 2):
                instances.append((sig, QInterchanger(alpha, mid, beta, rev), rev))
    assert sum(isinstance(inst, QInterchanger) for _, inst, _ in instances) >= 4
    # a reversed rule's source is the target shape
    for sig, inst, rev in instances:
        src, tgt = sig.inst_boundaries(inst)
        rsig = sig.rotated()
        for _ in range(3):
            # a left context ending where ``src`` starts: a rotated right context
            l = rsig.rotate(random_one_cell(rsig, rng, 2, start=src.source1.start))
            r = random_one_cell(sig, rng, 2, start=sig.end0(src.source1))
            want = (l, inst.alpha, inst.mid, inst.beta, r)
            for side, target in ((src, rev), (tgt, not rev)):
                rows = sig.whisker0(l, side, r).whiskers
                assert match_interchanger(sig, *rows, target) == want


def test_step_boundaries_are_parallel(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    sig = pres.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=3)
        for s in find_redexes(pres, phi):
            out = sig.step_target(s)
            assert sig.source(out) == sig.source(phi)
            assert sig.target(out) == sig.target(phi)


def test_trivial_branching(pseudomonoid):
    pres = pseudomonoid.presentation
    phi = pres.sig.gen3_source("A")
    s = find_redexes(pres, phi)[0]
    assert isinstance(classify(pres, Branching(s, s)), Trivial)


def test_first_pseudomonoid_branching_is_critical(pseudomonoid):
    pres = pseudomonoid.presentation
    crits = enumerate_critical(pres)
    first = crits[0]
    assert first.key[0] == (0, "A") and first.key[1] == (0, "A")
    assert isinstance(classify(pres, first.branching), Critical)


def test_enumeration_matches_brute_force_two_objects(pseudoadjunction):
    # same equivalence over a signature with two 0-generators
    pres = pseudoadjunction.presentation
    sig = pres.sig
    starts = [u for x in sig.zero for u in words_from(sig, x, 4)]
    cells = [c for c in enumerate_two_cells(sig, 3, starts) if length(c) <= 3]
    brute = brute_force_criticals(pres, cells)
    listed = {cb.key: cb.branching for cb in enumerate_critical(pres)}
    assert set(brute.keys()) == set(listed.keys())


@pytest.mark.parametrize(
    "name,count", [("pseudomonoid", 5), ("pseudoadjunction", 2), ("frobenius", 19)]
)
def test_critical_counts(name, count):
    from graypol import get_builtin

    entry = get_builtin(name)
    assert len(enumerate_critical(entry.presentation)) == count


def _indexed_presentations():
    """``(seed, presentation)`` for random one-wire presentations that fill the
    redex index, each with a seed for its cells: positive draws
    with identity sources, parsed text draws, and those of the first three
    with two 2-generators once more in q mode, each generator as ``eta``
    and as ``eps``."""
    gray = [(seed, random_positive_presentation(seed, identity_sources=True)) for seed in (4, 5, 15, 20, 24, 36, 38)]
    gray += [(1000 + i, parse_presentation(random_presentation_text(random.Random(i), i))) for i in (8, 34)]
    q = [
        (seed, GrayPresentation(pres.name, pres.sig, qmode=QMode(*roles)))
        for seed, pres in gray[:3]
        if len(pres.sig.two) == 2
        for roles in itertools.permutations(pres.sig.two)
    ]
    return gray + q


def test_indexed_scan_matches_brute_force():
    # the index keys a source of two or more rows by its first two rows'
    # generators and offset, lists an identity source in every entry, a
    # one-row source in every entry of its generator and the interchanger
    # shapes by the offset they need; full and resumed scans must find what
    # the brute-force oracle finds
    rows_seen, offsets_shared, both_shapes = set(), 0, 0
    for seed, pres in _indexed_presentations():
        sig = pres.sig
        rows_seen |= {length(src) for src, _ in sig.three.values()}
        pairs = {}
        for src, _ in sig.three.values():
            if length(src) >= 2:
                first, second = src.whiskers[:2]
                pairs.setdefault((first.gen, second.gen), set()).add(len(second.left.word) - len(first.left.word))
        offsets_shared += any(len(shifts) > 1 for shifts in pairs.values())
        both_shapes += any(len(shapes) == 2 for _, shapes in pres.redex_sources.values())
        rng = random.Random(seed)
        cells = enumerate_two_cells(sig, 2, [OneCell("x", ("a",) * k) for k in range(4)])
        cells += [random_two_cell(sig, rng, rows=rng.randrange(3, 6)) for _ in range(20)]
        for phi in cells:
            full = sorted(oracle_redexes(pres, phi), key=step_key)
            assert find_redexes(pres, phi) == full
            for k in range(length(phi) + 2):
                assert find_redexes(pres, phi, lowest_from=k) == lowest_redexes(full, k)
    assert rows_seen == {0, 1, 2} and offsets_shared >= 2 and both_shapes >= 2


def test_undeclared_generator_is_a_signature_error(pseudomonoid, selfduality_q):
    # a row naming no declared 2-generator is refused wherever it sits: first,
    # after a declared row, or last
    for pres in (pseudomonoid.presentation, selfduality_q.presentation):
        sig = pres.sig
        e = sig.id1("x")
        g = next(iter(sig.two))
        for gens in (("zz", g), (g, "zz"), ("zz",)):
            phi = TwoCell(e, tuple(Whisker2(e, gen, e) for gen in gens))
            with pytest.raises(SignatureError, match="unknown 2-generator zz"):
                find_redexes(pres, phi)


def test_scans_try_only_windows_at_their_offset(frobenius, selfduality_q, monkeypatch):
    # every window of two or more rows the scan tries has its first two rows
    # at its source's offset, and every interchanger it tries has an offset
    # that leaves room for the middle word
    from graypol import rewriting

    tried = {"window": 0, "interchanger": 0}
    match_window, match_interchanger = rewriting._match_window, rewriting.match_interchanger

    def checked_window(sig, phi, t, pattern, above):
        if length(pattern) >= 2:
            rows, want = phi.whiskers[t : t + 2], pattern.whiskers[:2]
            assert [w.gen for w in rows] == [w.gen for w in want]
            assert len(rows[1].left.word) - len(rows[0].left.word) == len(want[1].left.word) - len(want[0].left.word)
            tried["window"] += 1
        return match_window(sig, phi, t, pattern, above)

    def checked_interchanger(sig, wa, wb, target):
        shift = len(wb.left.word) - len(wa.left.word)
        if target:
            assert -shift >= len(sig.src1(wb.gen).word)
        else:
            assert shift >= len(sig.tgt1(wa.gen).word)
        tried["interchanger"] += 1
        return match_interchanger(sig, wa, wb, target)

    monkeypatch.setattr(rewriting, "_match_window", checked_window)
    monkeypatch.setattr(rewriting, "match_interchanger", checked_interchanger)
    found = 0
    for entry in (frobenius, selfduality_q):
        pres = entry.presentation
        rng = random.Random(entry.name)
        for _ in range(40):
            phi = random_two_cell(pres.sig, rng, rows=rng.randrange(2, 12), max_pad=3)
            steps = find_redexes(pres, phi)
            for k in range(length(phi)):
                find_redexes(pres, phi, lowest_from=k)
            found += len(steps)
    assert found and tried["window"] and tried["interchanger"]


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 19, 23, 31, 37])
def test_enumeration_matches_brute_force_randomized(seed):
    # random one-wire presentations with positive generator boundaries; a
    # seed that draws none tries seed + 1000, seed + 2000, ... (seeds 3, 19
    # and 37 draw from 1003, 1019 and 1037)
    pres = next(filter(None, (random_positive_presentation(seed + 1000 * k) for k in itertools.count())))
    sig = pres.sig
    starts = [OneCell("x", ("a",) * k) for k in range(5)]
    cells = [c for c in enumerate_two_cells(sig, 3, starts) if length(c) <= 3]
    brute = brute_force_criticals(pres, cells)
    listed = {}
    for cb in enumerate_critical(pres):
        src = sig.step_source(cb.branching.s1)
        if length(src) <= 3 and len(sig.source(src).word) <= 4:
            listed[cb.key] = cb.branching
    assert set(brute) == set(listed)


def test_keys_determine_branchings(frobenius):
    pres = frobenius.presentation
    crits = enumerate_critical(pres)
    keys = [cb.key for cb in crits]
    assert len(set(keys)) == len(keys)
    # the key data reconstructs the branching: search by key recovers it
    for cb in crits:
        matches = [c for c in crits if c.key == cb.key]
        assert matches == [cb]


def test_no_interchanger_interchanger_criticals(frobenius, pseudomonoid):
    for entry in (frobenius, pseudomonoid):
        for cb in enumerate_critical(entry.presentation):
            inners = (cb.branching.s1.inner, cb.branching.s2.inner)
            assert any(isinstance(i, OpGen) for i in inners)


def test_symmetry_canonicalization(pseudomonoid):
    pres = pseudomonoid.presentation
    for cb in enumerate_critical(pres):
        again = canonical_branching(Branching(cb.branching.s2, cb.branching.s1))
        assert again == cb.branching


def test_minimal_branchings_have_one_sided_contexts(pseudomonoid, frobenius):
    # for minimal non-independent branchings one of each context pair is empty
    for entry in (pseudomonoid, frobenius):
        pres = entry.presentation
        for cb in enumerate_critical(pres):
            b = cb.branching
            assert length(b.s1.lam) == 0 or length(b.s2.lam) == 0
            assert length(b.s1.rho) == 0 or length(b.s2.rho) == 0
            assert not b.s1.left.word or not b.s2.left.word
            assert not b.s1.right.word or not b.s2.right.word


def test_q_mode_enumeration_refused(selfduality_q):
    with pytest.raises(UnsupportedError):
        enumerate_critical(selfduality_q.presentation)


def test_q_mode_has_no_rotation(selfduality_q):
    from graypol import CellError

    with pytest.raises(CellError, match="Gray-mode"):
        selfduality_q.presentation.rotated


def test_q_mode_redexes(selfduality_q):
    pres = selfduality_q.presentation
    sig = pres.sig
    # oriented rule source: the reversed cap-cap interchanger
    from graypol import QInterchanger

    inst = QInterchanger("eta", sig.id1("x"), "eta", rev=True)
    src = sig.inst_source(inst)
    steps = find_redexes(pres, src)
    assert any(s.inner == inst for s in steps)
    # the standard source configuration of (eta, eta) is not a q-redex
    fwd_src = sig.interchanger_boundaries("eta", sig.id1("x"), "eta")[0]
    assert all(
        not (isinstance(s.inner, QInterchanger) and s.inner.alpha == "eta" and s.inner.beta == "eta")
        for s in find_redexes(pres, fwd_src)
    )


def test_natural_branching_detected(pseudomonoid):
    # generator stacked over an unrelated 2-cell: the exchange move below it
    pres = pseudomonoid.presentation
    sig = pres.sig
    phi_a = sig.gen3_source("A")
    psi = sig.gen2_cell("mu")
    shared = sig.compose(
        sig.compose(phi_a, sig.source(psi), 0), sig.compose(sig.target(phi_a), psi, 0), 1
    )
    steps = find_redexes(pres, shared)
    op = [s for s in steps if s.inner == OpGen("A") and length(s.lam) == 0]
    ex = [s for s in steps if isinstance(s.inner, Interchanger) and length(s.lam) == length(phi_a) - 1]
    assert op and ex
    b = Branching(op[0], ex[0])
    assert isinstance(classify(pres, b), Natural)
    assert isinstance(classify(pres, Branching(ex[0], op[0])), Natural)


def test_natural_branching_detected_rotated(pseudomonoid):
    # the rotated twin: an unrelated 2-cell stacked over the generator, the exchange move above it
    pres = pseudomonoid.presentation
    sig = pres.sig
    phi_a = sig.gen3_source("A")
    psi = sig.gen2_cell("mu")
    shared = sig.compose(
        sig.compose(psi, sig.source(phi_a), 0), sig.compose(sig.target(psi), phi_a, 0), 1
    )
    steps = find_redexes(pres, shared)
    op = [s for s in steps if s.inner == OpGen("A") and length(s.rho) == 0]
    ex = [s for s in steps if isinstance(s.inner, Interchanger) and length(s.lam) == 0]
    assert op and ex
    b = Branching(op[0], ex[0])
    assert isinstance(classify(pres, b), Natural)
    assert isinstance(classify(pres, Branching(ex[0], op[0])), Natural)


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_redexes_commute_with_rotation(name, request, rng):
    pres = request.getfixturevalue(name).presentation
    sig, rot = pres.sig, pres.rotated
    found = 0
    for _ in range(30):
        phi = random_two_cell(sig, rng, rows=rng.randrange(1, 6), max_pad=2)
        steps = find_redexes(pres, phi)
        assert set(find_redexes(rot, sig.rotate(phi))) == {sig.rotate(s) for s in steps}
        for s in steps:
            assert rot.sig.step_source(sig.rotate(s)) == sig.rotate(phi)
            assert rot.sig.step_target(sig.rotate(s)) == sig.rotate(sig.step_target(s))
        found += len(steps)
    assert found > 0


def _rotated_criticals(pres):
    rot = pres.rotated
    return {
        canonical_branching(rotate_branching(rot.sig, cb.branching))
        for cb in enumerate_critical(rot)
    }


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_enumeration_commutes_with_rotation(name, request):
    pres = request.getfixturevalue(name).presentation
    listed = {cb.branching for cb in enumerate_critical(pres)}
    assert listed and _rotated_criticals(pres) == listed


def test_enumeration_commutes_with_rotation_randomized():
    checked = 0
    for seed in range(60):
        pres = random_positive_presentation(seed)
        if pres is None:
            continue
        assert _rotated_criticals(pres) == {cb.branching for cb in enumerate_critical(pres)}
        checked += 1
    assert checked >= 50


def test_classification_is_rotation_invariant(pseudomonoid, pseudomonoid_oracle):
    pres = pseudomonoid.presentation
    sig, rot = pres.sig, pres.rotated
    for b in pseudomonoid_oracle.classes:
        assert type(classify(rot, rotate_branching(sig, b))) is type(classify(pres, b))


def _gray_builtins_and_draws(count):
    from graypol import get_builtin

    return [get_builtin(name).presentation for name in GRAY_BUILTINS] + positive_presentations(count)


def test_candidates_are_branchings_by_construction():
    # enumeration types no candidate again: both steps of each have one
    # source, a well-typed 2-cell, and both steps are well typed
    from graypol.cells import ThreeCell
    from graypol.rewriting import _candidates

    count = 0
    for pres in _gray_builtins_and_draws(100):
        sig = pres.sig
        for b in _candidates(pres):
            src = sig.step_source(b.s1)
            assert sig.step_source(b.s2) == src
            sig.check2(src)
            for s in (b.s1, b.s2):
                sig.check3(ThreeCell(src, (s,)))
            count += 1
    assert count > 500


def test_non_minimal_witness_rewraps_to_the_branching(monkeypatch):
    # every non-minimal branching of the benchmark's sweep: the witness's
    # context put back around the reduced steps gives the original steps,
    # and the reduced branching has no common context left
    import os

    from graypol import get_builtin

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    import expected
    from workloads import words_from

    witnesses = 0
    for name, spec in expected.SWEEP.items():
        pres = get_builtin(name).presentation
        sig = pres.sig
        starts = [u for x in sig.zero for u in words_from(sig, x, spec["letters"])]
        for phi in enumerate_two_cells(sig, spec["rows"], starts):
            steps = find_redexes(pres, phi)
            for s1, s2 in itertools.product(steps, steps):
                w = classify(pres, Branching(s1, s2))
                if not isinstance(w, NonMinimal):
                    continue
                for s, r in ((s1, w.reduced.s1), (s2, w.reduced.s2)):
                    assert rewrap_step(sig, w.lam, w.left, w.right, w.rho, r) == s
                assert not isinstance(classify(pres, w.reduced), (Trivial, NonMinimal))
                witnesses += 1
    assert witnesses == sum(spec["tally"]["NonMinimal"] for spec in expected.SWEEP.values())


def test_self_glue_at_row_zero_is_trivial():
    # the glue that enumeration skips: a window laid on itself at row 0
    from graypol.rewriting import _glue

    glued = 0
    for pres in _gray_builtins_and_draws(100):
        sig = pres.sig
        for name in pres.operational():
            src = sig.gen3_source(name)
            if not length(src):
                continue
            window = OpGen(name)
            for b in _glue(pres, window, window, 0):
                assert b.s1 == b.s2
                assert isinstance(classify(pres, b), Trivial)
                glued += 1
    assert glued >= 100


def _two_object_draws(monkeypatch, count):
    """The first ``count`` Gray-mode draws of the benchmark's
    ``random_presentation`` with two 0-cells that enumeration accepts."""
    import os

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    from workloads import random_presentation

    rng, out = random.Random(29), []
    while len(out) < count:
        pres = random_presentation(rng, f"two{len(out)}", 2, rng.randint(2, 3), rng.randint(1, 3))
        if pres.qmode is None and pres.sig.three and validate(pres).operational_sources_positive:
            out.append(pres)
    return out


def test_minimal_branchings_slice_nothing(monkeypatch):
    # ``common_peel`` answers "minimal" from the shared source's letters,
    # before it cuts any 2-cell out of it
    from graypol import rewriting

    sliced = []
    real = rewriting.slice2
    monkeypatch.setattr(rewriting, "slice2", lambda *args: sliced.append(args) or real(*args))
    minimal = 0
    for pres in _gray_builtins_and_draws(100):
        for b in rewriting._candidates(pres):
            sliced.clear()
            if isinstance(classify(pres, b), (Trivial, NonMinimal)):
                continue
            assert not sliced, b
            minimal += 1
    assert minimal > 300


def test_enumeration_rotates_only_interchangers(monkeypatch):
    # the candidates are built in the presentation's own coordinates: the
    # interchangers below a window come from the rotation, and only they
    # and their middle words are rotated back; no signature is rotated
    from graypol.rewriting import _candidates

    press = _gray_builtins_and_draws(60) + _two_object_draws(monkeypatch, 20)
    for pres in press:
        pres.rotated
    rotated, signatures = [], []
    real, real_sig = Signature.rotate, Signature.rotated
    monkeypatch.setattr(Signature, "rotate", lambda self, c: rotated.append(c) or real(self, c))
    monkeypatch.setattr(Signature, "rotated", lambda self: signatures.append(self) or real_sig(self))
    count = sum(1 for pres in press for _ in _candidates(pres))
    xs = [c for c in rotated if isinstance(c, Interchanger)]
    mids = {x.mid for x in xs}
    assert count > 300 and xs and not signatures
    assert all(isinstance(c, Interchanger) or (isinstance(c, OneCell) and c in mids) for c in rotated)


def test_below_window_family_matches_the_rotation_oracle(monkeypatch):
    # the interchangers below each window, glued in place, are the
    # rotation's interchangers above it with each branching rotated back
    from graypol.rewriting import _op_x_above, _op_x_below, _target_ends

    from reference import rotated_family

    def above(pres, name):
        return _op_x_above(pres, name, _target_ends(pres.sig))

    found = 0
    for pres in _gray_builtins_and_draws(100) + _two_object_draws(monkeypatch, 20):
        for name in pres.operational():
            below = list(_op_x_below(pres, name, _target_ends(pres.rotated.sig)))
            assert below == rotated_family(pres, above, name)
            found += len(below)
    assert found > 100


def _copies(name, k):
    """``k`` disjoint renamed copies of the shipped file ``name``, parsed."""
    path = next(path for path in SHIPPED_FILES if path.stem == name)
    return parse_presentation(disjoint_copies(path.read_text(encoding="utf-8"), k))


def _fresh_gray_presentations(monkeypatch):
    """The Gray builtins, ``positive_presentations(100)``, the two-object
    draws and ``disjoint_copies`` of the Gray builtins for k <= 4, each
    freshly parsed or drawn, so no memo of theirs is filled yet."""
    texts = {path.stem: path.read_text(encoding="utf-8") for path in SHIPPED_FILES}
    press = [parse_presentation(texts[name]) for name in GRAY_BUILTINS]
    press += positive_presentations(100) + _two_object_draws(monkeypatch, 20)
    return press + [_copies(name, k) for name in GRAY_BUILTINS for k in (1, 2, 3, 4)]


def test_every_candidate_is_one_glue(monkeypatch):
    # the enumeration builds each candidate as one glue of two generator
    # windows and scans no cell for redexes, so it never builds the index
    from graypol import rewriting

    glue, glued = rewriting._glue, []

    def recorded(*args):
        for b in glue(*args):
            glued.append(b)
            yield b

    def no_scan(*args, **kwargs):
        raise AssertionError("the enumeration scanned a cell for redexes")

    press = _fresh_gray_presentations(monkeypatch)
    monkeypatch.setattr(rewriting, "_glue", recorded)
    monkeypatch.setattr(rewriting, "find_redexes", no_scan)
    candidates = criticals = 0
    for pres in press:
        count = 0
        for b in rewriting._candidates(pres):
            g = glued.pop()
            assert b in (g, Branching(g.s2, g.s1))
            count += 1
        assert not glued
        if validate(pres).operational_sources_positive:
            criticals += len(enumerate_critical(pres))
            assert len(glued) == count
            glued.clear()
        assert "redex_sources" not in pres.__dict__, pres.name
        candidates += count
    assert candidates > 800 and criticals > 800


def test_interchangers_inside_a_window_are_the_scans_redexes(monkeypatch):
    # ``find_redexes`` is the oracle of the family inside a window: the
    # interchanger steps glued inside each operational source are the
    # scan's interchanger redexes of it, in order, each with the bare step
    from graypol.rewriting import _op_x_inside

    found = 0
    for pres in _fresh_gray_presentations(monkeypatch):
        sig = pres.sig
        for name in pres.operational():
            pairs = list(_op_x_inside(pres, name))
            scan = find_redexes(pres, sig.gen3_source(name))
            assert [b.s2 for b in pairs] == [s for s in scan if isinstance(s.inner, Interchanger)], (pres.name, name)
            bare = sig.gen3_cell(OpGen(name)).steps[0]
            assert all(b.s1 == bare for b in pairs)
            found += len(pairs)
    assert found > 30


def test_interchangers_above_are_typed_on_words(monkeypatch):
    # the word-level filter of ``_x_above`` against building an instance
    # for every 2-generator and keeping those that type: the same list, in
    # the same order, above each window and, over the rotation, below it
    from graypol.rewriting import _target_ends, _x_above

    press = _gray_builtins_and_draws(100) + _two_object_draws(monkeypatch, 20)
    press += [_copies(name, k) for name in GRAY_BUILTINS for k in (1, 2, 3, 4)]
    found = 0
    for pres in press:
        sig, rot = pres.sig, pres.rotated.sig
        for over in (sig, rot):
            ends = _target_ends(over)
            for name in pres.operational():
                xs = list(_x_above(over, name, ends))
                assert xs == typed_interchangers_above(over, name), (pres.name, name)
                found += len(xs)
        # the instances below a window are those above it in the rotation,
        # rotated back, and type over the presentation's own signature
        for name in pres.operational():
            for x in typed_interchangers_above(rot, name):
                sig.inst_source(rot.rotate(x))
    assert found > 400


def test_an_ill_typed_interchanger_is_an_internal_error(frobenius, monkeypatch):
    # ``_x_above`` yields only well-typed instances, so one that does not
    # type is a defect of the enumeration, never skipped or refused
    from graypol import InternalError
    from graypol import rewriting

    x_above = rewriting._x_above

    def with_a_stray(sig, name, ends):
        yield from x_above(sig, name, ends)
        gen = sig.gen3_source(name).whiskers[0].gen
        yield Interchanger(gen, OneCell("nowhere", ()), gen)

    monkeypatch.setattr(rewriting, "_x_above", with_a_stray)
    with pytest.raises(InternalError, match="is not well typed") as info:
        enumerate_critical(frobenius.presentation)
    assert isinstance(info.value.__cause__, CellError)


def _renamed(value, rename):
    """``value`` with every generator name in it renamed by ``rename``."""
    if isinstance(value, str):
        return rename(value)
    if isinstance(value, tuple):
        return tuple(_renamed(v, rename) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value)(*(_renamed(getattr(value, f.name), rename) for f in dataclasses.fields(value)))
    return value


def test_enumeration_on_k_copies_is_k_times_one_copy(frobenius, monkeypatch):
    # on k disjoint frobenius copies the enumeration tries k times the glues
    # and builds k times the interchangers of one copy, and finds each
    # copy's critical branchings: those of frobenius, renamed
    from graypol import rewriting

    glues, built = [], []
    glue, init = rewriting._glue, Interchanger.__init__
    monkeypatch.setattr(rewriting, "_glue", lambda *args: glues.append(args) or glue(*args))
    monkeypatch.setattr(Interchanger, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    counts, lists = {}, {}
    for k in (1, 2, 4, 8):
        pres = _copies("frobenius", k)
        glues.clear()
        built.clear()
        lists[k] = enumerate_critical(pres)
        counts[k] = (len(glues), len(built))
    base = {_renamed(cb, lambda n: f"{n}_1") for cb in enumerate_critical(frobenius.presentation)}
    assert len(lists[1]) == 19 and set(lists[1]) == base
    assert min(counts[1]) > 0
    for k in (2, 4, 8):
        assert len(lists[k]) == 19 * k
        assert counts[k] == (k * counts[1][0], k * counts[1][1])
        for c in range(1, k + 1):
            mine = [cb for cb in lists[k] if cb.key[0][1].endswith(f"_{c}")]
            assert [_renamed(cb, lambda n: n.rsplit("_", 1)[0] + "_1") for cb in mine] == lists[1]


def test_candidates_are_classified_without_listing_words(pseudomonoid, monkeypatch):
    # every candidate has an empty left and an empty right context and no
    # row shared above or below, so ``common_peel`` answers "minimal" from
    # counts before it lists any word
    from graypol import rewriting

    listed = []
    real = rewriting._common_prefix_len
    monkeypatch.setattr(rewriting, "_common_prefix_len", lambda words: listed.append(words) or real(words))
    classified = 0
    for pres in _gray_builtins_and_draws(100):
        for b in rewriting._candidates(pres):
            classify(pres, b)
            classified += 1
    assert not listed and classified > 500
    # a non-minimal branching does list them
    pres = pseudomonoid.presentation
    cells = enumerate_two_cells(pres.sig, 3, [OneCell("x", ("a",) * n) for n in range(5)])
    pairs = (Branching(s1, s2) for phi in cells for s1, s2 in itertools.product(*[find_redexes(pres, phi)] * 2))
    assert any(isinstance(classify(pres, b), NonMinimal) for b in pairs)
    assert listed


def _sweep_pairs(request, monkeypatch, name):
    """Every ordered redex pair of the benchmark's sweep cells of ``name``,
    and the natural branchings on those cells, built from the definition."""
    if name == "pseudomonoid":
        # the oracle fixture is built on these same cells
        oracle = request.getfixturevalue("pseudomonoid_oracle")
        return list(oracle.classes), oracle.natural
    import os

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    import expected
    from workloads import words_from

    pres = request.getfixturevalue(name).presentation
    spec, sig = expected.SWEEP[name], pres.sig
    starts = [u for x in sig.zero for u in words_from(sig, x, spec["letters"])]
    cells = enumerate_two_cells(sig, spec["rows"], starts)
    steps = [find_redexes(pres, phi) for phi in cells]
    pairs = [Branching(s1, s2) for ss in steps for s1, s2 in itertools.product(ss, ss)]
    return pairs, natural_branchings(pres, cells)


@pytest.mark.parametrize(
    "name, pairs, naturals",
    [("pseudomonoid", 35442, 2260), ("pseudoadjunction", 738, 110), ("frobenius", 924, 88)],
    ids=["pseudomonoid", "pseudoadjunction", "frobenius"],
)
def test_is_natural_matches_constructed_natural_branchings(name, pairs, naturals, request, monkeypatch):
    # every ordered redex pair of the sweep, minimal or not: ``is_natural``
    # holds exactly on the branchings built from the definition
    pres = request.getfixturevalue(name).presentation
    branchings, natural = _sweep_pairs(request, monkeypatch, name)
    assert len(branchings) == pairs
    found = 0
    for b in branchings:
        assert is_natural(pres, b) == (b in natural), b
        found += b in natural
    assert found == naturals
    kinds = {(type(b.s1.inner).__name__, type(b.s2.inner).__name__) for b in natural}
    assert kinds == {("OpGen", "Interchanger"), ("Interchanger", "OpGen"), ("Interchanger", "Interchanger")}


def test_natural_prefilter_matches_unfiltered_rule(pseudomonoid, pseudomonoid_oracle):
    # the counting rule of ``is_natural`` against the former rule, which
    # rebuilt the interchanger step with ``interp_edge``
    from graypol.rewriting import _candidates

    pres = pseudomonoid.presentation
    pairs = list(pseudomonoid_oracle.classes)
    assert len(pairs) == 35442
    naturals = 0
    for b in pairs:
        got = is_natural(pres, b)
        assert got == is_natural_unfiltered(pres, b)
        naturals += got
    assert naturals >= 128
    candidates = 0
    for pres in _gray_builtins_and_draws(100):
        for b in _candidates(pres):
            assert is_natural(pres, b) == is_natural_unfiltered(pres, b)
            candidates += 1
    assert candidates > 500


def test_check3_and_classify_compare_the_sources_they_are_given(pseudomonoid, frobenius, monkeypatch):
    # check3 builds only the targets; classify builds the source of s1 and
    # compares s2 with it
    built = []
    step_source = Signature.step_source
    monkeypatch.setattr(Signature, "step_source", lambda self, s: built.append(s) or step_source(self, s))
    steps = pairs = 0
    for entry in (pseudomonoid, frobenius):
        pres = entry.presentation
        sig = pres.sig
        rng = random.Random(pres.name)
        for _ in range(4):
            phi = random_two_cell(sig, rng, rows=6)
            try:
                path = normalize2(pres, phi, None, 30)[1]
            except NonTermination as exc:
                path = exc.partial
            sig.check3(path)
            assert built == []
            steps += length(path)
            redexes = find_redexes(pres, phi)
            for s1, s2 in itertools.product(redexes, redexes):
                classify(pres, Branching(s1, s2))
                assert built == [s1]
                built.clear()
                pairs += 1
    assert steps > 20 and pairs > 20
