"""Normalization, branching joins, Squier completion, and zigzags."""

import random

import pytest

from graypol import (
    Branching,
    NonTermination,
    OneCell,
    Signature,
    TerminationRefused,
    ThreeCell,
    TwoCell,
    Whisker2,
    certify_termination,
    enumerate_critical,
    find_redexes,
    get_builtin,
    join_branching,
    length,
    normalize2,
    squier_completion,
    tile_covers,
    zz_all_reduced_forms,
    zz_compose,
    zz_identity,
    zz_invert,
    zz_is_reduced,
    zz_of,
    zz_simplify,
)
from graypol import coherence
from graypol.cells import CompositionError, Interchanger, OpGen, Step, level_at, slice2

import inputs
from inputs import GRAY_BUILTINS, enumerate_zigzags, random_positive_presentation, random_two_cell, zigzag_alphabet
from reference import composed_side, lowest_first_path, lowest_redexes


def _cert(entry):
    return certify_termination(entry.presentation, None, entry.interpretation)


def test_counit_zigzag_normalizes_to_identity(pseudoadjunction):
    pres = pseudoadjunction.presentation
    sig = pres.sig
    phi = sig.gen3_source("N")
    nf, path = normalize2(pres, phi, _cert(pseudoadjunction))
    assert nf == sig.id2(sig.make1("x", ("f",)))
    assert length(path) == 1
    assert path.steps[0].inner == OpGen("N")


def test_left_comb_normalizes_to_right_comb(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    n = 12
    left, right = inputs.comb(n), inputs.comb(n, left=False)
    nf, path = normalize2(pres, left, _cert(pseudomonoid))
    assert nf == right
    assert length(path) == n * (n - 1) // 2 == 66
    sig.check3(path)
    assert sig.target(path) == right


def test_budget_counts_steps(pseudomonoid):
    # the 12-comb is exactly 66 steps from its normal form
    pres = pseudomonoid.presentation
    comb = inputs.comb(12)
    nf, path = normalize2(pres, comb, None, 66)
    assert length(path) == 66 and not find_redexes(pres, nf)
    with pytest.raises(NonTermination) as info:
        normalize2(pres, comb, None, 65)
    assert length(info.value.partial) == 65
    assert info.value.partial.steps == path.steps[:65]


def _looping_cells(pres):
    """The cells of 8 rows, among the first 30 drawn from seed 3, whose
    lowest-redex-first path comes back to a cell within 40 steps."""
    rng = random.Random(3)
    drawn = [random_two_cell(pres.sig, rng, rows=8) for _ in range(30)]
    reached = [lowest_first_path(pres, phi, 40)[1] for phi in drawn]
    return [phi for phi, cells in zip(drawn, reached) if len(set(cells)) < len(cells)]


def test_looping_partial_paths_are_the_lowest_first_paths(selfduality):
    pres = selfduality.presentation
    loops = _looping_cells(pres)
    assert len(loops) == 7
    for phi in loops:
        steps, _ = lowest_first_path(pres, phi, 40)
        for budget in list(range(1, 13)) + [40]:
            with pytest.raises(NonTermination) as info:
                normalize2(pres, phi, None, budget)
            assert str(info.value) == f"no normal form within {budget} steps; non-termination suspected"
            assert info.value.partial.source2 == phi
            assert info.value.partial.steps == tuple(steps[:budget])


def test_a_looping_path_fills_its_budget_without_scanning(selfduality, monkeypatch):
    # once the path is back at a cell, it repeats its period, so the rest
    # of the budget needs no scan
    pres = selfduality.presentation
    phi = _looping_cells(pres)[0]
    scans = []

    def counted(*args, **kwargs):
        scans.append(args[1])
        return find_redexes(*args, **kwargs)

    monkeypatch.setattr(coherence, "find_redexes", counted)
    with pytest.raises(NonTermination) as info:
        normalize2(pres, phi, None, 100_000)
    assert len(scans) <= 20
    path = info.value.partial
    assert length(path) == 100_000 and path.source2 == phi
    pres.sig.check3(path)
    assert path.steps[:400] == tuple(lowest_first_path(pres, phi, 400)[0])


@pytest.mark.parametrize(
    "name", ["pseudomonoid", "pseudoadjunction", "selfduality", "selfduality-q", "frobenius"]
)
def test_resumed_search_follows_full_rescans(name):
    entry = get_builtin(name)
    pres = entry.presentation
    try:
        cert, budget = _cert(entry), None
    except TerminationRefused:
        cert, budget = None, 150
    rng = random.Random(name)
    drawn = 0
    while drawn < 3:
        phi = random_two_cell(pres.sig, rng, rows=26, max_pad=3)
        if length(phi) < 24:
            continue
        drawn += 1
        steps, cells = lowest_first_path(pres, phi, budget)
        for cur in cells:
            full = find_redexes(pres, cur)
            # the levels a caller holds: those a scan without them computes
            levels = [level_at(pres.sig, cur, t) for t in range(length(cur) + 1)]
            for k in range(length(cur) + 2):
                resumed = find_redexes(pres, cur, lowest_from=k)
                assert resumed == lowest_redexes(full, k)
                assert find_redexes(pres, cur, lowest_from=k, levels=levels) == resumed
        try:
            nf, path = normalize2(pres, phi, cert, budget)
        except NonTermination as exc:
            assert budget is not None and len(steps) == budget
            assert exc.partial.steps == tuple(steps)
            continue
        assert nf == cells[-1] and path.steps == tuple(steps)


def _step_kind(sig, inner):
    if isinstance(inner, OpGen):
        return ("op", length(sig.gen3_source(inner.name)))
    if isinstance(inner, Interchanger):
        return ("x",)
    return ("q", inner.rev)


def _splice_shape(k, j):
    """How ``normalize2`` splices a window of ``k`` rows into ``j`` rows."""
    if k == j:
        return "same"
    if k == 0:
        return "inserted"
    if j == 0:
        return "none"
    return "fewer" if j < k else "more"


# the splice shapes each case must show; together they are every shape
_SPLICE_SHAPES = {
    # the unit laws and the zigzags remove their window
    "pseudomonoid": {"same", "none"},
    "pseudoadjunction": {"none"},
    "selfduality": {"same", "none"},
    "selfduality-q": {"same", "none"},
    "frobenius": {"same"},
    # G0 inserts two rows at an identity source
    "random-24": {"inserted"},
    # G0 turns two rows into one and G1 one row into two
    "random-36": {"fewer", "more"},
}


@pytest.mark.parametrize(
    "name, kind",
    [
        ("pseudomonoid", ("x",)),
        ("pseudoadjunction", ("op", 2)),
        ("selfduality", ("x",)),
        # reversed oriented interchangers, and the 3-row sources of M and M°
        ("selfduality-q", ("q", True)),
        ("frobenius", ("op", 3)),
        # a random one-wire presentation whose G0 has an identity source
        ("random-24", ("op", 0)),
        # and one whose windows grow and shrink by a row
        ("random-36", ("op", 1)),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)),
)
def test_spliced_cells_equal_step_targets(name, kind, monkeypatch):
    if name.startswith("random-"):
        pres, cert, budget = random_positive_presentation(int(name[7:]), identity_sources=True), None, 150
    else:
        entry = get_builtin(name)
        pres = entry.presentation
        try:
            cert, budget = _cert(entry), None
        except TerminationRefused:
            cert, budget = None, 150
    sig = pres.sig
    scanned = []

    def level_checked(pres, phi, lowest_from=None, *, levels=None):
        # the levels normalize2 holds are those of the cell it scans
        assert levels == [level_at(sig, phi, t) for t in range(length(phi) + 1)]
        scanned.append(phi)
        return find_redexes(pres, phi, lowest_from, levels=levels)

    monkeypatch.setattr(coherence, "find_redexes", level_checked)
    kinds, shapes = set(), set()
    for seed in range(6):
        phi = random_two_cell(sig, random.Random(f"{name}:{seed}"), rows=12, max_pad=3)
        try:
            nf, path = normalize2(pres, phi, cert, budget)
            cells = [sig.step_source(s) for s in path.steps[1:]] + [nf]
        except NonTermination as exc:
            path = exc.partial
            cells = [sig.step_source(s) for s in path.steps[1:]]
        sig.check3(path)
        assert path.source2 == phi
        for s, cell in zip(path.steps, cells):
            assert cell == sig.step_target(s)
            assert sig.step_source(s) == composed_side(sig, s, sig.inst_source(s.inner))
            assert cell == composed_side(sig, s, sig.inst_target(s.inner))
            kinds.add(_step_kind(sig, s.inner))
            shapes.add(_splice_shape(length(sig.inst_source(s.inner)), length(sig.inst_target(s.inner))))
    assert kind in kinds
    assert _SPLICE_SHAPES[name] <= shapes
    assert len(scanned) > 50


def _ill_fitting_steps(pseudomonoid):
    """``(signature, step)`` pairs whose window does not fit the step's context."""
    sig = pseudomonoid.presentation.sig
    comb = inputs.comb(3)
    step = find_redexes(pseudomonoid.presentation, comb)[0]
    assert step.inner == OpGen("A") and length(step.lam) == 0 and step.right.word == ("a",)
    assert sig.step_source(step) == comb == composed_side(sig, step, sig.inst_source(step.inner))
    assert sig.step_target(step) == composed_side(sig, step, sig.inst_target(step.inner))
    # one row lower the level above the window is a a a, not a a a a
    lower = Step(slice2(sig, comb, 0, 1), step.left, step.inner, step.right, slice2(sig, comb, 3, 3))
    # two rows lower the window runs past the last row
    past = Step(slice2(sig, comb, 0, 2), step.left, step.inner, step.right, slice2(sig, comb, 3, 3))
    # the top level fits, but the window ends on a a a where A's source and target end on a
    a = OneCell("x", ("a",))
    phi = TwoCell(OneCell("x", ("a",) * 3), (Whisker2(sig.id1("x"), "mu", a), Whisker2(a, "eta", a)))
    sig.check2(phi)
    x = sig.id1("x")
    below = Step(sig.id2(phi.source1), x, OpGen("A"), x, sig.id2(sig.target(phi)))
    # a left context ending on y before a side of no rows on x: both levels
    # fit, so only the check that the contexts 0-compose refuses it
    empty = TwoCell(OneCell("x", ()), ())
    points = Signature(zero=["x", "y"], three=[("G", empty, empty)])
    y = OneCell("y", ())
    stray = Step(TwoCell(y, ()), y, OpGen("G"), OneCell("x", ()), TwoCell(y, ()))
    return [(sig, lower), (sig, past), (sig, below), (points, stray)]


def test_splice_shapes_cover_every_window_change():
    assert set().union(*_SPLICE_SHAPES.values()) == {"same", "fewer", "more", "none", "inserted"}


@pytest.mark.parametrize("off", [0, 1], ids=["one-row-lower", "two-rows-lower"])
def test_a_found_step_that_does_not_fit_is_an_internal_error(pseudomonoid, monkeypatch, off):
    # the scan hands normalize2 the first step of the 3-comb one or two rows
    # lower than it is: a defect of graypol, not a refusal of the input
    from graypol import InternalError

    pres = pseudomonoid.presentation
    comb = inputs.comb(3)
    bad = _ill_fitting_steps(pseudomonoid)[off][1]
    real = coherence.find_redexes

    def off_by_rows(pres, phi, lowest_from=None, *, levels=None):
        steps = real(pres, phi, lowest_from, levels=levels)
        return [bad] if phi == comb else steps

    monkeypatch.setattr(coherence, "find_redexes", off_by_rows)
    with pytest.raises(InternalError, match="step 0 does not fit the cell it was found on"):
        normalize2(pres, comb, _cert(pseudomonoid))


def test_splice_refuses_a_window_that_does_not_fit(pseudomonoid):
    for sg, bad in _ill_fitting_steps(pseudomonoid):
        for side, built in ((sg.inst_source(bad.inner), sg.step_source), (sg.inst_target(bad.inner), sg.step_target)):
            with pytest.raises(CompositionError):
                built(bad)
            with pytest.raises(CompositionError):
                composed_side(sg, bad, side)


def test_normal_form_of_normal_form(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    cert = _cert(pseudomonoid)
    for _ in range(20):
        phi = random_two_cell(pres.sig, rng, rows=3)
        nf, _ = normalize2(pres, phi, cert)
        again, path = normalize2(pres, nf, cert)
        assert again == nf and length(path) == 0


def test_randomized_strategy_reaches_same_normal_form(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    cert = _cert(pseudomonoid)
    rng = random.Random(5)
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=4)
        nf, _ = normalize2(pres, phi, cert)
        cur = phi
        for _ in range(100000):
            steps = find_redexes(pres, cur)
            if not steps:
                break
            cur = sig.step_target(rng.choice(steps))
        assert cur == nf


def test_budget_exhaustion_reports_suspicion(selfduality):
    # two stacked floating bubbles rotate forever under the interchangers
    pres = selfduality.presentation
    sig = pres.sig
    eta, eps = sig.gen2_cell("eta"), sig.gen2_cell("eps")
    bubble = sig.compose(eta, eps, 1)
    with pytest.raises(NonTermination):
        normalize2(pres, sig.compose(bubble, bubble, 1), max_steps=50)


def test_normalize_requires_certificate_or_budget(pseudomonoid):
    pres = pseudomonoid.presentation
    with pytest.raises(Exception):
        normalize2(pres, pres.sig.gen2_cell("mu"))


def test_all_pseudomonoid_branchings_joinable(pseudomonoid):
    pres = pseudomonoid.presentation
    cert = _cert(pseudomonoid)
    for cb in enumerate_critical(pres):
        rec = join_branching(pres, cb.branching, cert)
        assert rec.joinable
        sig = pres.sig
        assert sig.target(rec.f1) == rec.normal_form == sig.target(rec.f2)
        # replaying the join paths step by step re-derives the record
        for path, start in ((rec.f1, cb.branching.s1), (rec.f2, cb.branching.s2)):
            cur = sig.step_target(start)
            assert path.source2 == cur
            for s in path.steps:
                cur = sig.step_target(s)
            assert cur == rec.normal_form


def test_trivial_branching_joins_with_empty_paths(pseudomonoid):
    pres = pseudomonoid.presentation
    phi = pres.sig.gen3_source("L")
    s = [t for t in find_redexes(pres, phi) if t.inner == OpGen("L")][0]
    rec = join_branching(pres, Branching(s, s), _cert(pseudomonoid))
    assert rec.joinable
    assert length(rec.f1) == length(rec.f2) == 0


def test_q_mode_non_joinable_branchings_are_disconnected(selfduality_q):
    # connected local branchings of the oriented system join; the
    # non-joinable ones all have floating components
    import itertools

    from graypol import Branching, find_redexes, is_connected
    from inputs import enumerate_two_cells
    from graypol.cells import OneCell

    pres = selfduality_q.presentation
    sig = pres.sig
    starts = [OneCell("x", ("a",) * n) for n in range(3)]
    cells = [c for c in enumerate_two_cells(sig, 3, starts) if 0 < length(c) <= 3]
    joinable = blocked = 0
    for phi in cells:
        steps = find_redexes(pres, phi)
        for s1, s2 in itertools.combinations(steps, 2):
            rec = join_branching(pres, Branching(s1, s2), max_steps=300)
            if rec.joinable:
                joinable += 1
                continue
            blocked += 1
            assert not is_connected(sig, phi)
    assert joinable > 20 and blocked > 5


def test_selfduality_has_non_joinable_branching(selfduality):
    pres = selfduality.presentation
    records = [
        join_branching(pres, cb.branching, max_steps=500)
        for cb in enumerate_critical(pres)
    ]
    assert any(not r.joinable for r in records)
    assert any(r.joinable for r in records)


def test_squier_pseudomonoid_with_tiles_is_coherent(pseudomonoid):
    pres = pseudomonoid.presentation
    tiles, report = squier_completion(pres, interpretation=pseudomonoid.interpretation)
    assert report.verdict == "coherent-by-squier"
    assert not tiles


def test_squier_pseudomonoid_without_tiles_emits_five(pseudomonoid):
    pres = pseudomonoid.presentation.with_tiles(())
    tiles, report = squier_completion(pres, interpretation=pseudomonoid.interpretation)
    assert report.verdict == "completed-with-new-tiles"
    assert len(tiles) == 5
    sig = pres.sig
    crits = enumerate_critical(pres)
    for tile, cb in zip(tiles, crits):
        assert sig.source(tile.lhs) == sig.source(tile.rhs)
        assert sig.target(tile.lhs) == sig.target(tile.rhs)
        assert tile.lhs.steps[0] == cb.branching.s1
        assert tile.rhs.steps[0] == cb.branching.s2


@pytest.mark.parametrize("fault", ["wing does not replay", "wings end apart"])
def test_emitted_tiles_are_checked(pseudomonoid, monkeypatch, fault):
    import dataclasses

    import graypol.coherence as coherence
    from graypol import InternalError

    pres = pseudomonoid.presentation.with_tiles(())
    real = coherence.join_branching

    def broken(pres, b, certificate=None, max_steps=None):
        rec = real(pres, b, certificate, max_steps)
        if fault == "wing does not replay":
            # the branching's first step again, after the wing reached its normal form
            f1 = ThreeCell(rec.f1.source2, rec.f1.steps + (b.s1,))
        else:
            # a wing that replays but stops short of the normal form
            f1 = ThreeCell(rec.f1.source2, rec.f1.steps[:-1])
        return dataclasses.replace(rec, f1=f1)

    monkeypatch.setattr(coherence, "join_branching", broken)
    with pytest.raises(InternalError, match="emitted tile T1"):
        squier_completion(pres, interpretation=pseudomonoid.interpretation)


def test_squier_pseudoadjunction(pseudoadjunction):
    tiles, report = squier_completion(pseudoadjunction.presentation)
    assert report.verdict == "coherent-by-squier"
    bare = pseudoadjunction.presentation.with_tiles(())
    tiles, report = squier_completion(bare)
    assert len(tiles) == 2 and report.verdict == "completed-with-new-tiles"


def test_squier_frobenius_emits_19_despite_refusal(frobenius):
    bare = frobenius.presentation.with_tiles(())
    tiles, report = squier_completion(bare, max_steps=5000)
    assert report.termination is None
    assert report.termination_refusal
    assert report.verdict == "inconclusive"
    assert len(tiles) == 19
    sig = bare.sig
    for tile in tiles:
        assert sig.source(tile.lhs) == sig.source(tile.rhs)
        assert sig.target(tile.lhs) == sig.target(tile.rhs)


def test_tile_coverage_symmetry(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    crits = enumerate_critical(pres)
    for cb, tile in zip(crits, pres.tiles):
        assert tile_covers(sig, tile, cb.branching)
        swapped = Branching(cb.branching.s2, cb.branching.s1)
        assert tile_covers(sig, tile, swapped)


# ---------------------------------------------------------------- zigzags


@pytest.fixture(scope="module")
def parallel_alphabet():
    return zigzag_alphabet()


def test_cancellation_pair_simplifies_to_identity(parallel_alphabet):
    sig, cells = parallel_alphabet
    f = cells[0]
    z = zz_compose(sig, zz_of(sig, f, 1), zz_of(sig, f, -1))
    assert zz_simplify(sig, z).entries == ()


def test_invert_is_involution(parallel_alphabet):
    sig, cells = parallel_alphabet
    f, g, _ = cells
    z = zz_compose(sig, zz_of(sig, f, 1), zz_of(sig, g, -1))
    assert zz_invert(zz_invert(z)) == z


def test_identity_entries_dropped(parallel_alphabet):
    sig, cells = parallel_alphabet
    f = cells[0]
    ident = ThreeCell(sig.source(f), ())
    z = zz_compose(sig, zz_identity(sig, sig.source(f)), zz_of(sig, f, 1))
    z = zz_compose(sig, zz_of(sig, ident, 1), z)
    red = zz_simplify(sig, z)
    assert [s for _, s in red.entries] == [1]


def test_simplify_idempotent_and_alternating(parallel_alphabet, rng):
    sig, cells = parallel_alphabet
    for z in enumerate_zigzags(sig, cells, 4):
        red = zz_simplify(sig, z)
        assert zz_is_reduced(sig, red)
        assert zz_simplify(sig, red) == red
        signs = [s for _, s in red.entries]
        assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


def test_reduced_form_unique_by_all_orders_closure(parallel_alphabet):
    sig, cells = parallel_alphabet
    checked = 0
    for z in enumerate_zigzags(sig, cells, 5):
        forms = zz_all_reduced_forms(sig, z)
        assert len(forms) == 1
        assert zz_simplify(sig, z).entries in forms
        checked += 1
    assert checked > 200


def test_merge_composes_cells(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    cb = enumerate_critical(pres)[0]
    rec = join_branching(pres, cb.branching, _cert(pseudomonoid))
    lhs = sig.compose(sig.step_cell(cb.branching.s1), rec.f1, 2)
    z = zz_of(sig, sig.step_cell(cb.branching.s1), 1)
    z = zz_compose(sig, z, zz_of(sig, rec.f1, 1))
    red = zz_simplify(sig, z)
    assert red.entries == ((lhs, 1),)


def _raises(f, *args):
    try:
        f(*args)
    except CompositionError:
        return True
    return False


def test_step_target_raises_iff_step_source_raises(pseudomonoid):
    # a generator's sides are parallel, so the typing checks of a step are
    # the same on either side; a step is typed by its source alone
    from graypol import rewriting

    seen = []
    press = [get_builtin(name).presentation for name in GRAY_BUILTINS]
    press += [p for p in map(random_positive_presentation, range(120)) if p is not None]
    for pres in press:
        for b in rewriting._candidates(pres):
            seen.extend((pres.sig, s) for s in (b.s1, b.s2))
    steps = list(seen)
    # each candidate step with a row of rho moved into lam, and with lam
    # and rho swapped: mostly steps that do not fit
    for sg, s in seen:
        if s.rho.whiskers:
            lam = TwoCell(s.lam.source1, s.lam.whiskers + s.rho.whiskers[:1])
            rho = TwoCell(sg.whisker_target(s.rho.whiskers[0]), s.rho.whiskers[1:])
            steps.append((sg, Step(lam, s.left, s.inner, s.right, rho)))
        steps.append((sg, Step(s.rho, s.left, s.inner, s.right, s.lam)))
    steps += _ill_fitting_steps(pseudomonoid)
    raised = 0
    for sg, s in steps:
        assert _raises(sg.step_target, s) == _raises(sg.step_source, s)
        raised += _raises(sg.step_source, s)
    assert len(seen) > 1000 and raised > 1000 and len(steps) - raised > 1000


def test_is_step_source_iff_step_source_returns_the_cell():
    # ``_is_step_source(s, here)`` stands for ``step_source(s) == here``
    # without an error; a step over an identity source whose lam and rho
    # share a row can meet every junction, with a window of -1 rows
    press = [get_builtin(name).presentation for name in GRAY_BUILTINS]
    press += [random_positive_presentation(seed, identity_sources=True) for seed in range(60)]
    fits = shared = 0
    for k, pres in enumerate(p for p in press if p is not None):
        sig, rng = pres.sig, random.Random(k)
        for _ in range(15):
            phi = random_two_cell(sig, rng, rows=rng.randint(0, 4))
            n = length(phi)
            for s in find_redexes(pres, phi):
                # the step, lam and rho swapped, and every cut of phi into a
                # lam above and a rho below, the two apart or sharing rows
                steps = [s, Step(s.rho, s.left, s.inner, s.right, s.lam)]
                steps += [
                    Step(slice2(sig, phi, 0, i), s.left, s.inner, s.right, slice2(sig, phi, j, n))
                    for i in range(n + 1)
                    for j in range(n + 1)
                ]
                for v in steps:
                    try:
                        src = sig.step_source(v)
                    except CompositionError:
                        src = None
                    assert sig._is_step_source(v, phi) == (src == phi)
                    fits += src == phi
                    shared += src is not None and length(v.lam) + length(v.rho) > n
    assert fits > 1000 and shared > 100
