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
from graypol.cells import OpGen

from conftest import random_two_cell


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


def _left_comb(sig, n):
    wires = OneCell("x", ("a",) * (n + 1))
    pads = [OneCell("x", ("a",) * (n - 1 - i)) for i in range(n)]
    return TwoCell(wires, tuple(Whisker2(sig.id1("x"), "mu", pad) for pad in pads))


def test_left_comb_normalizes_to_right_comb(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    n = 12
    left = _left_comb(sig, n)
    pads = [OneCell("x", ("a",) * (n - 1 - i)) for i in range(n)]
    right = TwoCell(left.source1, tuple(Whisker2(pad, "mu", sig.id1("x")) for pad in pads))
    nf, path = normalize2(pres, left, _cert(pseudomonoid))
    assert nf == right
    assert length(path) == n * (n - 1) // 2 == 66
    sig.check3(path)
    assert sig.target(path) == right


def test_budget_counts_steps(pseudomonoid):
    # the 12-comb is exactly 66 steps from its normal form
    pres = pseudomonoid.presentation
    comb = _left_comb(pres.sig, 12)
    nf, path = normalize2(pres, comb, None, 66)
    assert length(path) == 66 and not find_redexes(pres, nf)
    with pytest.raises(NonTermination) as info:
        normalize2(pres, comb, None, 65)
    assert length(info.value.partial) == 65
    assert info.value.partial.steps == path.steps[:65]


def _full_rescan_path(pres, phi, budget):
    """Lowest-redex-first by rescanning every row after each step.

    Also checks at every step that a scan resumed at row ``k`` returns
    the full list restricted to the smallest ``|lam| >= k``.
    """
    sig = pres.sig
    steps, cur = [], phi
    while True:
        full = find_redexes(pres, cur)
        for k in range(length(cur) + 2):
            rows = [length(s.lam) for s in full if length(s.lam) >= k]
            expected = [s for s in full if rows and length(s.lam) == min(rows)]
            assert find_redexes(pres, cur, lowest_from=k) == expected
        if not full or len(steps) == budget:
            return cur, steps
        steps.append(full[0])
        cur = sig.step_target(full[0])


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
        cur, steps = _full_rescan_path(pres, phi, budget)
        try:
            nf, path = normalize2(pres, phi, cert, budget)
        except NonTermination as exc:
            assert budget is not None and len(steps) == budget
            assert exc.partial.steps == tuple(steps)
            continue
        assert nf == cur and path.steps == tuple(steps)


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
    from conftest import enumerate_two_cells
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
    # three parallel 3-generators over a tiny signature
    sig0 = Signature(zero=["x"], one=[("a", "x", "x")])
    a = sig0.make1("x", ("a",))
    aa = sig0.make1("x", ("a", "a"))
    base = Signature(zero=["x"], one=[("a", "x", "x")], two=[("p", aa, a), ("q", aa, a)])
    p, q = base.gen2_cell("p"), base.gen2_cell("q")
    sig = Signature(
        zero=["x"],
        one=[("a", "x", "x")],
        two=[("p", aa, a), ("q", aa, a)],
        three=[("F", p, q), ("G", p, q), ("H", p, q)],
    )
    cells = [sig.gen3_cell(OpGen(n)) for n in ("F", "G", "H")]
    return sig, cells


def zigzags_upto(sig, cells, max_len):
    f = cells[0]
    src, tgt = sig.source(f), sig.target(f)
    out = []

    def extend(z, remaining):
        out.append(z)
        if remaining == 0:
            return
        for c in cells:
            for sign in (1, -1):
                piece = zz_of(sig, c, sign)
                if z.target2 == piece.source2:
                    extend(zz_compose(sig, z, piece), remaining - 1)

    extend(zz_identity(sig, src), max_len)
    extend(zz_identity(sig, tgt), max_len)
    return out


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
    for z in zigzags_upto(sig, cells, 4):
        red = zz_simplify(sig, z)
        assert zz_is_reduced(sig, red)
        assert zz_simplify(sig, red) == red
        signs = [s for _, s in red.entries]
        assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


def test_reduced_form_unique_by_all_orders_closure(parallel_alphabet):
    sig, cells = parallel_alphabet
    checked = 0
    for z in zigzags_upto(sig, cells, 5):
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
