"""Redex matching, branching classification, and critical enumeration,
each checked against a definition-level oracle."""

import itertools
import random

import pytest

from graypol import (
    Branching,
    CellError,
    Critical,
    Independent,
    Interchanger,
    Natural,
    NonMinimal,
    NonTermination,
    OneCell,
    OpGen,
    ShuffleEdge,
    Signature,
    Trivial,
    UnsupportedError,
    branching_key,
    classify,
    enumerate_critical,
    find_redexes,
    interp_edge,
    length,
    normalize2,
)
from graypol.cells import Step, TwoCell, Whisker2
from graypol.rewriting import canonical_branching, is_natural, rotate_branching, step_key
from graypol.cells import slice2

from conftest import GRAY_BUILTINS
from inputs import (
    enumerate_two_cells,
    positive_presentations,
    random_one_cell,
    random_positive_presentation,
    random_two_cell,
)


# ---------------------------------------------------------------- oracles


def oracle_redexes(pres, phi):
    """Enumerate every (rows, l, r) splitting and keep exact matches."""
    sig = pres.sig
    out = set()
    n = length(phi)
    for name in pres.operational():
        src = sig.gen3_source(name)
        m = length(src)
        for t in range(n - m + 1):
            window = slice2(sig, phi, t, t + m)
            level = sig.source(window)
            for cut in range(len(level.word) + 1):
                l = OneCell(level.start, level.word[:cut])
                for cut2 in range(cut, len(level.word) + 1):
                    r = OneCell(
                        sig.end0(OneCell(level.start, level.word[:cut2])),
                        level.word[cut2:],
                    )
                    try:
                        cand = sig.whisker0(l, src, r)
                    except Exception:
                        continue
                    if cand == window:
                        out.add(
                            Step(
                                slice2(sig, phi, 0, t),
                                l,
                                OpGen(name),
                                r,
                                slice2(sig, phi, t + m, n),
                            )
                        )
    for t in range(n - 1):
        for alpha in sig.two:
            for beta in sig.two:
                window = slice2(sig, phi, t, t + 2)
                level = sig.source(window)
                for cut in range(len(level.word) + 1):
                    l = OneCell(level.start, level.word[:cut])
                    for mid_len in range(len(level.word) + 1):
                        for cut2 in range(len(level.word) + 1):
                            r = OneCell(
                                sig.end0(OneCell(level.start, level.word[:cut2])),
                                level.word[cut2:],
                            )
                            try:
                                inst = Interchanger(
                                    alpha,
                                    OneCell(
                                        sig.end0(sig.compose(l, sig.src1(alpha), 0)),
                                        level.word[
                                            cut
                                            + len(sig.src1(alpha).word) : cut
                                            + len(sig.src1(alpha).word)
                                            + mid_len
                                        ],
                                    ),
                                    beta,
                                )
                                cand = sig.whisker0(l, sig.inst_source(inst), r)
                            except Exception:
                                continue
                            if cand == window:
                                out.add(
                                    Step(
                                        slice2(sig, phi, 0, t),
                                        l,
                                        inst,
                                        r,
                                        slice2(sig, phi, t + 2, n),
                                    )
                                )
    return out


def oracle_minimal(pres, b):
    """Quantify over all context peels of both steps."""
    sig = pres.sig
    s1, s2 = b.s1, b.s2
    phi = sig.step_source(s1)
    n = length(phi)
    level = sig.source(phi)
    for tl in range(n + 1):
        for tr in range(n - tl + 1):
            mid = slice2(sig, phi, tl, n - tr)
            mlevel = sig.source(mid)
            for nl in range(len(mlevel.word) + 1):
                for nr in range(len(mlevel.word) - nl + 1):
                    if tl == 0 and tr == 0 and nl == 0 and nr == 0:
                        continue
                    peeled = []
                    ok = True
                    for s in (s1, s2):
                        got = _try_peel(sig, s, tl, tr, nl, nr)
                        if got is None:
                            ok = False
                            break
                        peeled.append(got)
                    if ok:
                        return False
    return True


def _strip_step(sig, s, t_lam, t_rho, nl, nr):
    """Remove ``t_lam``/``t_rho`` outer rows and ``nl``/``nr`` outer letters, part by part."""

    def unpad1(u, nl, nr):
        return OneCell(sig.end0(OneCell(u.start, u.word[:nl])), u.word[nl : len(u.word) - nr])

    def rows(ws):
        return tuple(Whisker2(unpad1(w.left, nl, 0), w.gen, unpad1(w.right, 0, nr)) for w in ws)

    lam = TwoCell(unpad1(sig.source(slice2(sig, s.lam, t_lam, length(s.lam))), nl, nr), rows(s.lam.whiskers[t_lam:]))
    rho_keep = length(s.rho) - t_rho
    rho = TwoCell(unpad1(sig.source(slice2(sig, s.rho, 0, rho_keep)), nl, nr), rows(s.rho.whiskers[:rho_keep]))
    return Step(lam, unpad1(s.left, nl, 0), s.inner, unpad1(s.right, 0, nr), rho)


def _try_peel(sig, s, tl, tr, nl, nr):
    if length(s.lam) < tl or length(s.rho) < tr:
        return None
    if len(s.left.word) < nl:
        return None
    if len(s.right.word) < nr:
        return None
    try:
        inner = _strip_step(sig, s, tl, tr, nl, nr)
        sig.check3(sig.step_cell(inner))
    except Exception:
        return None
    # re-wrap and compare
    phi = sig.step_source(s)
    lam = slice2(sig, phi, 0, tl)
    rho = slice2(sig, phi, length(phi) - tr, length(phi))
    mid = slice2(sig, phi, tl, length(phi) - tr)
    lw = OneCell(sig.source(mid).start, sig.source(mid).word[:nl])
    rw_pre = OneCell(sig.source(mid).start, sig.source(mid).word[: len(sig.source(mid).word) - nr])
    rw = OneCell(sig.end0(rw_pre), sig.source(mid).word[len(sig.source(mid).word) - nr :])
    try:
        rebuilt = Step(
            sig.compose(lam, sig.whisker0(lw, inner.lam, rw), 1),
            sig.compose(lw, inner.left, 0),
            inner.inner,
            sig.compose(inner.right, rw, 0),
            sig.compose(sig.whisker0(lw, inner.rho, rw), rho, 1),
        )
    except Exception:
        return None
    if rebuilt != s:
        return None
    return inner


def oracle_independent(pres, b):
    sig = pres.sig
    for s1, s2 in ((b.s1, b.s2), (b.s2, b.s1)):
        k1 = length(sig.inst_source(s1.inner))
        if length(s1.lam) != 0 or length(s2.rho) != 0:
            continue
        if length(s2.lam) < k1:
            continue
        phi = sig.step_source(s1)
        chi = slice2(sig, phi, k1, length(s2.lam))
        try:
            win1 = sig.whisker0(s1.left, sig.inst_source(s1.inner), s1.right)
            win2 = sig.whisker0(s2.left, sig.inst_source(s2.inner), s2.right)
            top = sig.compose(win1, chi, 1)
            bottom = sig.compose(chi, win2, 1)
        except Exception:
            continue
        if s2.lam == top and s1.rho == bottom:
            return True
    return False


def _window_above(sig, cells):
    """Natural branchings ``(generator step, interchanger step)`` with the window on top.

    For every instance ``A`` of a 3-generator, interchangers included,
    whose source ``phi_A`` starts the source of one of ``cells``, and
    every 2-cell ``psi`` of at least one row on the rest of that source:
    the shared source is ``phi_A`` followed by ``psi``, the generator
    step rewrites ``phi_A``, and the interchanger step, built by
    ``interp_edge``, slides the last row of ``phi_A`` past the first
    row of ``psi``.
    """
    max_rows = max(length(c) for c in cells)
    out = set()
    for top in {c.source1 for c in cells}:
        for inst in _instances_at(sig, top):
            phi_a = sig.inst_source(inst)
            k = length(phi_a)
            if not 0 < k < max_rows:
                continue
            n = len(phi_a.source1.word)
            rest = OneCell(sig.end0(phi_a.source1), top.word[n:])
            for psi in enumerate_two_cells(sig, max_rows - k, [rest]):
                if not length(psi):
                    continue
                below = sig.compose(sig.target(phi_a), psi, 0)
                s_op = Step(sig.id2(top), OneCell(top.start, ()), inst, rest, below)
                edge = ShuffleEdge(
                    tuple(("l", i) for i in range(1, k)), k, 1, tuple(("r", j) for j in range(2, length(psi) + 1))
                )
                s_x = interp_edge(sig, edge, phi_a, psi)
                assert sig.step_source(s_op) == sig.step_source(s_x)
                out.add(Branching(s_op, s_x))
    return out


def _instances_at(sig, top):
    """Every 3-generator instance, interchangers included, whose source starts ``top``."""
    insts = [OpGen(name) for name in sig.three]
    for alpha, (src, _) in sig.two.items():
        for cut in range(len(src.word), len(top.word) + 1):
            mid = OneCell(sig.end0(src), top.word[len(src.word) : cut])
            insts += [Interchanger(alpha, mid, beta) for beta in sig.two]
    out = []
    for inst in insts:
        try:
            level = sig.inst_source(inst).source1
        except CellError:
            continue
        if level.start == top.start and top.word[: len(level.word)] == level.word:
            out.append(inst)
    return out


def natural_branchings(pres, cells):
    """Every natural branching whose source is one of ``cells``, by construction.

    The window-on-top pattern of ``_window_above`` in both orders; the
    mirror image, with the window at the bottom, is the same pattern
    built over the rotated signature on the rotated cells, rotated back.
    """
    if pres.qmode is not None:
        return set()
    sig = pres.sig
    rsig = sig.rotated()
    out = _window_above(sig, cells)
    mirrored = _window_above(rsig, [sig.rotate(c) for c in cells])
    out |= {Branching(rsig.rotate(b.s1), rsig.rotate(b.s2)) for b in mirrored}
    return out | {Branching(b.s2, b.s1) for b in out}


def oracle_classify(pres, b, natural):
    """The class of ``b``; ``natural`` holds the natural branchings of its source."""
    if b.s1 == b.s2:
        return "trivial"
    if not oracle_minimal(pres, b):
        return "nonminimal"
    if oracle_independent(pres, b):
        return "independent"
    if b in natural:
        return "natural"
    return "critical"


def produced_class(pres, b):
    got = classify(pres, b)
    return {
        Trivial: "trivial",
        NonMinimal: "nonminimal",
        Independent: "independent",
        Natural: "natural",
        Critical: "critical",
    }[type(got)]


def brute_force_criticals(pres, cells, classes=None):
    """Critical branchings among the redex pairs of ``cells``, by the oracle.

    ``classes`` may hold the oracle's class of every such pair already.
    """
    found = {}
    natural = natural_branchings(pres, cells) if classes is None else None
    for phi in cells:
        steps = find_redexes(pres, phi)
        for s1, s2 in itertools.product(steps, steps):
            b = canonical_branching(Branching(s1, s2))
            cls = classes[b] if classes is not None else oracle_classify(pres, b, natural)
            if cls == "critical":
                found[branching_key(b)] = b
    return found


# ---------------------------------------------------------------- tests


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


@pytest.mark.parametrize("entry", ["pseudoadjunction", "frobenius"])
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


def test_classification_matches_oracle_on_small_sources(pseudomonoid, pseudomonoid_oracle):
    pres = pseudomonoid.presentation
    checked = 0
    for b, cls in pseudomonoid_oracle.classes.items():
        assert produced_class(pres, b) == cls
        checked += 1
    assert checked > 200


def test_enumeration_matches_brute_force(pseudomonoid, pseudomonoid_oracle):
    pres = pseudomonoid.presentation
    brute = pseudomonoid_oracle.criticals
    listed = {cb.key: cb.branching for cb in enumerate_critical(pres)}
    assert set(brute.keys()) == set(listed.keys())
    for key, b in brute.items():
        assert listed[key] == b


def test_enumeration_matches_brute_force_two_objects(pseudoadjunction):
    # same equivalence over a signature with two 0-generators
    pres = pseudoadjunction.presentation
    sig = pres.sig
    starts = []
    for x in sig.zero:
        frontier = [OneCell(x, ())]
        for _ in range(4):
            frontier = [
                OneCell(u.start, u.word + (g,))
                for u in frontier
                for g, (s, _) in sig.one.items()
                if s == sig.end0(u)
            ]
            starts.extend(frontier)
        starts.append(OneCell(x, ()))
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


def test_indexed_scan_matches_brute_force():
    # the seeds give one-row and identity sources, which the index lists
    # apart from the sources keyed by their first two rows
    import random

    rows_seen = set()
    for seed in (4, 5, 20, 24, 36, 38):
        pres = random_positive_presentation(seed, identity_sources=True)
        sig = pres.sig
        rows_seen |= {length(src) for src, _ in sig.three.values()}
        rng = random.Random(seed)
        cells = enumerate_two_cells(sig, 2, [OneCell("x", ("a",) * k) for k in range(4)])
        cells += [random_two_cell(sig, rng, rows=rng.randrange(3, 6)) for _ in range(20)]
        for phi in cells:
            full = sorted(oracle_redexes(pres, phi), key=step_key)
            assert find_redexes(pres, phi) == full
            for k in range(length(phi) + 2):
                rows = [length(s.lam) for s in full if length(s.lam) >= k]
                lowest = [s for s in full if rows and length(s.lam) == min(rows)]
                assert find_redexes(pres, phi, lowest_from=k) == lowest
    assert rows_seen == {0, 1, 2}


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
                    rewrapped = Step(
                        sig.compose(w.lam, sig.whisker0(w.left, r.lam, w.right), 1),
                        sig.compose(w.left, r.left, 0),
                        r.inner,
                        sig.compose(r.right, w.right, 0),
                        sig.compose(sig.whisker0(w.left, r.rho, w.right), w.rho, 1),
                    )
                    assert rewrapped == s
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
            window = (OpGen(name), src)
            for b in _glue(pres, window, window, 0):
                assert b.s1 == b.s2
                assert isinstance(classify(pres, b), Trivial)
                glued += 1
    assert glued >= 100


def _natural_match(sig, s_op, s_x):
    """Reference copy of the former naturality rule, the generator window on top.

    The pair is natural when ``s_x`` is the interchanger step that
    ``interp_edge`` builds to slide the window's last row down past the
    2-cell below it, that 2-cell stripped of the window's target on the
    left.
    """
    from graypol.rewriting import _strip0

    phi_a = sig.inst_source(s_op.inner)
    k = length(phi_a)
    if k == 0 or length(s_op.lam) or s_op.left.word or length(s_x.lam) != k - 1:
        return False
    word, rho = sig.target(phi_a).word, s_op.rho
    if rho.source1.word[: len(word)] != word or any(w.left.word[: len(word)] != word for w in rho.whiskers):
        return False
    psig = _strip0(sig, rho, len(word), 0)
    if length(psig) < 1:
        return False
    edge = ShuffleEdge(
        tuple(("l", i) for i in range(1, k)), k, 1, tuple(("r", j) for j in range(2, length(psig) + 1))
    )
    try:
        return interp_edge(sig, edge, phi_a, psig) == s_x
    except CellError:
        return False


def _is_natural_unfiltered(pres, b):
    """The former ``is_natural``: ``_natural_match`` on ``b`` and on its rotation, in either order."""
    if pres.qmode is not None:
        return False
    sig = pres.sig
    for s_op, s_x in ((b.s1, b.s2), (b.s2, b.s1)):
        if not isinstance(s_x.inner, Interchanger):
            continue
        if _natural_match(sig, s_op, s_x) or _natural_match(
            pres.rotated.sig, sig.rotate(s_op), sig.rotate(s_x)
        ):
            return True
    return False


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
        assert got == _is_natural_unfiltered(pres, b)
        naturals += got
    assert naturals >= 128
    candidates = 0
    for pres in _gray_builtins_and_draws(100):
        for b in _candidates(pres):
            assert is_natural(pres, b) == _is_natural_unfiltered(pres, b)
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
