"""Redex matching, branching classification, and critical enumeration,
each checked against a definition-level oracle."""

import itertools

import pytest

from graypol import (
    Branching,
    Critical,
    Independent,
    Interchanger,
    Natural,
    NonMinimal,
    OneCell,
    OpGen,
    Trivial,
    UnsupportedError,
    apply_step,
    branching_key,
    classify,
    enumerate_critical,
    find_redexes,
    length,
)
from graypol.cells import Step
from graypol.rewriting import canonical_branching, is_natural
from graypol.cells import slice2

from conftest import enumerate_two_cells, random_two_cell


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


def _try_peel(sig, s, tl, tr, nl, nr):
    from graypol.rewriting import _strip_step

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
            sig.compose(lam, sig.compose(sig.whisker0(lw, inner.lam, rw), rho, 1), 1)
            if False
            else sig.compose(lam, sig.whisker0(lw, inner.lam, rw), 1),
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


def oracle_classify(pres, b):
    if b.s1 == b.s2:
        return "trivial"
    if not oracle_minimal(pres, b):
        return "nonminimal"
    if oracle_independent(pres, b):
        return "independent"
    if is_natural(pres, b):
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
    for phi in cells:
        steps = find_redexes(pres, phi)
        for s1, s2 in itertools.product(steps, steps):
            b = canonical_branching(Branching(s1, s2))
            cls = classes[b] if classes is not None else oracle_classify(pres, b)
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
    assert apply_step(pres, steps[0]) == sig.id2(sig.make1("x", ("a",)))


def test_interchanger_round_trip_lengths(pseudomonoid):
    pres = pseudomonoid.presentation
    sig = pres.sig
    src, tgt = sig.interchanger_boundaries("mu", sig.id1("x"), "mu")
    assert length(src) == length(tgt) == 2


def test_step_boundaries_are_parallel(pseudomonoid, rng):
    pres = pseudomonoid.presentation
    sig = pres.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=3)
        for s in find_redexes(pres, phi):
            out = apply_step(pres, s)
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


def _random_positive_presentation(seed):
    import random

    from graypol import GrayPresentation, Signature, validate

    r = random.Random(seed)
    two = []
    for n in ["u", "v"][: r.randint(1, 2)]:
        two.append((n, OneCell("x", ("a",) * r.randint(0, 2)), OneCell("x", ("a",) * r.randint(1, 2))))
    base = Signature(zero=["x"], one=[("a", "x", "x")], two=two)
    cells = [
        c
        for c in enumerate_two_cells(base, 2, [OneCell("x", ("a",) * k) for k in range(3)])
        if 1 <= length(c) <= 2
    ]
    r.shuffle(cells)
    three = []
    for c in cells:
        if len(three) >= r.randint(1, 2):
            break
        for d in cells:
            if d is not c and base.source(d) == base.source(c) and base.target(d) == base.target(c):
                three.append((f"G{len(three)}", c, d))
                break
    if not three:
        return None
    pres = GrayPresentation(
        f"fuzz{seed}", Signature(zero=["x"], one=[("a", "x", "x")], two=two, three=three)
    )
    rep = validate(pres)
    if not rep.ok or not rep.operational_sources_positive:
        return None
    return pres


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 19, 23, 31, 37])
def test_enumeration_matches_brute_force_randomized(seed):
    # random one-wire presentations with positive generator boundaries
    pres = _random_positive_presentation(seed)
    if pres is None:
        pytest.skip("seed yields no operational generators")
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
