"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

from graypol import (
    OneCell,
    QInterchanger,
    ThreeCell,
    certify_termination,
    enumerate_critical,
    eval_cell,
    eval_interpretation,
    find_redexes,
    get_builtin,
    inv,
    is_connected,
    length,
    measure,
    measure_less,
    reducts,
    selfdual_measure,
    squier_completion,
    TerminationRefused,
    zz_all_reduced_forms,
    zz_invert,
    zz_simplify,
)
from graypol.cli import main as cli_main
from graypol.expressions import size
from graypol.shuffle import interp_edge, interp_vertex, shuffle_graph, word_edges
from graypol.termination import EXTERNAL_INTERCHANGER_THEOREM

from inputs import enumerate_zigzags, random_padded_expression, random_two_cell, zigzag_alphabet
from reference import produced_class, reachable_normal_forms


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n}: {status}  {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# ------------------------------------------------------------------ 1


def test_criterion_1_critical_counts(capsys):
    expected = {"pseudomonoid": 5, "pseudoadjunction": 2, "frobenius": 19}
    ok = True
    details = []
    for name, count in expected.items():
        t0 = time.time()
        code = cli_main(["critical-pairs", f"builtin:{name}", "--format", "json"])
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        import json

        got = json.loads(out)["count"]
        details.append(f"{name}={got} ({elapsed:.2f}s)")
        ok = ok and code == 0 and got == count and elapsed < 10.0
    with capsys.disabled():
        report(1, ok, ", ".join(details))


# ------------------------------------------------------------------ 2


def test_criterion_2_pseudomonoid_interpretation():
    entry = get_builtin("pseudomonoid")
    pres, interp = entry.presentation, entry.interpretation
    cert = certify_termination(pres, "interp", interp)
    sig = pres.sig
    fs = eval_interpretation(sig, interp, sig.gen3_source("A")).symbolic()
    ft = eval_interpretation(sig, interp, sig.gen3_target("A")).symbolic()
    ok = cert.strategy == "interp" and fs == "(4x + 2y + z + 3)" and ft == "(2x + 2y + z + 2)"
    report(2, ok, f"strategy={cert.strategy}, F(source)={fs}, F(target)={ft}")


# ------------------------------------------------------------------ 3


def test_criterion_3_pseudoadjunction_connectedness():
    entry = get_builtin("pseudoadjunction")
    pres = entry.presentation
    sig = pres.sig
    cert = certify_termination(pres, "connected")
    ok = cert.assumptions == [EXTERNAL_INTERCHANGER_THEOREM]
    crits = enumerate_critical(pres)
    visited = set()
    frontier = {sig.step_source(cb.branching.s1) for cb in crits}
    for depth in range(6 + 1):
        nxt = set()
        for phi in frontier:
            if phi in visited:
                continue
            visited.add(phi)
            ok = ok and is_connected(sig, phi)
            if depth < 6:
                for s in find_redexes(pres, phi):
                    nxt.add(sig.step_target(s))
        frontier = nxt
    report(3, ok, f"1 assumption recorded, {len(visited)} reachable cells all connected")


# ------------------------------------------------------------------ 4


def test_criterion_4_frobenius_refusal_and_tiles():
    entry = get_builtin("frobenius")
    bare = entry.presentation.with_tiles(())
    t0 = time.time()
    refused = False
    try:
        certify_termination(bare)
    except TerminationRefused:
        refused = True
    tiles, rep = squier_completion(bare, max_steps=5000)
    elapsed = time.time() - t0
    ok = refused and rep.termination_refusal is not None and len(tiles) == 19
    sig = bare.sig
    for tile in tiles:
        ok = ok and sig.source(tile.lhs) == sig.source(tile.rhs)
        ok = ok and sig.target(tile.lhs) == sig.target(tile.rhs)
    ok = ok and elapsed < 60.0
    report(4, ok, f"refused, {len(tiles)} parallel tiles ({elapsed:.2f}s)")


# ------------------------------------------------------------------ 5


def _mixed_signatures():
    return [get_builtin("pseudomonoid").presentation.sig, get_builtin("pseudoadjunction").presentation.sig]


def test_criterion_5_normal_form_property_suite():
    rng = random.Random(123457)
    sigs = _mixed_signatures()
    total = 10000
    closures = 0
    for i in range(total):
        sig = sigs[i % len(sigs)]
        top = rng.choice((1, 2, 2, 3))
        expr = random_padded_expression(sig, rng, top, max_nodes=rng.randrange(2, 13))
        outs = []
        for pick in (lambda o: o[0], lambda o: o[-1], rng.choice):
            cur = expr
            while True:
                opts = reducts(sig, cur)
                if not opts:
                    break
                m0 = measure(cur, top)
                for nxt in opts:
                    assert measure(nxt, top) < m0
                cur = pick(opts)
            outs.append(cur)
        assert outs[0] == outs[1] == outs[2]
        assert eval_cell(sig, expr, top) == eval_cell(sig, outs[0], top)
        if size(expr) <= 8 and closures < 1500:
            closures += 1
            normals = reachable_normal_forms(sig, expr, cap=60000)
            assert normals == {outs[0]}
    report(5, True, f"{total} expressions, {closures} closure checks, zero violations")


# ------------------------------------------------------------------ 6


def _catalog_two_cells(pres):
    sig = pres.sig
    cells = [sig.gen2_cell(g) for g in sig.two]
    for name in sig.three:
        cells.append(sig.gen3_source(name))
        cells.append(sig.gen3_target(name))
    uniq = []
    for c in cells:
        if c not in uniq and 0 < length(c) <= 3:
            uniq.append(c)
    return uniq


def _all_paths(vertices, start):
    # edges strictly increase the inversion count, so paths are finite
    out = {start: [[]]}
    order = sorted(vertices, key=inv)
    for v in order:
        for path in out.get(v, []):
            for e in word_edges(v):
                out.setdefault(e.target, []).append(path + [e])
    return out


def test_criterion_6_shuffle_suite():
    from math import comb

    pairs = 0
    for name in ("pseudomonoid", "pseudoadjunction", "selfduality", "frobenius"):
        pres = get_builtin(name).presentation
        sig = pres.sig
        cells = _catalog_two_cells(pres)
        for phi, psi in itertools.product(cells, cells):
            if sig.end0(sig.source(phi)) != sig.source(psi).start:
                continue
            pairs += 1
            k, kp = length(phi), length(psi)
            vs, es = shuffle_graph(sig, phi, psi)
            assert len(vs) == comb(k + kp, k)
            start = tuple([("l", i) for i in range(1, k + 1)] + [("r", j) for j in range(1, kp + 1)])
            for v in vs:
                paths_from_v = _all_paths(vs, v)
                for w, paths in paths_from_v.items():
                    from graypol import path_exists

                    assert path_exists(v, w)
                    for p in paths:
                        assert len(p) == inv(w) - inv(v)
                    if len(paths) > 1:
                        # parallel interpreted 3-cells share both boundaries
                        cells3 = []
                        for p in paths:
                            steps = tuple(interp_edge(sig, e, phi, psi) for e in p)
                            cell3 = ThreeCell(interp_vertex(sig, v, 1, 1, phi, psi), steps)
                            sig.check3(cell3)
                            cells3.append(cell3)
                        tgts = {sig.target(c) for c in cells3}
                        srcs = {c.source2 for c in cells3}
                        assert len(tgts) == 1 and len(srcs) == 1
                for w in vs:
                    from graypol import path_exists

                    assert path_exists(v, w) == (w in paths_from_v)
    report(6, True, f"{pairs} composable catalog pairs, zero violations")


# ------------------------------------------------------------------ 7


def test_criterion_7_classification_oracle(pseudomonoid_oracle):
    entry = get_builtin("pseudomonoid")
    pres = entry.presentation
    checked = 0
    for b, cls in pseudomonoid_oracle.classes.items():
        assert produced_class(pres, b) == cls
        checked += 1
    assert checked > 200
    brute = pseudomonoid_oracle.criticals
    listed = {cb.key: cb.branching for cb in enumerate_critical(pres)}
    assert set(brute) == set(listed)
    for key, b in brute.items():
        assert listed[key] == b
    report(7, True, f"{checked} branchings classified, enumeration matches brute force")


# ------------------------------------------------------------------ 8


def test_criterion_8_selfdual_measure():
    entry = get_builtin("selfduality-q")
    pres = entry.presentation
    sig = pres.sig
    for n in (0, 1, 2):
        inst = QInterchanger("eta", OneCell("x", ("a",) * n), "eta", rev=True)
        src, tgt = sig.inst_source(inst), sig.inst_target(inst)
        assert selfdual_measure(pres, src).n2_eta == (n + 2, 0)
        assert selfdual_measure(pres, tgt).n2_eta == (0, n)
    rng = random.Random(4242)
    steps_seen = 0
    while steps_seen < 1000:
        phi = random_two_cell(sig, rng, rows=rng.randrange(2, 6))
        if not is_connected(sig, phi) or length(phi) == 0:
            continue
        qsteps = [s for s in find_redexes(pres, phi) if isinstance(s.inner, QInterchanger)]
        for s in qsteps:
            before = selfdual_measure(pres, phi)
            after = selfdual_measure(pres, sig.step_target(s))
            assert measure_less(after, before)
            steps_seen += 1
    report(8, True, f"{steps_seen} oriented steps all decrease, boundary pattern matches")


# ------------------------------------------------------------------ 9


def test_criterion_9_squier_completion():
    entry = get_builtin("pseudomonoid")
    pres = entry.presentation
    tiles, rep = squier_completion(pres, interpretation=entry.interpretation)
    ok = rep.verdict == "coherent-by-squier" and not tiles
    bare = pres.with_tiles(())
    tiles, rep = squier_completion(bare, interpretation=entry.interpretation)
    ok = ok and rep.verdict == "completed-with-new-tiles" and len(tiles) == 5
    sig = pres.sig
    for tile, cb in zip(tiles, enumerate_critical(bare)):
        ok = ok and tile.lhs.steps[0] == cb.branching.s1
        ok = ok and tile.rhs.steps[0] == cb.branching.s2
        ok = ok and tile.lhs.source2 == sig.step_source(cb.branching.s1)
    report(9, ok, "coherent with tiles installed, 5 regenerated without")


# ------------------------------------------------------------------ 10


def test_criterion_10_zigzag_calculus():
    # three parallel formal 3-cells form the alphabet
    sig, cells = zigzag_alphabet()
    checked = 0
    for z in enumerate_zigzags(sig, cells, 5):
        forms = zz_all_reduced_forms(sig, z)
        assert len(forms) == 1
        assert zz_simplify(sig, z).entries in forms
        assert zz_invert(zz_invert(z)) == z
        checked += 1
    report(10, True, f"{checked} zigzags, unique reduced forms, involutive inversion")
