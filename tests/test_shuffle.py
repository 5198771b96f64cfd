"""Shuffle graphs: counts, path combinatorics, and interpretations."""

from collections import deque
from math import comb

import pytest

from graypol import (
    Interchanger,
    OneCell,
    Signature,
    big_x,
    interp_edge,
    interp_vertex,
    inv,
    length,
    lindex,
    path_exists,
    shuffle_graph,
    sigma_path,
)
from graypol.shuffle import ShuffleEdge, ShuffleError, word_edges

from inputs import random_two_cell


@pytest.fixture(scope="module")
def tau_world():
    sig = Signature(
        zero=["x"],
        one=[("w", "x", "x")],
        two=[("tau", OneCell("x", ("w",)), OneCell("x", ("w",)))],
    )
    tau = sig.gen2_cell("tau")
    return sig, sig.compose(tau, tau, 1)


def bfs_reachable(vertices, start):
    adj = {v: [] for v in vertices}
    for v in vertices:
        for e in word_edges(v):
            adj[v].append(e.target)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def bfs_dist(vertices, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for e in word_edges(cur):
            if e.target not in dist:
                dist[e.target] = dist[cur] + 1
                queue.append(e.target)
    return dist


def test_vertex_count(tau_world):
    sig, phi = tau_world
    vs, _ = shuffle_graph(sig, phi, phi)
    assert len(vs) == comb(4, 2) == 6


def test_degenerate_graphs(tau_world, pseudomonoid):
    sig, phi = tau_world
    ident = sig.id2(sig.source(phi))
    vs, es = shuffle_graph(sig, ident, phi)
    assert len(vs) == 1 and not es
    vs, es = shuffle_graph(sig, phi, ident)
    assert len(vs) == 1 and not es


def test_edge_count_matches_factorization_oracle(tau_world):
    # oracle: enumerate every factorization  w . l_i . r_j . w'  over all vertices
    sig, phi = tau_world
    vs, es = shuffle_graph(sig, phi, phi)
    oracle = 0
    for v in vs:
        for p in range(len(v) - 1):
            if v[p][0] == "l" and v[p + 1][0] == "r":
                oracle += 1
    assert len(es) == oracle == 6


def test_lindex_and_inv():
    w0 = (("l", 1), ("l", 2), ("r", 1), ("r", 2))
    w1 = (("r", 1), ("r", 2), ("l", 1), ("l", 2))
    assert inv(w0) == 0
    assert inv(w1) == 4
    assert lindex(w0, 2) == {1: 1, 2: 2}
    assert lindex(w1, 2) == {1: 3, 2: 4}


def test_path_exists_examples():
    a = (("l", 1), ("r", 1), ("l", 2), ("r", 2))
    b = (("r", 1), ("l", 1), ("r", 2), ("l", 2))
    assert path_exists(a, b)
    assert not path_exists(b, a)


@pytest.mark.parametrize("k,kp", [(0, 2), (1, 1), (2, 2), (3, 2), (3, 3)])
def test_path_exists_agrees_with_bfs(k, kp, tau_world):
    sig, _ = tau_world
    from graypol.shuffle import shuffle_words

    vs = shuffle_words(k, kp)
    for v in vs:
        reach = bfs_reachable(vs, v)
        for w in vs:
            assert path_exists(v, w) == (w in reach)


@pytest.mark.parametrize("k,kp", [(2, 2), (3, 2)])
def test_all_paths_have_inv_length(k, kp):
    from graypol.shuffle import shuffle_words

    vs = shuffle_words(k, kp)
    for v in vs:
        dist = bfs_dist(vs, v)
        for w, d in dist.items():
            assert d == inv(w) - inv(v)


def test_interp_vertex_move_sequence(tau_world):
    sig, phi = tau_world
    stacked = interp_vertex(
        sig, (("l", 1), ("l", 2), ("r", 1), ("r", 2)), 1, 1, phi, phi
    )
    rows = [(len(w.left.word), w.gen, len(w.right.word)) for w in stacked.whiskers]
    assert rows == [(0, "tau", 1), (0, "tau", 1), (1, "tau", 0), (1, "tau", 0)]
    once = interp_vertex(sig, (("l", 1), ("r", 1), ("l", 2), ("r", 2)), 1, 1, phi, phi)
    rows = [(len(w.left.word), w.gen, len(w.right.word)) for w in once.whiskers]
    assert rows == [(0, "tau", 1), (1, "tau", 0), (0, "tau", 1), (1, "tau", 0)]


def test_interp_empty_word_is_identity(tau_world):
    sig, phi = tau_world
    out = interp_vertex(sig, (), 3, 3, phi, phi)
    assert length(out) == 0
    assert out.source1 == sig.compose(sig.target(phi), sig.target(phi), 0)


def test_interp_edges_have_matching_boundaries(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    pairs = 0
    for _ in range(60):
        phi = random_two_cell(sig, rng, rows=3)
        psi = random_two_cell(sig, rng, rows=3)
        if sig.end0(sig.source(phi)) != sig.source(psi).start:
            continue
        if length(phi) + length(psi) > 6 or length(phi) > 3 or length(psi) > 3:
            continue
        pairs += 1
        vs, es = shuffle_graph(sig, phi, psi)
        for e in es:
            step = interp_edge(sig, e, phi, psi)
            assert sig.step_source(step) == interp_vertex(sig, e.source, 1, 1, phi, psi)
            assert sig.step_target(step) == interp_vertex(sig, e.target, 1, 1, phi, psi)
            assert isinstance(step.inner, Interchanger)
    assert pairs >= 10


def test_sigma_path_length_and_big_x(tau_world):
    sig, phi = tau_world
    edges = sigma_path(sig, phi, phi)
    assert len(edges) == length(phi) * length(phi)
    X = big_x(sig, phi, phi)
    sig.check3(X)
    assert length(X) == 4
    # boundary shape of the composite exchange
    src = X.source2
    assert src == sig.compose(
        sig.compose(phi, sig.source(phi), 0), sig.compose(sig.target(phi), phi, 0), 1
    )
    assert sig.target(X) == sig.compose(
        sig.compose(sig.source(phi), phi, 0), sig.compose(phi, sig.target(phi), 0), 1
    )
    for step in X.steps:
        assert step.inner == Interchanger("tau", OneCell("x", ()), "tau")


def test_big_x_identity_side_has_no_steps(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    ident = sig.id2(sig.make1("x", ("a",)))
    assert length(big_x(sig, ident, mu)) == 0
    assert length(big_x(sig, mu, ident)) == 0


def test_big_x_whisker_compatibility(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    done = 0
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=2)
        psi = random_two_cell(sig, rng, rows=2)
        if length(phi) == 0 or length(psi) == 0:
            continue
        done += 1
        l = sig.make1("x", ("a",))
        m = sig.make1("x", ("a",))
        r = sig.make1("x", ("a",))
        assert big_x(sig, sig.compose(l, phi, 0), psi) == sig.compose(l, big_x(sig, phi, psi), 0)
        assert big_x(sig, sig.compose(phi, m, 0), psi) == big_x(sig, phi, sig.compose(m, psi, 0))
        assert big_x(sig, phi, sig.compose(psi, r, 0)) == sig.compose(big_x(sig, phi, psi), r, 0)
    assert done >= 10


def test_parallel_paths_share_interpreted_boundaries(tau_world):
    sig, phi = tau_world
    vs, es = shuffle_graph(sig, phi, phi)
    # group parallel edge-paths by endpoints via exhaustive simple paths
    def paths_from(v, limit=6):
        out = [[]]
        frontier = [(v, [])]
        while frontier:
            cur, acc = frontier.pop()
            if acc:
                out.append(acc)
            if len(acc) >= limit:
                continue
            for e in word_edges(cur):
                frontier.append((e.target, acc + [e]))
        return out

    for v in vs:
        by_target = {}
        for path in paths_from(v):
            tgt = path[-1].target if path else v
            by_target.setdefault(tgt, []).append(path)
        for tgt, paths in by_target.items():
            lens = {len(p) for p in paths}
            assert len(lens) == 1
            for p in paths:
                if not p:
                    continue
                first = interp_vertex(sig, v, 1, 1, phi, phi)
                last = interp_vertex(sig, tgt, 1, 1, phi, phi)
                assert sig.step_source(interp_edge(sig, p[0], phi, phi)) == first
                assert sig.step_target(interp_edge(sig, p[-1], phi, phi)) == last


def test_shuffle_size_cap(tau_world):
    sig, phi = tau_world
    seven = sig.compose(sig.compose(phi, phi, 1), sig.compose(phi, sig.gen2_cell("tau"), 1), 1)
    with pytest.raises(ShuffleError):
        shuffle_graph(sig, seven, seven)


def test_interchanger_boundaries_example(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    src, tgt = sig.interchanger_boundaries("mu", sig.id1("x"), "mu")
    rows = [(len(w.left.word), w.gen, len(w.right.word)) for w in src.whiskers]
    assert rows == [(0, "mu", 2), (1, "mu", 0)]
    rows = [(len(w.left.word), w.gen, len(w.right.word)) for w in tgt.whiskers]
    assert rows == [(2, "mu", 0), (0, "mu", 1)]
    assert length(src) == length(tgt) == 2
    assert sig.source(src) == sig.source(tgt)
    assert sig.target(src) == sig.target(tgt)


MALFORMED = {
    "edge past the last l row": lambda sig, eta, eps: interp_edge(sig, ShuffleEdge((), 3, 1, ()), eta, eta),
    "letter past the last l row": lambda sig, eta, eps: interp_vertex(sig, (("l", 2),), 2, 1, eta, eta),
    "start past the last l row": lambda sig, eta, eps: interp_vertex(sig, (), 3, 1, eta, eta),
    "unknown letter": lambda sig, eta, eps: interp_vertex(sig, (("x", 1),), 1, 1, eta, eta),
    "big_x of cells that are not 0-composable": lambda sig, eta, eps: big_x(sig, eta, eps),
    "inv of an unknown letter": lambda sig, eta, eps: inv((("x", 1), ("r", 1))),
    "lindex of an unknown letter": lambda sig, eta, eps: lindex((("l", 1), ("x", 1)), 1),
    "path_exists of an unknown letter": lambda sig, eta, eps: path_exists(
        (("l", 1), ("x", 1)), (("x", 1), ("l", 1))
    ),
    "word_edges of an unknown letter": lambda sig, eta, eps: word_edges((("l", 1), ("x", 1))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_shuffle_error(pseudoadjunction, case):
    sig = pseudoadjunction.presentation.sig
    with pytest.raises(ShuffleError):
        MALFORMED[case](sig, sig.gen2_cell("eta"), sig.gen2_cell("eps"))
