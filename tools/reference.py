"""The independent oracles of the tests, each written once.

Each oracle computes from the definitions what graypol computes fast:
redexes by trying every splitting of a cell, minimality by every context
peel, natural branchings built from the definition, step sides and
interpretations by the plain cell algebra, lowest-first paths by full
scans, expression normal forms by their whole closure, and string diagram
components by graph search.  No oracle calls a private helper of the code
it checks.  The two rotation oracles of the enumeration derive a mirror
case from a plain one that the test passes in, so they check the
symmetry; the plain case has its brute-force oracle.

The tests import this module as ``reference`` (``tools`` is on pytest's
``pythonpath``), as they import the generated inputs from ``inputs``.
"""

import itertools

from graypol import (
    AffineMap,
    Branching,
    CellError,
    Critical,
    EGen,
    EId,
    ELowL,
    ELowR,
    ETop,
    Independent,
    Interchanger,
    Natural,
    NonMinimal,
    OneCell,
    OpGen,
    QInterchanger,
    ShuffleEdge,
    Trivial,
    branching_key,
    classify,
    find_redexes,
    interp_edge,
    length,
    reducts,
)
from graypol.cells import Step, TwoCell, Whisker2, slice2
from graypol.rewriting import canonical_branching, rotate_branching

from inputs import enumerate_two_cells

# ---------------------------------------------------------------- cells


def unpad1(sig, u, nl, nr):
    """``u`` without its first ``nl`` and last ``nr`` letters."""
    return OneCell(sig.end0(OneCell(u.start, u.word[:nl])), u.word[nl : len(u.word) - nr])


def strip_cell(sig, phi, nl, nr):
    """``phi`` without ``nl`` / ``nr`` outer letters in its source and in every row's contexts."""
    rows = tuple(Whisker2(unpad1(sig, w.left, nl, 0), w.gen, unpad1(sig, w.right, 0, nr)) for w in phi.whiskers)
    return TwoCell(unpad1(sig, phi.source1, nl, nr), rows)


def composed_side(sig, s, side):
    """``lam *1 (left *0 side *0 right) *1 rho`` for step ``s``, built by ``compose`` and ``whisker0``."""
    return sig.compose(sig.compose(s.lam, sig.whisker0(s.left, side, s.right), 1), s.rho, 1)


def rewrap_step(sig, lam, left, right, rho, s):
    """Step ``s`` put back into the context ``(lam, left, right, rho)``."""
    return Step(
        sig.compose(lam, sig.whisker0(left, s.lam, right), 1),
        sig.compose(left, s.left, 0),
        s.inner,
        sig.compose(s.right, right, 0),
        sig.compose(sig.whisker0(left, s.rho, right), rho, 1),
    )


# ---------------------------------------------------------------- redexes and classes


def oracle_redexes(pres, phi):
    """Enumerate every (rows, l, r) splitting and keep exact matches.

    The interchangers are those the mode rewrites: in Gray mode every
    ``Interchanger``, in q mode the ``QInterchanger`` of each oriented rule.
    """
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
    # Gray mode rewrites every interchanger forward, q mode only its oriented
    # rules; both shapes have the level l * src alpha * mid * src beta * r on top
    if pres.qmode is None:
        rules = [(alpha, beta, None) for alpha in sig.two for beta in sig.two]
    else:
        rules = pres.qmode.rules
    for t in range(n - 1):
        for alpha, beta, rev in rules:
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
                            a = len(sig.src1(alpha).word)
                            mid = OneCell(
                                sig.end0(sig.compose(l, sig.src1(alpha), 0)),
                                level.word[cut + a : cut + a + mid_len],
                            )
                            if rev is None:
                                inst = Interchanger(alpha, mid, beta)
                            else:
                                inst = QInterchanger(alpha, mid, beta, rev)
                            cand = sig.whisker0(l, sig.inst_source(inst), r)
                        except Exception:
                            continue
                        if cand == window:
                            out.add(Step(slice2(sig, phi, 0, t), l, inst, r, slice2(sig, phi, t + 2, n)))
    return out


def oracle_minimal(pres, b):
    """Quantify over all context peels of both steps."""
    sig = pres.sig
    s1, s2 = b.s1, b.s2
    phi = sig.step_source(s1)
    n = length(phi)
    for tl in range(n + 1):
        for tr in range(n - tl + 1):
            mid = slice2(sig, phi, tl, n - tr)
            mlevel = sig.source(mid)
            for nl in range(len(mlevel.word) + 1):
                for nr in range(len(mlevel.word) - nl + 1):
                    if tl == 0 and tr == 0 and nl == 0 and nr == 0:
                        continue
                    if all(peel_step(sig, s, tl, tr, nl, nr) is not None for s in (s1, s2)):
                        return False
    return True


def strip_step(sig, s, t_lam, t_rho, nl, nr):
    """Remove ``t_lam``/``t_rho`` outer rows and ``nl``/``nr`` outer letters, part by part."""
    lam = strip_cell(sig, slice2(sig, s.lam, t_lam, length(s.lam)), nl, nr)
    rho = strip_cell(sig, slice2(sig, s.rho, 0, length(s.rho) - t_rho), nl, nr)
    return Step(lam, unpad1(sig, s.left, nl, 0), s.inner, unpad1(sig, s.right, 0, nr), rho)


def peel_step(sig, s, tl, tr, nl, nr):
    """``s`` without ``tl``/``tr`` outer rows and ``nl``/``nr`` outer letters, or
    ``None`` when what is left is no step that re-wraps to ``s``."""
    if length(s.lam) < tl or length(s.rho) < tr:
        return None
    if len(s.left.word) < nl:
        return None
    if len(s.right.word) < nr:
        return None
    try:
        inner = strip_step(sig, s, tl, tr, nl, nr)
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
        rebuilt = rewrap_step(sig, lam, lw, rw, rho, inner)
    except Exception:
        return None
    if rebuilt != s:
        return None
    return inner


def oracle_independent(pres, b):
    """Whether the source of ``b`` is one step's window, a 2-cell, then the other step's window."""
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


def window_above_branchings(sig, cells):
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
        for inst in instances_at(sig, top):
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


def instances_at(sig, top):
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

    The window-on-top pattern of ``window_above_branchings`` in both
    orders; the mirror image, with the window at the bottom, is the same
    pattern built over the rotated signature on the rotated cells,
    rotated back.
    """
    if pres.qmode is not None:
        return set()
    sig = pres.sig
    rsig = sig.rotated()
    out = window_above_branchings(sig, cells)
    mirrored = window_above_branchings(rsig, [sig.rotate(c) for c in cells])
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
    """The class ``classify`` gives ``b``, spelt as ``oracle_classify`` spells it."""
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


def natural_match(sig, s_op, s_x):
    """Reference copy of the former naturality rule, the generator window on top.

    The pair is natural when ``s_x`` is the interchanger step that
    ``interp_edge`` builds to slide the window's last row down past the
    2-cell below it, that 2-cell stripped of the window's target on the
    left.
    """
    phi_a = sig.inst_source(s_op.inner)
    k = length(phi_a)
    if k == 0 or length(s_op.lam) or s_op.left.word or length(s_x.lam) != k - 1:
        return False
    word, rho = sig.target(phi_a).word, s_op.rho
    if rho.source1.word[: len(word)] != word or any(w.left.word[: len(word)] != word for w in rho.whiskers):
        return False
    psig = strip_cell(sig, rho, len(word), 0)
    if length(psig) < 1:
        return False
    edge = ShuffleEdge(
        tuple(("l", i) for i in range(1, k)), k, 1, tuple(("r", j) for j in range(2, length(psig) + 1))
    )
    try:
        return interp_edge(sig, edge, phi_a, psig) == s_x
    except CellError:
        return False


def is_natural_unfiltered(pres, b):
    """The former ``is_natural``: ``natural_match`` on ``b`` and on its rotation, in either order."""
    if pres.qmode is not None:
        return False
    sig = pres.sig
    for s_op, s_x in ((b.s1, b.s2), (b.s2, b.s1)):
        if not isinstance(s_x.inner, Interchanger):
            continue
        if natural_match(sig, s_op, s_x) or natural_match(pres.rotated.sig, sig.rotate(s_op), sig.rotate(s_x)):
            return True
    return False


# ---------------------------------------------------------------- enumeration


def typed_interchangers_above(sig, name):
    """The interchangers whose lower row can be the first row of the window
    of ``name``, built for every 2-generator and kept when they type.

    Each is ``X(alpha, mid, beta)``: ``beta`` the first row's generator,
    ``mid`` a strict suffix of that row's left context, the shortest first,
    starting where ``alpha``'s target ends, and ``alpha`` every 2-generator
    in declaration order.
    """
    first = sig.gen3_source(name).whiskers[0]
    lw = first.left.word
    out = []
    for cut in range(len(lw)):
        for alpha in sig.two:
            x = Interchanger(alpha, OneCell(sig.end0(sig.tgt1(alpha)), lw[len(lw) - cut :]), first.gen)
            try:
                sig.inst_source(x)
            except CellError:
                continue
            out.append(x)
    return out


# ---------------------------------------------------------------- enumeration by rotation


def rotated_family(pres, family, name):
    """The candidate branchings ``family(pres, name)`` on ``pres.rotated``,
    each rotated back whole: the mirror image of ``family``."""
    rot = pres.rotated
    return [rotate_branching(rot.sig, b) for b in family(rot, name)]


# ---------------------------------------------------------------- paths


def lowest_first_path(pres, phi, budget=None):
    """The lowest-redex-first path from ``phi``, each step the first redex of a
    full scan, until no redex is left or ``budget`` steps are taken (no bound
    when ``None``): its steps and every cell it reaches, ``phi`` and the last
    one included."""
    steps, cells = [], [phi]
    while budget is None or len(steps) < budget:
        redexes = find_redexes(pres, cells[-1])
        if not redexes:
            break
        steps.append(redexes[0])
        cells.append(pres.sig.step_target(redexes[0]))
    return steps, cells


def lowest_redexes(steps, k):
    """The steps of ``steps`` whose ``lam`` has the fewest rows among those with at
    least ``k``: what a scan resumed at row ``k`` returns."""
    rows = [length(s.lam) for s in steps if length(s.lam) >= k]
    return [s for s in steps if rows and length(s.lam) == min(rows)]


# ---------------------------------------------------------------- expressions


def two_cell_to_expr(sig, phi):
    """Whisker-by-whisker expression denoting a 2-cell."""
    if not phi.whiskers:
        return EId(phi.source1)
    parts = []
    for w in phi.whiskers:
        core = EGen(2, w.gen)
        if w.right.word:
            core = ELowR(0, core, w.right)
        if w.left.word:
            core = ELowL(0, w.left, core)
        parts.append(core)
    expr = parts[-1]
    for p in reversed(parts[:-1]):
        expr = ETop(p, expr)
    return expr


def reachable_normal_forms(sig, expr, cap):
    """The normal forms of every rewrite sequence from ``expr``, by its whole closure;
    fails as soon as more than ``cap`` expressions have been seen."""
    seen = {expr}
    stack = [expr]
    normals = set()
    while stack:
        cur = stack.pop()
        options = reducts(sig, cur)
        if not options:
            normals.add(cur)
            continue
        for nxt in options:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
                if len(seen) > cap:
                    raise AssertionError("closure blew past the cap")
    return normals


# ---------------------------------------------------------------- termination


def block_composite(interp, phi, width):
    """``eval_interpretation`` as a product of block-sum matrices, one per row."""

    def after(f, g):
        mat = tuple(
            tuple(sum(f.matrix[i][k] * g.matrix[k][j] for k in range(g.n)) for j in range(g.m))
            for i in range(f.n)
        )
        cst = tuple(sum(f.matrix[i][k] * g.const[k] for k in range(g.n)) + f.const[i] for i in range(f.n))
        return AffineMap(g.m, mat, cst)

    acc = AffineMap.identity(width)
    for w in phi.whiskers:
        f = interp.maps[w.gen]
        p, q = interp.word_weight(w.left), interp.word_weight(w.right)
        total = p + f.m + q
        rows = [tuple(int(j == i) for j in range(total)) for i in range(p)]
        rows += [(0,) * p + row + (0,) * q for row in f.matrix]
        rows += [tuple(int(j == p + f.m + i) for j in range(total)) for i in range(q)]
        acc = after(AffineMap(total, tuple(rows), (0,) * p + f.const + (0,) * q), acc)
    return acc


def components_by_search(sig, phi):
    """Boundary partition and floating count of ``phi``'s string diagram, by graph search.

    The nodes are the source wires, one node per row and the wires each
    row writes; a row's node is adjacent to the wires it reads and writes.
    """
    adjacent = {("src", i): set() for i in range(len(phi.source1.word))}
    level = list(adjacent)
    for r, w in enumerate(phi.whiskers):
        node = ("gen", r)
        p, k = len(w.left.word), len(sig.src1(w.gen).word)
        written = [("wire", r, j) for j in range(len(sig.tgt1(w.gen).word))]
        adjacent[node] = set(level[p : p + k]) | set(written)
        for x in level[p : p + k]:
            adjacent[x].add(node)
        for x in written:
            adjacent[x] = {node}
        level[p : p + k] = written
    component = {}
    for start in adjacent:
        if start in component:
            continue
        component[start] = start
        todo = [start]
        while todo:
            for y in adjacent[todo.pop()]:
                if y not in component:
                    component[y] = start
                    todo.append(y)
    boundary = [component[("src", i)] for i in range(len(phi.source1.word))] + [component[x] for x in level]
    labels = {}
    for c in boundary:
        labels.setdefault(c, len(labels))
    m = len(phi.source1.word)
    floating = len(set(component.values()) - set(labels))
    return tuple(labels[c] for c in boundary[:m]), tuple(labels[c] for c in boundary[m:]), floating


def bounded_closed_diagram_search(sig, depth=4):
    """Reference copy of the former check: a cap whose target rewrites to a
    cup's source within ``depth`` rounds, through 1-cells of at most
    ``depth + 2`` letters."""
    caps = [g for g, (s, _) in sig.two.items() if not s.word]
    cups = [g for g, (_, t) in sig.two.items() if not t.word]
    for cap in caps:
        for cup in cups:
            goal, frontier = sig.src1(cup), [sig.tgt1(cap)]
            seen = set(frontier)
            for _ in range(depth):
                nxt = []
                for u in frontier:
                    if u == goal:
                        return f"{cap} feeds {cup}"
                    for gs, gt in sig.two.values():
                        for cut in range(len(u.word) + 1):
                            pre = OneCell(u.start, u.word[:cut])
                            if sig.end0(pre) != gs.start or u.word[cut : cut + len(gs.word)] != gs.word:
                                continue
                            v = OneCell(u.start, pre.word + gt.word + u.word[cut + len(gs.word) :])
                            if len(v.word) <= depth + 2 and v not in seen:
                                seen.add(v)
                                nxt.append(v)
                frontier = nxt
    return None
