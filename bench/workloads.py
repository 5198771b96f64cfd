"""The three benchmark workloads and the checks on their outputs.

A workload builds its static state once (outside every timing), then
hands out rounds of inputs.  Round ``r`` depends only on the seed and
``r``, so a traced run can replay exactly the rounds an untraced run
measured.  ``op`` is the timed unit; everything else runs outside the
timed region.  Functions of the program are always looked up through
their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil

from graypol import catalog, cells, cli, coherence, rewriting, termination, textio
from graypol.cells import OneCell, Signature, TwoCell, Whisker2
from graypol.presentation import GrayPresentation, QMode

import expected


def _rng(workload, seed, r):
    # str seeds are hashed with sha512, so PYTHONHASHSEED does not matter
    return random.Random(f"{workload}:{seed}:{r}")


def cell_key(phi: TwoCell):
    """Structural value of a 2-cell, independent of the program's renderers."""
    return (
        phi.source1.start,
        phi.source1.word,
        tuple((w.left.start, w.left.word, w.gen, w.right.word) for w in phi.whiskers),
    )


# ---------------------------------------------------------------- cell generators


def words_from(sig: Signature, start: str, max_len: int):
    """Every composable word of at most ``max_len`` letters starting at ``start``."""
    out = [OneCell(start, ())]
    frontier = out[:]
    for _ in range(max_len):
        frontier = [
            OneCell(u.start, u.word + (g,))
            for u in frontier
            for g, (s, _) in sig.one.items()
            if s == sig.end0(u)
        ]
        out.extend(frontier)
    return out


def _whisker_options(sig: Signature, level: OneCell):
    """Every way to apply one 2-generator below ``level``: ``(gen, left, right)``."""
    points = [level.start]
    for g in level.word:
        points.append(sig.one[g][1])
    w = level.word
    out = []
    for gen, (src, _) in sig.two.items():
        n = len(src.word)
        for cut in range(len(w) - n + 1):
            if w[cut : cut + n] == src.word and points[cut] == src.start:
                out.append((gen, OneCell(level.start, w[:cut]), OneCell(points[cut + n], w[cut + n :])))
    return out


def enumerate_two_cells(sig: Signature, max_rows: int, starts):
    """All whisker chains of at most ``max_rows`` rows over the given source 1-cells."""
    out = []
    frontier = [TwoCell(u, ()) for u in starts]
    out.extend(frontier)
    for _ in range(max_rows):
        nxt = []
        for cell in frontier:
            level = sig.target(cell)
            for gen, left, right in _whisker_options(sig, level):
                nxt.append(TwoCell(cell.source1, cell.whiskers + (Whisker2(left, gen, right),)))
        out.extend(nxt)
        frontier = nxt
    return out


def random_two_cell(sig: Signature, rng: random.Random, rows: int) -> TwoCell:
    """Random whisker chain of exactly ``rows`` rows; restarts at dead ends."""
    while True:
        start = rng.choice(sig.zero)
        level = rng.choice(words_from(sig, start, 4))
        source, whiskers = level, []
        while len(whiskers) < rows:
            options = _whisker_options(sig, level)
            if not options:
                break
            gen, left, right = rng.choice(options)
            whiskers.append(Whisker2(left, gen, right))
            level = OneCell(level.start, left.word + sig.tgt1(gen).word + right.word)
        if len(whiskers) == rows:
            return TwoCell(source, tuple(whiskers))


def left_comb(n: int) -> TwoCell:
    """``n`` multiplications of the pseudomonoid, each on the leftmost two wires."""
    x = "x"
    rows = tuple(Whisker2(OneCell(x, ()), "mu", OneCell(x, ("a",) * (n - 1 - i))) for i in range(n))
    return TwoCell(OneCell(x, ("a",) * (n + 1)), rows)


def right_comb(n: int) -> TwoCell:
    x = "x"
    rows = tuple(Whisker2(OneCell(x, ("a",) * (n - 1 - i)), "mu", OneCell(x, ())) for i in range(n))
    return TwoCell(OneCell(x, ("a",) * (n + 1)), rows)


def random_presentation(rng: random.Random, name: str, objects: int, n2: int, n3: int) -> GrayPresentation:
    """Random Gray presentation with ``objects`` 0-generators (1 or 2),
    ``n2`` 2-generators and at most ``n3`` 3-generators.

    2-generator boundaries have 0-2 letters, so caps (empty source) and
    cups (empty target) occur; a cap and a cup sometimes switch on the
    self-duality (q) mode.  3-generators join parallel 2-cells of at most
    two rows and are mostly positive, occasionally with an identity
    source, which makes critical-pair enumeration refuse.
    """
    if objects == 2:
        zero, one = ["x", "y"], [("f", "x", "y"), ("g", "y", "x")]
    else:
        zero, one = ["x"], [("a", "x", "x")] + ([("b", "x", "x")] if rng.random() < 0.3 else [])
    sig01 = Signature(zero, one)
    words = {x: words_from(sig01, x, 2) for x in zero}
    two = []
    for i in range(n2):
        start = rng.choice(zero)
        nonempty = [u for u in words[start] if u.word]
        src = OneCell(start, ()) if rng.random() < 0.2 else rng.choice(nonempty)
        end = sig01.end0(src)
        targets = [u for u in nonempty if sig01.end0(u) == end]
        if src.word and end == start and rng.random() < 0.25:
            tgt = OneCell(start, ())
        else:
            tgt = rng.choice(targets)
        two.append((f"p{i}", src, tgt))
    sig012 = Signature(zero, one, two)
    starts = [u for x in zero for u in words[x]]
    candidates = [c for c in enumerate_two_cells(sig012, 2, starts) if len(c.whiskers) <= 2]
    groups = {}
    for c in candidates:
        groups.setdefault((c.source1, sig012.target(c)), []).append(c)
    rng.shuffle(candidates)
    three = []
    for c in candidates:
        if len(three) >= n3:
            break
        if not c.whiskers and rng.random() > 0.1:
            continue
        partners = [d for d in groups[(c.source1, sig012.target(c))] if d != c]
        if not partners:
            continue
        d = rng.choice(partners)
        if len(d.whiskers) > len(c.whiskers) and rng.random() < 0.6:
            c, d = d, c
        three.append((f"T{len(three)}", c, d))
    caps = [g for g, s, _ in two if not s.word]
    cups = [g for g, _, t in two if not t.word]
    qmode = None
    if caps and cups and rng.random() < 0.5:
        qmode = QMode(rng.choice(caps), rng.choice(cups))
    return GrayPresentation(name, Signature(zero, one, two, three), (), qmode)


# ---------------------------------------------------------------- normalize


class Normalize:
    """``normalize2`` on left combs and random cells of 24 and 48 whiskers."""

    name = "normalize"
    PRESENTATIONS = ("pseudomonoid", "pseudoadjunction", "selfduality-q", "frobenius")
    # Budget for presentations whose termination is refused.
    REFUSED_BUDGET = 5000
    # Cells drawn per size and round.  Frobenius cells vary most in cost
    # per step, and its two classes set the p90, so they get two draws.
    DRAWS = {"frobenius": 2}

    def __init__(self, root, seed, smoke):
        self.seed = seed
        self.combs = (5,) if smoke else (16, 24)
        self.sizes = (6,) if smoke else (24, 48)
        self.targets = {}
        for name in self.PRESENTATIONS:
            entry = catalog.get_builtin(name)
            try:
                cert = termination.certify_termination(entry.presentation, None, entry.interpretation)
            except termination.TerminationRefused:
                cert = None
            self.targets[name] = (entry.presentation, cert)

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        inputs = [("pseudomonoid", n, left_comb(n)) for n in self.combs]
        for name in self.PRESENTATIONS:
            sig = self.targets[name][0].sig
            for size in self.sizes:
                for _ in range(self.DRAWS.get(name, 1)):
                    inputs.append((name, None, random_two_cell(sig, rng, size)))
        return inputs

    def op(self, inp):
        name, _, phi = inp
        pres, cert = self.targets[name]
        return coherence.normalize2(pres, phi, cert, None if cert else self.REFUSED_BUDGET)

    def work(self, out):
        return len(out[1].steps)

    def klass(self, inp):
        """Input class: a comb size, or a presentation and a whisker count.

        Cells of one class cost alike per step; across classes the cost
        differs several-fold.  So the end-to-end metrics of this workload
        are taken per class (see ``run.end_to_end``): a run holds only
        five to ten cells of each class, and percentiles over single cells
        would mostly measure which random cells a seed drew.
        """
        name, comb, phi = inp
        return (name, "comb", comb) if comb else (name, len(phi.whiskers))

    def check(self, results):
        failures = []
        for res in results:
            if res.error:
                continue
            name, comb, phi = res.inp
            pres = self.targets[name][0]
            nf, path = res.out
            try:
                pres.sig.check3(path)
                replays = path.source2 == phi and pres.sig.target(path) == nf
            except cells.CellError:
                replays = False
            if not replays:
                failures.append(f"{name}: path does not replay from the input to the normal form")
            elif rewriting.find_redexes(pres, nf):
                failures.append(f"{name}: normal form still has redexes")
            elif comb and (len(path.steps) != comb * (comb - 1) // 2 or nf != right_comb(comb)):
                failures.append(f"{comb}-comb: {len(path.steps)} steps, expected the right comb")
        return failures, 0

    def counts(self, results):
        out = {"cells": len(results), "steps": 0}
        for res in results:
            if not res.error:
                out["steps"] += len(res.out[1].steps)
        return out

    def digest_items(self, results):
        return [(r.inp[0], r.error or (cell_key(r.out[0]), len(r.out[1].steps))) for r in results]


# ---------------------------------------------------------------- sweep


class Sweep:
    """Every small 2-cell: redexes, then ``classify`` on every ordered pair."""

    name = "sweep"

    def __init__(self, root, seed, smoke):
        self.seed = seed
        self.sets = expected.SWEEP_SMOKE if smoke else expected.SWEEP
        self.press = {}
        self.cells = []
        for name, spec in self.sets.items():
            pres = catalog.get_builtin(name).presentation
            self.press[name] = pres
            starts = [u for x in pres.sig.zero for u in words_from(pres.sig, x, spec["letters"])]
            for phi in enumerate_two_cells(pres.sig, spec["rows"], starts):
                self.cells.append((name, phi))

    def round(self, r):
        order = self.cells[:]
        _rng(self.name, self.seed, r).shuffle(order)
        return order

    def op(self, inp):
        name, phi = inp
        pres = self.press[name]
        steps = rewriting.find_redexes(pres, phi)
        classes, keys = [], []
        for s1, s2 in itertools.product(steps, steps):
            b = rewriting.Branching(s1, s2)
            cls = type(rewriting.classify(pres, b)).__name__
            classes.append(cls)
            if cls == "Critical":
                keys.append(rewriting.branching_key(rewriting.canonical_branching(b)))
        return len(steps), classes, keys

    def work(self, out):
        return len(out[1])

    def _tallies(self, results):
        tallies = {name: {"cells": 0, "redexes": 0} for name in self.sets}
        keys = {name: set() for name in self.sets}
        for res in results:
            if res.error:
                continue
            name = res.inp[0]
            n, classes, found = res.out
            tally = tallies[name]
            tally["cells"] += 1
            tally["redexes"] += n
            for cls in classes:
                tally[cls] = tally.get(cls, 0) + 1
            keys[name].update(found)
        return tallies, keys

    def check(self, results):
        """Tallies and critical keys of one round, a complete pass over the cells."""
        failures = []
        tallies, keys = self._tallies(results)
        for name, spec in self.sets.items():
            if tallies[name] != spec["tally"]:
                failures.append(f"{name}: tallies {tallies[name]} != {spec['tally']}")
            pres = self.press[name]
            listed = set()
            for cb in rewriting.enumerate_critical(pres):
                src = pres.sig.step_source(cb.branching.s1)
                if len(src.whiskers) <= spec["rows"] and len(src.source1.word) <= spec["letters"]:
                    listed.add(cb.key)
            if keys[name] != listed or len(listed) != spec["keys"]:
                failures.append(f"{name}: critical keys differ from enumerate_critical")
        return failures, 2 * len(self.sets)

    def counts(self, results):
        return self._tallies(results)[0]

    def digest_items(self, results):
        tallies, keys = self._tallies(results)
        return [(name, sorted(tallies[name].items()), sorted(keys[name])) for name in self.sets]


# ---------------------------------------------------------------- pipeline


def catalog_sources(root):
    """The five builtins and the five shipped presentation files."""
    return [f"builtin:{n}" for n in catalog.BUILTIN_NAMES] + [
        os.path.join(root, "presentations", f"{n}.gray") for n in catalog.BUILTIN_NAMES
    ]


def run_commands(source):
    """``(exit code, stdout, stderr)`` of each pipeline command on ``source``."""
    out = []
    for command in Pipeline.COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command[0], source, *command[1:]])
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out




class Pipeline:
    """Whole presentations through ``graypol.cli.main``, four commands each."""

    name = "pipeline"
    # Passed to ``report`` only: ``critical-pairs`` reads --max-steps as
    # its candidate budget.
    MAX_STEPS = 30
    # Random presentations per round: every (0-, 2-, 3-generator count)
    # shape equally often, since the cost of a verdict grows with them.
    SHAPES = tuple((objects, n2, n3) for objects in (1, 2) for n2 in (1, 2, 3) for n3 in (1, 2, 3))
    COMMANDS = (
        ("validate",),
        ("critical-pairs",),
        ("check-termination",),
        ("report", "--format", "json", "--max-steps", str(MAX_STEPS)),
    )

    def __init__(self, root, seed, smoke):
        self.seed = seed
        self.root = root
        self.random_per_round = 3 if smoke else 2 * len(self.SHAPES)
        self.catalog = catalog_sources(root)
        self.workdir = os.path.join(root, "bench", "out", f"work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        inputs = [(src, expected.catalog_key(src), None) for src in self.catalog]
        for i in range(self.random_per_round):
            shape = self.SHAPES[i % len(self.SHAPES)]
            pres = random_presentation(rng, f"random-{self.seed}-{r}-{i}", *shape)
            path = os.path.join(self.workdir, f"{r}-{i}.gray")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(textio.serialize_presentation(pres))
            inputs.append((path, None, pres))
        return inputs

    def op(self, inp):
        return run_commands(inp[0])

    def work(self, out):
        return 1

    @staticmethod
    def summary(out):
        """What the four commands answered: exit codes, count, strategy, report."""
        (v, _, _), (c, cp, _), (t, ct, _), (r, rp, _) = out
        count = int(cp.split("\n", 1)[0].rsplit(":", 1)[1]) if c == 0 else None
        strategy = ct.split("certified via ", 1)[1].split()[0] if t == 0 else None
        report = json.loads(rp) if rp.strip() else None
        return (v, c, t, r), count, strategy, report

    def outcome(self, out):
        codes, count, strategy, report = self.summary(out)
        if codes[1] != 0:
            return "enumeration_refused"
        if strategy is not None:
            return "certified"
        if report is not None and all(b["joinable"] for b in report["branchings"]):
            return "refused_joinable"
        return "refused_unjoined"

    def check(self, results):
        failures = []
        for name in catalog.BUILTIN_NAMES:
            with open(os.path.join(self.root, "presentations", f"{name}.gray"), encoding="utf-8") as handle:
                parsed = textio.parse_presentation(handle.read())
            if parsed != catalog.get_builtin(name).presentation:
                failures.append(f"{name}.gray does not parse equal to builtin:{name}")
        for res in results:
            if res.error:
                continue
            src, key, pres = res.inp
            problem = self._check_catalog(key, res.out) if key else self._check_random(src, pres, res.out)
            if problem:
                failures.append(f"{os.path.basename(src)}: {problem}")
        return failures, len(catalog.BUILTIN_NAMES)

    def _check_catalog(self, key, out):
        codes, count, strategy, report = self.summary(out)
        want = expected.CATALOG[key]
        verdict = report["verdict"] if report else None
        nbranch = len(report["branchings"]) if report else None
        got = {"codes": codes, "count": count, "strategy": strategy, "verdict": verdict, "branchings": nbranch}
        return None if got == want else f"answered {got}, expected {want}"

    def _check_random(self, src, pres, out):
        if any(code not in (0, 1) for code, _, _ in out):
            return f"exit codes {[code for code, _, _ in out]}"
        if any("Traceback" in err for _, _, err in out):
            return "traceback on stderr"
        if textio.parse_presentation(textio.serialize_presentation(pres)) != pres:
            return "serialized presentation does not parse back equal"
        codes, count, strategy, report = self.summary(out)
        if report is None:
            return None if codes[1] == 1 and codes[3] == 1 else "report printed nothing"
        if count is not None and len(report["branchings"]) != count:
            return f"report has {len(report['branchings'])} branchings, critical-pairs {count}"
        if report["new_tiles"]:
            tiles, _ = coherence.squier_completion(pres, max_steps=self.MAX_STEPS)
            if [t.name for t in tiles] != report["new_tiles"]:
                return "emitted tiles differ between runs"
            sig = pres.sig
            for tile in tiles:
                try:
                    sig.check3(tile.lhs)
                    sig.check3(tile.rhs)
                except cells.CellError as exc:
                    return f"tile {tile.name} does not type-check: {exc}"
                if sig.source(tile.lhs) != sig.source(tile.rhs) or sig.target(tile.lhs) != sig.target(tile.rhs):
                    return f"tile {tile.name} is not parallel"
        return None

    def counts(self, results):
        outcomes, exits = {}, {}
        for res in results:
            if res.error:
                continue
            if res.inp[1] is None:
                kind = self.outcome(res.out)
                outcomes[kind] = outcomes.get(kind, 0) + 1
            for code, _, _ in res.out:
                exits[str(code)] = exits.get(str(code), 0) + 1
        return {
            "presentations": len(results),
            "random_outcomes": dict(sorted(outcomes.items())),
            "exit_codes": dict(sorted(exits.items())),
        }

    def digest_items(self, results):
        return [r.error or [(code, stdout) for code, stdout, _ in r.out] for r in results]


WORKLOADS = {w.name: w for w in (Normalize, Sweep, Pipeline)}


def reach_every_layer(root):
    """The pipeline commands on every catalog source, then the smoke sweep.

    A traced run does this in its set-up, so that every traced layer is
    reached in every workload; outputs are dropped.
    """
    for source in catalog_sources(root):
        run_commands(source)
    sweep = Sweep(root, 0, True)
    for inp in sweep.round(0):
        sweep.op(inp)
