"""Cell algebra: boundaries, composition, whiskering, and the axiom suite."""

import pytest

from graypol import (
    CellError,
    CompositionError,
    Interchanger,
    OneCell,
    QInterchanger,
    Signature,
    SignatureError,
    Step,
    TwoCell,
    Whisker2,
    dim,
    find_redexes,
    length,
)
from graypol.expressions import eval_cell

from inputs import GRAY_BUILTINS, positive_presentations, random_one_cell, random_two_cell
from reference import composed_side, two_cell_to_expr

ALL_BUILTINS = GRAY_BUILTINS + ["selfduality_q"]


def _copy(sig):
    """A fresh signature equal to ``sig``, with an empty memo."""
    return Signature(
        sig.zero,
        ((g, s, t) for g, (s, t) in sig.one.items()),
        ((g, s, t) for g, (s, t) in sig.two.items()),
        ((g, s, t) for g, (s, t) in sig.three.items()),
    )


def _redexes(pres, rng, cells=25):
    """Every redex of ``cells`` random cells of 0 to 7 rows."""
    return [s for _ in range(cells) for s in find_redexes(pres, random_two_cell(pres.sig, rng, rows=rng.randrange(8)))]


def test_boundary_of_mu_whisker(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    assert sig.boundary(mu, 1, "-") == sig.make1("x", ("a", "a"))
    assert sig.boundary(mu, 1, "+") == sig.make1("x", ("a",))


def test_boundary_of_identity_one_cell(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    assert sig.boundary(sig.id1("x"), 0, "+") == "x"
    assert sig.boundary(sig.id1("x"), 0, "-") == "x"


def test_boundary_dimension_range(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    with pytest.raises(Exception):
        sig.boundary(sig.gen2_cell("mu"), 2, "-")


def test_globular_identities(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(50):
        phi = random_two_cell(sig, rng, rows=3)
        assert sig.boundary(sig.source(phi), 0, "-") == sig.boundary(sig.target(phi), 0, "-")
        assert sig.boundary(phi, 0, "-") == sig.source(phi).start


def test_target_of_random_six_whisker_vs_expression_oracle(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    checked = 0
    for _ in range(200):
        phi = random_two_cell(sig, rng, rows=6, max_pad=3)
        if length(phi) != 6:
            continue
        checked += 1
        assert sig.target(phi) == sig.whisker_target(phi.whiskers[-1])
        expr = two_cell_to_expr(sig, phi)
        assert eval_cell(sig, expr, 2) == phi
    assert checked >= 20


def test_compose_words():
    sig = Signature(zero=["x"], one=[("a", "x", "x")])
    a = sig.make1("x", ("a",))
    assert sig.compose(a, a, 0) == sig.make1("x", ("a", "a"))


def test_end0_reads_the_last_letter(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    assert sig.end0(sig.id1("y")) == "y"
    assert sig.end0(sig.make1("x", ("f",))) == "y"
    assert sig.end0(sig.make1("x", ("f", "g"))) == "x"
    with pytest.raises(SignatureError):
        sig.end0(OneCell("x", ("f", "nope")))


def test_compose_example_source_of_assoc(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    a = sig.make1("x", ("a",))
    cell = sig.compose(sig.compose(mu, a, 0), mu, 1)
    assert length(cell) == 2
    assert cell == sig.gen3_source("A")


def test_compose_mismatch_raises(pseudoadjunction):
    sig = pseudoadjunction.presentation.sig
    f = sig.make1("x", ("f",))
    with pytest.raises(CompositionError):
        sig.compose(f, f, 0)


def test_length_additive_on_top_composition(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        a = random_two_cell(sig, rng, rows=2)
        b = random_two_cell(sig, rng, rows=2, start_cell=sig.target(a))
        assert length(sig.compose(a, b, 1)) == length(a) + length(b)


def test_whisker_identity_is_noop(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    phi = random_two_cell(sig, rng, rows=3)
    l = sig.id1(sig.source(phi).start)
    r = sig.id1(sig.end0(sig.source(phi)))
    assert sig.whisker0(l, phi, r) == phi


def test_whisker_example_wire_counts(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    two = sig.make1("x", ("a", "a"))
    three = sig.make1("x", ("a",) * 3)
    w = sig.whisker0(two, mu, three)
    assert length(w) == 1
    wk = w.whiskers[0]
    assert (len(wk.left.word), wk.gen, len(wk.right.word)) == (2, "mu", 3)


def test_whisker_preserves_length(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        phi = random_two_cell(sig, rng, rows=3)
        l = random_one_cell(sig, rng, 2, start="x")
        r = random_one_cell(sig, rng, 2, start=sig.end0(sig.target(phi)))
        r = OneCell(sig.end0(sig.source(phi)), r.word)
        assert length(sig.whisker0(l, phi, r)) == length(phi)


def test_whisker_distributes_over_vertical_composite(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(30):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        c = random_two_cell(sig, rng, rows=1, start_cell=sig.target(b))
        l = random_one_cell(sig, rng, 2, start="x")
        r = OneCell(sig.end0(sig.source(a)), random_one_cell(sig, rng, 2, start="x").word)
        whole = sig.whisker0(l, sig.compose(sig.compose(a, b, 1), c, 1), r)
        parts = sig.compose(
            sig.compose(sig.whisker0(l, a, r), sig.whisker0(l, b, r), 1),
            sig.whisker0(l, c, r),
            1,
        )
        assert whole == parts


def test_equals_and_dim(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    phi = random_two_cell(sig, rng, rows=2)
    assert phi == phi
    assert dim(phi) == 2


def test_inequality_of_interleavings(pseudomonoid):
    # the two interleavings of two stacked generators differ as cells
    sig = pseudomonoid.presentation.sig
    mu = sig.gen2_cell("mu")
    two = sig.make1("x", ("a", "a"))
    left_first = sig.compose(sig.compose(mu, two, 0), sig.compose(sig.make1("x", ("a",)), mu, 0), 1)
    right_first = sig.compose(sig.compose(two, mu, 0), sig.compose(mu, sig.make1("x", ("a",)), 0), 1)
    assert sig.source(left_first) == sig.source(right_first)
    assert sig.target(left_first) == sig.target(right_first)
    assert left_first != right_first


# ---- precategory axiom suite on random composable cells ----------


def test_axiom_unitality(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=2)
        assert sig.compose(sig.id2(sig.source(phi)), phi, 1) == phi
        assert sig.compose(phi, sig.id2(sig.target(phi)), 1) == phi


def test_axiom_associativity_vertical(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        c = random_two_cell(sig, rng, rows=1, start_cell=sig.target(b))
        assert sig.compose(sig.compose(a, b, 1), c, 1) == sig.compose(a, sig.compose(b, c, 1), 1)


def test_axiom_associativity_whiskering(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        phi = random_two_cell(sig, rng, rows=2)
        u = random_one_cell(sig, rng, 2, start="x")
        v = random_one_cell(sig, rng, 2, start="x")
        lhs = sig.compose(u, sig.compose(v, phi, 0), 0)
        rhs = sig.compose(sig.compose(u, v, 0), phi, 0)
        assert lhs == rhs


def test_axiom_distributivity(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        u = random_one_cell(sig, rng, 2, start="x")
        lhs = sig.compose(u, sig.compose(a, b, 1), 0)
        rhs = sig.compose(sig.compose(u, a, 0), sig.compose(u, b, 0), 1)
        assert lhs == rhs


def test_axiom_boundary_compatibility(pseudomonoid, rng):
    sig = pseudomonoid.presentation.sig
    for _ in range(40):
        a = random_two_cell(sig, rng, rows=1)
        b = random_two_cell(sig, rng, rows=1, start_cell=sig.target(a))
        ab = sig.compose(a, b, 1)
        assert sig.source(ab) == sig.source(a)
        assert sig.target(ab) == sig.target(b)


def test_step_and_three_cell_composition(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    from graypol import OpGen

    cell_a = sig.gen3_cell(OpGen("A"))
    cell_l = sig.gen3_cell(OpGen("L"))
    assert length(cell_a) == 1
    # 3-cell lengths add along 2-composition
    tgt = sig.target(cell_a)
    idc = sig.identity(tgt)
    assert length(sig.compose(cell_a, idc, 2)) == 1
    whiskered = sig.whisker1(sig.id2(sig.source(sig.source(cell_a))), cell_a, sig.id2(sig.target(sig.source(cell_a))))
    assert whiskered == cell_a


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_rotation_is_an_involution(name, request, rng):
    sig = request.getfixturevalue(name).presentation.sig
    rsig = sig.rotated()
    assert sig.rotated() is rsig
    assert rsig != sig
    assert rsig.rotated() == sig
    for _ in range(30):
        u = random_one_cell(sig, rng)
        phi = random_two_cell(sig, rng, rows=rng.randrange(5))
        rphi = sig.rotate(phi)
        rsig.check2(rphi)
        assert rsig.rotate(sig.rotate(u)) == u
        assert rsig.rotate(rphi) == phi
        # both compositions are reversed: rows and words
        assert length(rphi) == length(phi)
        assert rsig.source(rphi) == sig.rotate(sig.target(phi))
        assert rsig.target(rphi) == sig.rotate(sig.source(phi))


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_rotation_keeps_interchangers_and_three_cells(name, request):
    from graypol import Interchanger, OpGen

    sig = request.getfixturevalue(name).presentation.sig
    rsig = sig.rotated()
    swaps = 0
    for gen in sig.three:
        assert rsig.inst_source(OpGen(gen)) == sig.rotate(sig.gen3_source(gen))
        assert rsig.inst_target(OpGen(gen)) == sig.rotate(sig.gen3_target(gen))
    for alpha in sig.two:
        for beta in sig.two:
            mid = sig.id1(sig.end0(sig.tgt1(alpha)))
            if mid.start != sig.src1(beta).start:
                continue
            inst = Interchanger(alpha, mid, beta)
            assert sig.rotate(inst) == Interchanger(beta, sig.rotate(mid), alpha)
            src, tgt = sig.interchanger_boundaries(alpha, mid, beta)
            assert rsig.inst_source(sig.rotate(inst)) == sig.rotate(src)
            assert rsig.inst_target(sig.rotate(inst)) == sig.rotate(tgt)
            swaps += 1
    assert swaps > 0


def _rotated_by_constructor(sig):
    """The rotation of ``sig`` built, and so checked, by the ``Signature`` constructor."""
    return Signature(
        sig.zero,
        [(name, t, s) for name, (s, t) in sig.one.items()],
        [(name, sig.rotate(t), sig.rotate(s)) for name, (s, t) in sig.two.items()],
        [(name, sig.rotate(s), sig.rotate(t)) for name, (s, t) in sig.three.items()],
    )


def _rotation_signatures():
    from graypol import BUILTIN_NAMES, get_builtin

    randoms = [pres.sig for pres in positive_presentations(20)]
    return [get_builtin(name).presentation.sig for name in BUILTIN_NAMES] + randoms


def test_rotated_signature_equals_its_checked_construction():
    # rotated() takes the rotated tables without checking them; the
    # constructor checks every side and would refuse an ill-typed one
    for sig in _rotation_signatures():
        rsig = sig.rotated()
        assert rsig == _rotated_by_constructor(sig)
        assert hash(rsig) == hash(_rotated_by_constructor(sig))
        assert rsig.rotated() == sig


def test_parser_extension_checks_only_new_names_and_parallel_sides(pseudomonoid):
    # _extended trusts the sides it is given (the parser checked them)
    sig = pseudomonoid.presentation.sig
    base = Signature(sig.zero, [(name, s, t) for name, (s, t) in sig.one.items()])
    staged = base._extended(two=[(name, s, t) for name, (s, t) in sig.two.items()])
    staged = staged._extended(three=[(name, s, t) for name, (s, t) in sig.three.items()])
    assert staged == sig and hash(staged) == hash(sig)
    assert not base.two and not base.three
    a, aa = sig.make1("x", ("a",)), sig.make1("x", ("a", "a"))
    with pytest.raises(SignatureError, match="duplicate 2-generator mu"):
        sig._extended(two=[("mu", aa, a)])
    with pytest.raises(SignatureError, match="duplicate 3-generator A"):
        sig._extended(three=[("A",) + sig.three["L"]])
    with pytest.raises(SignatureError, match="3-generator B: source and target not parallel"):
        sig._extended(three=[("B", sig.gen3_source("A"), sig.gen3_source("L"))])


@pytest.mark.parametrize("name", GRAY_BUILTINS)
def test_signature_is_immutable_and_hashed_by_value(name, request):
    sig = request.getfixturevalue(name).presentation.sig
    first = hash(sig)
    for table in (sig.one, sig.two, sig.three):
        with pytest.raises(TypeError):
            table["new"] = None
        with pytest.raises(TypeError):
            del table[next(iter(table))]
    copy = _copy(sig)
    assert copy is not sig and copy == sig
    assert hash(copy) == hash(sig) == first
    sig.rotated()
    assert hash(sig) == first
    # filling the memo of instance sides changes neither the value nor the hash
    for alpha in sig.two:
        for beta in sig.two:
            mid = sig.id1(sig.end0(sig.tgt1(alpha)))
            if mid.start == sig.src1(beta).start:
                sig.inst_boundaries(Interchanger(alpha, mid, beta))
    assert sig._sides
    assert hash(sig) == hash(copy) == first
    assert sig == copy and copy == sig
    # no attribute can be rebound or deleted, and no new one added; the hash
    # and the rotation, once computed, are not reset
    from types import MappingProxyType

    rotated = sig.rotated()
    for attr in sorted(vars(sig)) + ["extra"]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(sig, attr, MappingProxyType({}))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(sig, attr)
    for attr in ("_hash", "_rotated"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(sig, attr, None)
    assert hash(sig) == first and sig == copy
    assert sig.rotated() is rotated


def _error_text(make, *args, **kwargs):
    with pytest.raises(TypeError) as info:
        make(*args, **kwargs)
    return str(info.value)


def test_cell_classes_are_slotted_and_frozen(pseudomonoid, rng):
    """Each ``frozen_value`` class behaves as its twin, a plain frozen slotted dataclass with the same fields."""
    import copy
    import inspect
    import pickle
    from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace

    from graypol import Interchanger, OpGen, QInterchanger, Step, ThreeCell, TwoCell, Whisker2
    from graypol.cells import frozen_value
    from graypol.rewriting import Branching, CriticalBranching, NonMinimal

    sig = pseudomonoid.presentation.sig
    x, a = sig.id1("x"), sig.word1("a")
    phi = sig.gen2_cell("mu")
    step = sig.gen3_cell(OpGen("A")).steps[0]
    cells = [
        a,
        phi.whiskers[0],
        phi,
        OpGen("A"),
        Interchanger("mu", x, "mu"),
        QInterchanger("mu", x, "mu", False),
        step,
        ThreeCell(phi, ()),
        Branching(step, step),
        NonMinimal(phi, x, x, phi, Branching(step, step)),
        CriticalBranching(Branching(step, step), ("A", 0)),
    ]
    kinds = {type(c) for c in cells}
    assert kinds == {
        OneCell, Whisker2, TwoCell, OpGen, Interchanger, QInterchanger, Step, ThreeCell,
        Branching, NonMinimal, CriticalBranching,
    }
    for c in cells:
        assert not hasattr(c, "__dict__")
        for f in fields(c):
            with pytest.raises(FrozenInstanceError):
                setattr(c, f.name, getattr(c, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(c, f.name)
        # a new name has no slot; Python 3.11 reports it as a TypeError
        with pytest.raises((AttributeError, TypeError)):
            c.extra = 1

    # each field's value drawn from a small pool for its type, so that equal instances occur
    other = sig.gen3_cell(Interchanger("mu", x, "mu")).steps[0]
    pools = {
        "str": ["x", "a", "mu", "A"],
        "bool": [False, True],
        "tuple": [(), ("A", 0)],
        "Tuple[str, ...]": [(), ("a",), ("a", "a")],
        "OneCell": [x, a, sig.word1("a", "a")],
        "Tuple[Whisker2, ...]": [(), phi.whiskers, phi.whiskers * 2],
        "TwoCell": [phi, sig.id2(a)],
        "GenInstance": [OpGen("A"), Interchanger("mu", x, "mu")],
        "Step": [step, other],
        "Tuple[Step, ...]": [(), (step,), (other, step)],
        "Branching": [Branching(step, other), Branching(other, other)],
    }
    for cls in map(type, cells):
        names = [f.name for f in fields(cls)]
        pool = [pools[f.type] for f in fields(cls)]
        custom = {"__repr__": cls.__repr__} if cls in (OneCell, TwoCell) else {}
        twin = make_dataclass(
            cls.__name__, [(f.name, f.type) for f in fields(cls)], frozen=True, slots=True, namespace=custom
        )
        assert [f.name for f in fields(twin)] == names
        assert cls.__match_args__ == twin.__match_args__
        assert inspect.signature(cls) == inspect.signature(twin)
        drawn = [[rng.choice(p) for p in pool] for _ in range(12)]
        for vals in drawn:
            value, image = cls(*vals), twin(*vals)
            assert [getattr(value, n) for n in names] == vals
            assert repr(value) == repr(image)
            assert hash(value) == hash(image)
            assert value == cls(**dict(zip(names, vals)))
            for others in drawn:
                assert (value == cls(*others)) == (image == twin(*others))
            i = rng.randrange(len(names))
            name, new = names[i], rng.choice(pool[i])
            assert repr(replace(value, **{name: new})) == repr(replace(image, **{name: new}))
            assert _error_text(cls, *vals[:-1]) == _error_text(twin, *vals[:-1])
            assert _error_text(cls, *vals, 0) == _error_text(twin, *vals, 0)
            assert _error_text(cls, *vals, extra=0) == _error_text(twin, *vals, extra=0)
            for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(copied) is cls
                assert copied == value and repr(copied) == repr(copy.deepcopy(image))

    # a class whose __init__ would do more than store its fields is refused
    for body in (
        {"__annotations__": {"a": "int", "b": "int"}, "b": 0},
        {"__annotations__": {"a": "int", "b": "int"}, "b": field(default_factory=tuple)},
        {"__annotations__": {"a": "int", "b": "int"}, "b": field(init=False)},
        {"__annotations__": {"a": "int", "b": "int"}, "b": field(kw_only=True)},
        {"__annotations__": {"a": "int"}, "__post_init__": lambda self: None},
    ):
        with pytest.raises(TypeError, match="frozen_value: Refused has a"):
            frozen_value(type("Refused", (), dict(body)))


def _one_letter_more(u, letter):
    return OneCell(u.start, u.word + (letter,))


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_step_sides_match_the_compose_reference(name, request, rng):
    pres = request.getfixturevalue(name).presentation
    sig = pres.sig
    letter = next(iter(sig.one))
    steps = _redexes(pres, rng, cells=40)
    assert steps
    if pres.qmode is not None:
        assert any(isinstance(s.inner, QInterchanger) and s.inner.rev for s in steps)
    for s in steps:
        assert sig.step_source(s) == composed_side(sig, s, sig.inst_side(s.inner, True))
        assert sig.step_target(s) == composed_side(sig, s, sig.inst_side(s.inner, False))
        # each part moved off by one letter: the kernel and the reference both refuse
        for bad in (
            Step(s.lam, _one_letter_more(s.left, letter), s.inner, s.right, s.rho),
            Step(s.lam, s.left, s.inner, _one_letter_more(s.right, letter), s.rho),
            Step(TwoCell(_one_letter_more(sig.target(s.lam), letter), ()), s.left, s.inner, s.right, s.rho),
            Step(s.lam, s.left, s.inner, s.right, TwoCell(_one_letter_more(s.rho.source1, letter), s.rho.whiskers)),
        ):
            for source in (True, False):
                with pytest.raises(CompositionError):
                    sig.step_source(bad) if source else sig.step_target(bad)
                with pytest.raises(CompositionError):
                    composed_side(sig, bad, sig.inst_side(bad.inner, source))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CellError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_row_levels_match_the_nested_concat_reference(name, request, rng):
    sig = request.getfixturevalue(name).presentation.sig
    kinds = set()
    for _ in range(40):
        for w in random_two_cell(sig, rng, rows=rng.randrange(1, 6)).whiskers:
            u = random_one_cell(sig, rng)
            for row in (w, Whisker2(u, w.gen, w.right), Whisker2(w.left, w.gen, u)):
                for level, bound in ((sig.whisker_source, sig.src1), (sig.whisker_target, sig.tgt1)):
                    got = _outcome(level, row)
                    ref = _outcome(lambda r: sig._concat(r.left, sig._concat(bound(r.gen), r.right)), row)
                    assert got == ref
                    kinds.add(type(got))
    assert OneCell in kinds
    if len(sig.zero) > 1:
        assert tuple in kinds


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_instance_sides_are_memoized_soundly(name, request, rng):
    pres = request.getfixturevalue(name).presentation
    sig = pres.sig
    fresh = _copy(sig)
    insts = {s.inner for s in _redexes(pres, rng)}
    assert insts
    for inst in insts:
        for source in (True, False):
            side = sig.inst_side(inst, source)
            assert sig.inst_side(inst, source) is side
            assert fresh.inst_side(inst, source) == side
    assert fresh._sides is not sig._sides
    # an ill-typed middle word raises on every call and is never stored
    alpha = beta = next(iter(sig.two))
    for mid in [OneCell(sig.zero[0], ("no-such-letter",))] + [
        OneCell(z, ()) for z in sig.zero if z != sig.end0(sig.tgt1(alpha))
    ]:
        bad = Interchanger(alpha, mid, beta)
        for _ in range(2):
            with pytest.raises(CellError):
                sig.inst_side(bad, True)
        assert (bad, True) not in sig._sides


def test_rotated_signature_has_its_own_memo(pseudomonoid):
    sig = pseudomonoid.presentation.sig
    inst = Interchanger("mu", sig.id1("x"), "mu")
    side = sig.inst_side(inst, True)
    rsig = sig.rotated()
    assert rsig._sides is not sig._sides
    # the same instance key names another side over the rotated signature
    rside = rsig.inst_side(inst, True)
    assert rside != side
    assert rside == _copy(rsig).inst_side(inst, True)
    assert sig.inst_side(inst, True) is side


def test_instance_side_memo_is_bounded():
    # more distinct interchanger sides than the memo holds, on a fresh
    # signature; short middle words over two loop letters keep each side cheap
    from itertools import product

    from graypol.cells import SIDES_MEMO_MAX

    sig = Signature(["x"], [("a", "x", "x"), ("b", "x", "x")], [("mu", OneCell("x", ("a", "a")), OneCell("x", ("a",)))])
    words = [w for n in range(14) for w in product("ab", repeat=n)][: SIDES_MEMO_MAX // 2 + 100]
    insts = [Interchanger("mu", OneCell("x", w), "mu") for w in words]
    for inst in insts + insts[:100]:
        for source in (True, False):
            assert sig.inst_side(inst, source) == sig._build_side(inst, source)
            assert len(sig._sides) <= SIDES_MEMO_MAX
