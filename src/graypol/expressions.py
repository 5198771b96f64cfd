"""Raw composition expressions and their normalization.

Expressions are trees denoting formal composites of generators over a
signature: leaves are generator references or identity markers, inner
nodes are binary compositions tagged with a dimension.  They are an
independent oracle for the cell algebra (the text parser builds cells
directly, not expressions); the normal-form cells of
:mod:`graypol.cells` are the primary representation.

``normalize_expression`` rewrites a well-typed expression to its unique
normal form with a deterministic leftmost-innermost strategy and reads
the resulting cell off the normal form.  The one-step relation is
exposed by :func:`reducts` so tests can explore all strategies, and
:func:`measure` computes the lexicographic termination measure that
strictly decreases along every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .cells import (
    CellError,
    Interchanger,
    OpGen,
    QInterchanger,
    Signature,
    TypingError,
    dim as cell_dim,
    is_identity,
)


@dataclass(frozen=True)
class EGen:
    """Top-dimensional generator leaf; ``ref`` is a name or a 3-generator instance."""

    dim: int
    ref: object


@dataclass(frozen=True)
class EId:
    """Identity marker on a cell of the dimension below the expression."""

    cell: object


@dataclass(frozen=True)
class ELowL:
    """``cell *_i expr`` with ``cell`` of dimension ``i + 1``."""

    i: int
    cell: object
    expr: "Expr"


@dataclass(frozen=True)
class ELowR:
    """``expr *_i cell`` with ``cell`` of dimension ``i + 1``."""

    i: int
    expr: "Expr"
    cell: object


@dataclass(frozen=True)
class ETop:
    """Top-dimensional composition of two expressions."""

    left: "Expr"
    right: "Expr"


Expr = Union[EGen, EId, ELowL, ELowR, ETop]


def _low_dim(c) -> int:
    if isinstance(c, str):
        return 0
    return cell_dim(c)


def _typed(rule: str, what: str, fn, *args):
    """``fn(*args)``, a ``CellError`` it raises raised again as a ``TypingError`` citing ``rule``."""
    try:
        return fn(*args)
    except CellError as exc:
        raise TypingError(rule, f"{what}: {exc}") from exc


def _boundaries_of_gen(sig: Signature, e: EGen):
    if e.dim == 1:
        if e.ref not in sig.one:
            raise TypingError("gen-intro", f"unknown 1-generator {e.ref}")
        s, t = sig.one[e.ref]
        return s, t
    if e.dim == 2:
        if e.ref not in sig.two:
            raise TypingError("gen-intro", f"unknown 2-generator {e.ref}")
        return sig.two[e.ref]
    if e.dim == 3:
        if not isinstance(e.ref, (OpGen, Interchanger, QInterchanger)):
            raise TypingError("gen-intro", f"not a 3-generator instance: {e.ref!r}")
        return _typed("gen-intro", f"3-generator instance {e.ref!r} is not typed", sig.inst_boundaries, e.ref)
    raise TypingError("gen-intro", f"unsupported generator dimension {e.dim}")


def typecheck(sig: Signature, e: Expr, top: int):
    """Source and target (dimension ``top - 1``) of a well-typed expression.

    Raises :class:`TypingError` citing the violated sequent rule.
    """
    if top not in (1, 2, 3):
        raise TypingError("dimension", f"top dimension must be 1, 2 or 3, got {top}")
    if isinstance(e, EGen):
        if e.dim != top:
            raise TypingError("gen-intro", f"generator of dimension {e.dim} in a {top}-expression")
        return _boundaries_of_gen(sig, e)
    if isinstance(e, EId):
        if _low_dim(e.cell) != top - 1:
            raise TypingError(
                "id-intro", f"identity marker must carry a {top - 1}-cell, got {e.cell!r}"
            )
        if isinstance(e.cell, str):
            if e.cell not in sig.zero:
                raise TypingError("id-intro", f"unknown 0-generator {e.cell}")
        else:
            _typed("id-intro", "identity marker is not a cell", sig.check, e.cell)
        return e.cell, e.cell
    if isinstance(e, (ELowL, ELowR)):
        left = isinstance(e, ELowL)
        rule, side = ("comp-left", "left") if left else ("comp-right", "right")
        if not 0 <= e.i < top - 1:
            raise TypingError(rule, f"composition dimension {e.i} out of range")
        if _low_dim(e.cell) != e.i + 1:
            raise TypingError(rule, f"{side} operand of *_{e.i} must be a {e.i + 1}-cell, got {e.cell!r}")
        _typed(rule, f"{side} operand of *_{e.i} is not a cell", sig.check, e.cell)
        s, t = typecheck(sig, e.expr, top)
        ucell = sig.target(e.cell) if left else sig.source(e.cell)
        uexpr = sig.boundary(s, e.i, "-" if left else "+")
        if ucell != uexpr and left:
            raise TypingError(rule, f"*_{e.i}: target of left operand {ucell!r} differs from {e.i}-source {uexpr!r}")
        if ucell != uexpr:
            raise TypingError(rule, f"*_{e.i}: {e.i}-target {uexpr!r} differs from source of right operand {ucell!r}")
        return tuple(sig.compose(e.cell, v, e.i) if left else sig.compose(v, e.cell, e.i) for v in (s, t))
    if isinstance(e, ETop):
        s1, t1 = typecheck(sig, e.left, top)
        s2, t2 = typecheck(sig, e.right, top)
        if t1 != s2:
            raise TypingError(
                "comp-top", f"*_{top - 1}: target {t1!r} differs from source {s2!r}"
            )
        return s1, t2
    raise TypingError("expression", f"not an expression: {e!r}")


def eval_cell(sig: Signature, e: Expr, top: int):
    """Evaluate an expression directly with the cell algebra."""
    typecheck(sig, e, top)
    return _eval(sig, e, top)


def _eval(sig: Signature, e: Expr, top: int):
    if isinstance(e, EGen):
        if top == 1:
            return sig.word1(e.ref)
        if top == 2:
            return sig.gen2_cell(e.ref)
        return sig.gen3_cell(e.ref)
    if isinstance(e, EId):
        return sig.identity(e.cell)
    if isinstance(e, ELowL):
        return sig.compose(e.cell, _eval(sig, e.expr, top), e.i)
    if isinstance(e, ELowR):
        return sig.compose(_eval(sig, e.expr, top), e.cell, e.i)
    if isinstance(e, ETop):
        return sig.compose(_eval(sig, e.left, top), _eval(sig, e.right, top), top - 1)
    raise CellError(f"not an expression: {e!r}")


def _root_reducts(sig: Signature, e: Expr):
    out = []
    if isinstance(e, ETop):
        if isinstance(e.left, EId):
            out.append(e.right)
        if isinstance(e.right, EId):
            out.append(e.left)
        if isinstance(e.left, ETop):
            out.append(ETop(e.left.left, ETop(e.left.right, e.right)))
    elif isinstance(e, ELowL):
        i, u, t = e.i, e.cell, e.expr
        if not isinstance(u, str) and is_identity(u):
            out.append(t)
        if isinstance(t, EId):
            out.append(EId(sig.compose(u, t.cell, i)))
        if isinstance(t, ETop):
            out.append(ETop(ELowL(i, u, t.left), ELowL(i, u, t.right)))
        if isinstance(t, ELowL):
            if t.i == i:
                out.append(ELowL(i, sig.compose(u, t.cell, i), t.expr))
            elif t.i > i:
                out.append(ELowL(t.i, sig.compose(u, t.cell, i), ELowL(i, u, t.expr)))
        if isinstance(t, ELowR) and t.i > i:
            out.append(ELowR(t.i, ELowL(i, u, t.expr), sig.compose(u, t.cell, i)))
    elif isinstance(e, ELowR):
        i, t, v = e.i, e.expr, e.cell
        if not isinstance(v, str) and is_identity(v):
            out.append(t)
        if isinstance(t, EId):
            out.append(EId(sig.compose(t.cell, v, i)))
        if isinstance(t, ETop):
            out.append(ETop(ELowR(i, t.left, v), ELowR(i, t.right, v)))
        if isinstance(t, ELowR):
            if t.i == i:
                out.append(ELowR(i, t.expr, sig.compose(t.cell, v, i)))
            elif t.i > i:
                out.append(ELowR(t.i, ELowR(i, t.expr, v), sig.compose(t.cell, v, i)))
        if isinstance(t, ELowL):
            if t.i == i:
                out.append(ELowL(i, t.cell, ELowR(i, t.expr, v)))
            elif t.i > i:
                out.append(ELowL(t.i, sig.compose(t.cell, v, i), ELowR(i, t.expr, v)))
    return out


def reducts(sig: Signature, e: Expr):
    """All one-step rewrites of ``e``, innermost-leftmost first."""
    out = []
    if isinstance(e, ELowL):
        out.extend(ELowL(e.i, e.cell, r) for r in reducts(sig, e.expr))
    elif isinstance(e, ELowR):
        out.extend(ELowR(e.i, r, e.cell) for r in reducts(sig, e.expr))
    elif isinstance(e, ETop):
        out.extend(ETop(r, e.right) for r in reducts(sig, e.left))
        out.extend(ETop(e.left, r) for r in reducts(sig, e.right))
    out.extend(_root_reducts(sig, e))
    return out


def normal_form_expr(sig: Signature, e: Expr, top: int) -> Expr:
    """Leftmost-innermost normal form of a well-typed expression."""
    typecheck(sig, e, top)
    cur = e
    while True:
        nxt = reducts(sig, cur)
        if not nxt:
            return cur
        cur = nxt[0]


def normalize_expression(sig: Signature, e: Expr, top: int):
    """Unique normal-form cell denoted by a well-typed expression."""
    nf = normal_form_expr(sig, e, top)
    return _eval(sig, nf, top)


def measure(e: Expr, top: int) -> Tuple[int, ...]:
    """Termination measure ``(c, l_{n-1}, r_{n-1}, ..., l_0, r_0)``.

    Strictly decreases (lexicographically) along every rewrite step.
    """
    n = top - 1
    c, ls, rs = _counts(e, n)
    out = [c]
    for i in range(n - 1, -1, -1):
        out.append(ls[i])
        out.append(rs[i])
    return tuple(out)


def _counts(e: Expr, n: int):
    if isinstance(e, EGen):
        return 0, [0] * n, [0] * n
    if isinstance(e, EId):
        return 1, [1] * n, [1] * n
    if isinstance(e, ETop):
        c1, l1, r1 = _counts(e.left, n)
        c2, l2, r2 = _counts(e.right, n)
        return (
            2 * c1 + c2 + 1,
            [l1[i] + l2[i] + 2 for i in range(n)],
            [r1[i] + r2[i] + 2 for i in range(n)],
        )
    if isinstance(e, ELowL):
        j = e.i
        c, ls, rs = _counts(e.expr, n)
        nl = [ls[i] if j < i else (2 * ls[i] + 1 if j == i else ls[i] + 1) for i in range(n)]
        nr = [rs[i] if j < i else rs[i] + 1 for i in range(n)]
        return c, nl, nr
    if isinstance(e, ELowR):
        j = e.i
        c, ls, rs = _counts(e.expr, n)
        nl = [ls[i] if j <= i else ls[i] + 1 for i in range(n)]
        nr = [rs[i] if j < i else (2 * rs[i] + 1 if j == i else rs[i] + 1) for i in range(n)]
        return c, nl, nr
    raise CellError(f"not an expression: {e!r}")


def size(e: Expr) -> int:
    if isinstance(e, (EGen, EId)):
        return 1
    if isinstance(e, (ELowL, ELowR)):
        return 1 + size(e.expr)
    return 1 + size(e.left) + size(e.right)
