"""Covariant expression trees and their evaluation.

Expressions are built from four node kinds: the base form `f`, transvectants,
powers, and named references into a catalog.  The text grammar, which
`expr_to_text` and `repr` print, round-trips exactly:

    f | (tr E E INT) | (pow E INT) | @name

Nodes are immutable with precomputed hashes, so structurally equal subtrees
land on the same memo slots during evaluation.  An `Evaluator` is bound to one
(ring, base form, definitions) triple and memoizes every node, so the heavily
shared covariants of the catalogs are computed once no matter how many
invariants mention them.  It serves any scalar ring (exact rationals,
polynomial rings, single forms for `binforms eval`); values at many forms,
over F_p or exactly over the integers, come from `batch.BatchEvaluator`,
which evaluates a whole batch at once.  Both apply the one transvectant
weight table, `forms.integer_weights`: a power is a chain of 0-th
transvectants, that is, of form products.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .forms import BinaryForm, transvectant


class Expr:
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return expr_to_text(self)


class Base(Expr):
    """The generic base form f."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("f"))

    def __eq__(self, other):
        return isinstance(other, Base)

    __hash__ = Expr.__hash__


F = Base()


class Ref(Expr):
    """Reference to a named catalog entry."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("@", name)))

    def __eq__(self, other):
        return isinstance(other, Ref) and other.name == self.name

    __hash__ = Expr.__hash__


class Tr(Expr):
    """Transvectant node (left, right)_index."""

    __slots__ = ("left", "right", "index")

    def __init__(self, left: Expr, right: Expr, index: int):
        if index < 0:
            raise ValueError("transvectant index must be >= 0")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash(("tr", left._hash, right._hash, index)))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Tr)
            and other._hash == self._hash
            and other.index == self.index
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Expr.__hash__


class Pow(Expr):
    """k-th power of a covariant, k >= 1."""

    __slots__ = ("child", "k")

    def __init__(self, child: Expr, k: int):
        if k < 1:
            raise ValueError("power must be >= 1")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_hash", hash(("pow", child._hash, k)))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Pow)
            and other._hash == self._hash
            and other.k == self.k
            and other.child == self.child
        )

    __hash__ = Expr.__hash__


def tr(left: Expr, right: Expr, index: int) -> Tr:
    return Tr(left, right, index)


def pw(child: Expr, k: int) -> Pow:
    return Pow(child, k)


def ref(name: str) -> Ref:
    return Ref(name)


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Base):
        return "f"
    if isinstance(e, Ref):
        return f"@{e.name}"
    if isinstance(e, Tr):
        return f"(tr {expr_to_text(e.left)} {expr_to_text(e.right)} {e.index})"
    if isinstance(e, Pow):
        return f"(pow {expr_to_text(e.child)} {e.k})"
    raise TypeError(f"not an expression: {e!r}")


class ExprParseError(ValueError):
    pass


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def expr_from_text(text: str) -> Expr:
    """Parse the expression grammar; inverse of `expr_to_text`."""
    tokens = _tokenize(text)

    def parse2(i: int):
        if i >= len(tokens):
            raise ExprParseError("unexpected end of expression")
        tok = tokens[i]
        if tok == "f":
            return F, i + 1
        if tok.startswith("@"):
            if len(tok) == 1:
                raise ExprParseError("empty name after @")
            return Ref(tok[1:]), i + 1
        if tok != "(":
            raise ExprParseError(f"unexpected token {tok!r}")
        if i + 1 >= len(tokens):
            raise ExprParseError("unexpected end after '('")
        head = tokens[i + 1]
        if head == "tr":
            left, j = parse2(i + 2)
            right, j = parse2(j)
            idx, j = _int_at(tokens, j)
            j = _expect(tokens, j, ")")
            return Tr(left, right, idx), j
        if head == "pow":
            child, j = parse2(i + 2)
            k, j = _int_at(tokens, j)
            j = _expect(tokens, j, ")")
            return Pow(child, k), j
        raise ExprParseError(f"unknown operator {head!r}")

    e, end = parse2(0)
    if end != len(tokens):
        raise ExprParseError(f"trailing tokens: {' '.join(tokens[end:])}")
    return e


def _int_at(tokens: list, i: int):
    if i >= len(tokens):
        raise ExprParseError("expected an integer")
    try:
        return int(tokens[i]), i + 1
    except ValueError:
        raise ExprParseError(f"expected an integer, got {tokens[i]!r}") from None


def _expect(tokens: list, i: int, what: str) -> int:
    if i >= len(tokens) or tokens[i] != what:
        raise ExprParseError(f"expected {what!r}")
    return i + 1


def expr_meta(
    e: Expr,
    base_order: int,
    resolve: Optional[Mapping[str, Expr]] = None,
    _memo: Optional[dict] = None,
) -> tuple:
    """(order, degree) of an expression over a base form of `base_order`.

    Validates transvectant indices against operand orders along the way.
    """
    memo = {} if _memo is None else _memo
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, Base):
        meta = (base_order, 1)
    elif isinstance(e, Ref):
        if resolve is None or e.name not in resolve:
            raise KeyError(f"unresolvable name {e.name!r}")
        meta = expr_meta(resolve[e.name], base_order, resolve, memo)
    elif isinstance(e, Tr):
        m1, d1 = expr_meta(e.left, base_order, resolve, memo)
        m2, d2 = expr_meta(e.right, base_order, resolve, memo)
        if e.index > min(m1, m2):
            raise ValueError(
                f"transvectant index {e.index} exceeds min(order) = {min(m1, m2)}"
            )
        meta = (m1 + m2 - 2 * e.index, d1 + d2)
    elif isinstance(e, Pow):
        m, d = expr_meta(e.child, base_order, resolve, memo)
        meta = (e.k * m, e.k * d)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = meta
    return meta


class Evaluator:
    """Evaluates expressions at one base form, memoizing shared subtrees."""

    def __init__(self, form: BinaryForm, resolve: Optional[Mapping[str, Expr]] = None):
        self.form = form
        self.resolve = resolve or {}
        self._memo: dict = {}

    def eval(self, e: Expr) -> BinaryForm:
        got = self._memo.get(e)
        if got is not None:
            return got
        if isinstance(e, Base):
            val = self.form
        elif isinstance(e, Ref):
            defn = self.resolve.get(e.name)
            if defn is None:
                raise KeyError(f"unresolvable name {e.name!r}")
            val = self.eval(defn)
        elif isinstance(e, Tr):
            val = transvectant(self.eval(e.left), self.eval(e.right), e.index)
        elif isinstance(e, Pow):
            val = self.eval(e.child).power(e.k)
        else:
            raise TypeError(f"not an expression: {e!r}")
        self._memo[e] = val
        return val


def inline_refs(
    e: Expr, resolve: Mapping[str, Expr], _memo: Optional[dict] = None
) -> Expr:
    """Expand every named reference, returning a closed expression.

    Shared subtrees stay shared (one node object), so evaluation memoization
    behaves exactly as it does for the referenced form.
    """
    memo = {} if _memo is None else _memo
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, Base):
        out: Expr = e
    elif isinstance(e, Ref):
        defn = resolve.get(e.name)
        if defn is None:
            raise KeyError(f"unresolvable name {e.name!r}")
        out = inline_refs(defn, resolve, memo)
    elif isinstance(e, Tr):
        out = Tr(inline_refs(e.left, resolve, memo), inline_refs(e.right, resolve, memo), e.index)
    elif isinstance(e, Pow):
        out = Pow(inline_refs(e.child, resolve, memo), e.k)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = out
    return out
