"""Covariant expression trees.

Expressions are built from three node kinds: the base form `f`, transvectants
and powers.  Their text grammar is

    f | (tr E E INT) | (pow E INT) | @name

where `@name` stands for a named expression, a catalog entry for example:
`expr_from_text` replaces it by that expression's node when it parses the
text, so every parsed expression is closed and a shared entry stays one
shared subtree.  `expr_to_text` and `repr` print the closed tree, which
`expr_from_text` reads back exactly.

Nodes are immutable with precomputed hashes, so structurally equal subtrees
land on the same memo slots during evaluation.  Values come from
`batch.BatchEvaluator`, which evaluates an expression at a whole batch of
forms at once, over F_p or exactly; a power is a chain of 0-th
transvectants, that is, of form products.  The exact mode drops the
transvectant prefactors, and `expr_prefactor` is the constant that restores
them, so `binforms eval` prints true values.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from typing import Mapping, Optional

# Nothing here calls it: the name stays bound because perfbench's tracer binds it.
from .forms import transvectant  # noqa: F401
from .rings import residue


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


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Base):
        return "f"
    if isinstance(e, Tr):
        return f"(tr {expr_to_text(e.left)} {expr_to_text(e.right)} {e.index})"
    if isinstance(e, Pow):
        return f"(pow {expr_to_text(e.child)} {e.k})"
    raise TypeError(f"not an expression: {e!r}")


class ExprParseError(ValueError):
    pass


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def expr_from_text(text: str, names: Mapping[str, Expr]) -> Expr:
    """Parse the expression grammar, each `@name` as the node `names[name]`
    itself; with no names, the inverse of `expr_to_text`."""
    tokens = _tokenize(text)

    def parse2(i: int):
        if i >= len(tokens):
            raise ExprParseError("unexpected end of expression")
        tok = tokens[i]
        if tok == "f":
            return F, i + 1
        if tok.startswith("@"):
            name = tok[1:]
            if not name:
                raise ExprParseError("empty name after @")
            if name not in names:
                raise KeyError(f"unresolvable name {name!r}")
            return names[name], i + 1
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


def expr_meta(e: Expr, base_order: int, _memo: Optional[dict] = None) -> tuple:
    """(order, degree) of an expression over a base form of `base_order`.

    Validates transvectant indices against operand orders along the way.
    """
    memo = {} if _memo is None else _memo
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, Base):
        meta = (base_order, 1)
    elif isinstance(e, Tr):
        m1, d1 = expr_meta(e.left, base_order, memo)
        m2, d2 = expr_meta(e.right, base_order, memo)
        if e.index > min(m1, m2):
            raise ValueError(
                f"transvectant index {e.index} exceeds min(order) = {min(m1, m2)}"
            )
        meta = (m1 + m2 - 2 * e.index, d1 + d2)
    elif isinstance(e, Pow):
        m, d = expr_meta(e.child, base_order, memo)
        meta = (e.k * m, e.k * d)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = meta
    return meta


def expr_prefactor(e: Expr, base_order: int, prime: Optional[int] = None) -> Fraction:
    """The constant by which `BatchEvaluator(prime=None)` values of the
    expression `e`, over a base form of `base_order`, fall short of the true
    values.

    The exact batch drops the prefactor 1 / (perm(m, k) perm(n, k)) of each
    transvectant (g, h)_k, and a power raises its child's constant to the
    power, so the constant is the product of the prefactors over the tree, a
    shared subtree counted at each use.  With a prime, the first
    transvectant in evaluation order (operands first, left before right)
    whose denominator p divides raises ZeroDivisionError: its value has no
    image in F_p.
    """
    memo: dict = {}

    def walk(e: Expr) -> tuple:
        got = memo.get(e)
        if got is not None:
            return got
        if isinstance(e, Base):
            out = (base_order, Fraction(1))
        elif isinstance(e, Tr):
            (m, a), (n, b) = walk(e.left), walk(e.right)
            den = perm(m, e.index) * perm(n, e.index)
            if prime is not None:
                residue(Fraction(1, den), prime)  # raises where p divides den
            out = (m + n - 2 * e.index, a * b / den)
        elif isinstance(e, Pow):
            m, a = walk(e.child)
            out = (e.k * m, a ** e.k)
        else:
            raise TypeError(f"not an expression: {e!r}")
        memo[e] = out
        return out

    return walk(e)[1]
