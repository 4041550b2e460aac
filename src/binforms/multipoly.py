"""Sparse multivariate polynomials.

A `MultiPoly` is a dict from exponent tuples (one slot per declared variable)
to nonzero coefficients, which are any scalars closed under + and *: ints
and Fractions in the package, prime-field residues in the tests.  The term
order used for printing and golden files is graded lexicographic on the
declared variable list.  These polynomials carry the symbolic coefficients
a_0..a_n and b_1..b_4 used by the lemma verification fixtures, so arithmetic
is exact and unsimplified terms never survive (a coefficient that comes out
0 is dropped at once).

Dense univariate helpers over the rationals (coefficient lists, low degree
first) live here too; their gcd backs the root-multiplicity chains of the
nullcone module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class PolynomialRing:
    """The polynomials in the declared variables."""

    __slots__ = ("variables", "zero", "one", "_index")

    def __init__(self, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.zero = MultiPoly(self, {})
        self.one = self.const(1)

    def var(self, name: str) -> "MultiPoly":
        exp = [0] * len(self.variables)
        exp[self._index[name]] = 1
        return MultiPoly(self, {tuple(exp): 1})

    def vars(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def const(self, c) -> "MultiPoly":
        return MultiPoly(self, {(0,) * len(self.variables): c} if c else {})

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.variables == self.variables

    def __hash__(self):
        return hash(("PolynomialRing", self.variables))

    def __repr__(self):
        return f"Poly[{', '.join(self.variables)}]"


class MultiPoly:
    """Sparse polynomial; `terms` maps exponent tuples to nonzero coefficients.

    An operand that is not a `MultiPoly` is a constant: a scalar scales every
    term, and a coefficient that comes out 0 is dropped.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return self
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.pop(e, 0) + c
            if s:
                out[e] = s
        return MultiPoly(self.ring, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return self.ring.zero
            scaled = {e: v for e, c in self.terms.items() if (v := c * other)}
            return MultiPoly(self.ring, scaled)
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.pop(e, 0) + c1 * c2
                if s:
                    out[e] = s
        return MultiPoly(self.ring, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one
        b = self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, MultiPoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def sorted_terms(self) -> list:
        """Terms in canonical order: graded lex, highest first."""
        return sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.ring.variables, e)
                if k
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# Dense univariate helpers over the rationals (coefficient lists, low first).

def dense_trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def dense_monic(cs: list) -> list:
    if not cs:
        return []
    lead = cs[-1]
    return [c / lead for c in cs]


def dense_derivative(cs: list) -> list:
    return dense_trim([c * k for k, c in enumerate(cs)][1:])


def dense_divmod(a: list, b: list) -> tuple:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and dense_trim(a):
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        dense_trim(a)
    return dense_trim(q), a


def dense_gcd(a: list, b: list) -> list:
    """Monic gcd of two rational coefficient lists."""
    a, b = dense_trim(list(a)), dense_trim(list(b))
    while b:
        _, r = dense_divmod(a, b)
        a, b = b, dense_trim(r)
    return dense_monic(a)

