"""Sparse multivariate polynomials over a scalar ring.

A `MultiPoly` is a dict from exponent tuples (one slot per declared variable)
to nonzero coefficients.  The term order used for printing and golden files
is graded lexicographic on the declared variable list.  These polynomials
carry the symbolic coefficients a_0..a_n and b_1..b_4 used by the lemma
verification fixtures, so arithmetic is exact and unsimplified terms never
survive (zero coefficients are dropped eagerly).

Dense univariate helpers over the rationals (coefficient lists, low degree
first) live here too; their gcd backs the root-multiplicity chains of the
nullcone module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rings import QQ, Ring


class PolynomialRing(Ring):
    """Polynomial ring over `base` in the declared variables."""

    __slots__ = ("variables", "base", "zero", "one", "_index")

    def __init__(self, variables: Sequence[str], base: Ring = QQ):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = tuple(variables)
        self.base = base
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.zero = MultiPoly(self, {})
        self.one = MultiPoly(self, {(0,) * len(self.variables): base.one})

    def var(self, name: str) -> "MultiPoly":
        exp = [0] * len(self.variables)
        exp[self._index[name]] = 1
        return MultiPoly(self, {tuple(exp): self.base.one})

    def vars(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def const(self, c) -> "MultiPoly":
        if isinstance(c, int):
            c = self.base.from_int(c)
        elif isinstance(c, Fraction):
            c = self.base.from_fraction(c)
        if self.base.is_zero(c):
            return self.zero
        return MultiPoly(self, {(0,) * len(self.variables): c})

    # Ring protocol: elements are MultiPoly instances.
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def is_zero(self, a):
        return not a.terms

    def from_fraction(self, q):
        return self.const(q)

    def mul_int(self, a, k):
        if k == 0:
            return self.zero
        base = self.base
        return MultiPoly(
            self, {e: base.mul_int(c, k) for e, c in a.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.variables == self.variables
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("PolynomialRing", self.variables, self.base))

    def __repr__(self):
        return f"Poly({self.base!r}[{', '.join(self.variables)}])"


class MultiPoly:
    """Sparse polynomial; `terms` maps exponent tuples to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        base = self.ring.base
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = base.add(out.get(e, base.zero), c)
            if base.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.ring, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        base = self.ring.base
        return MultiPoly(self.ring, {e: base.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        base = self.ring.base
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = base.add(out.get(e, base.zero), base.mul(c1, c2))
                if base.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.ring, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

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

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

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

    def is_zero(self) -> bool:
        return not self.terms

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
            elif c == self.ring.base.one:
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

