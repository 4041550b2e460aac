"""Prime-field residues: the F_p scalars of the tests.

No command needs them: `batch` computes over F_p on int64 arrays, and
`binforms eval --prime` maps rationals with `rings.residue`.  The tests build
F_p forms and polynomials from them, and forms compute with their + and *.
"""

from fractions import Fraction

from binforms.rings import is_prime, randbelow, residue


class PrimeField:
    """F_p for an odd prime p: `GF(a)` is the residue of a, `GF.random` a draw."""

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p

    def __call__(self, a) -> "Residue":
        """The residue of an int or Fraction."""
        return Residue(residue(a, self.p) if isinstance(a, Fraction) else a, self.p)

    def random(self, rng) -> "Residue":
        return Residue(randbelow(rng.getrandbits, self.p), self.p)


class Residue:
    """An element of F_p, `value` in [0, p).

    An int or Fraction operand maps into F_p; a Fraction goes through
    `rings.residue`, so one whose denominator p divides raises
    ZeroDivisionError.  Any other operand is left to its own operators.
    """

    __slots__ = ("value", "p")

    def __init__(self, a: int, p: int):
        self.value = a % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Residue):
            if other.p != self.p:
                raise ValueError(f"residues mod {self.p} and {other.p} do not mix")
            return other.value
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction):
            return residue(other, self.p)
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value + v, self.p)

    def __sub__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else Residue(self.value * v, self.p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.p)

    def __eq__(self, other):
        v = self._lift(other)
        return v if v is NotImplemented else (self.value - v) % self.p == 0

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"
