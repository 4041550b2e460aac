"""Dual numbers over a prime field: the Jacobian oracle of the tests.

`BatchEvaluator` computes exact partial derivatives as slopes of batched
jets.  The tests check those slopes against the scalar `Evaluator` run on
forms of these values with `closed_form.transvectant`, where evaluating at
(a + eps) yields (value, derivative); `closed_form` shares no code with
`batch.transvect`.
"""

from fractions import Fraction

from binforms.rings import residue


class Dual:
    """a + b*eps (eps**2 = 0) over F_p: `value` a and `slope` b in [0, p).

    An int or Fraction operand is a constant (slope 0) mapped into F_p; a
    Fraction goes through `rings.residue`.
    """

    __slots__ = ("value", "slope", "p")

    def __init__(self, value: int, slope: int, p: int):
        self.value, self.slope, self.p = value % p, slope % p, p

    def _lift(self, other):
        if isinstance(other, Dual):
            return other.value, other.slope
        if isinstance(other, int):
            return other, 0
        if isinstance(other, Fraction):
            return residue(other, self.p), 0
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Dual(self.value + o[0], self.slope + o[1], self.p)

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Dual(self.value - o[0], self.slope - o[1], self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else Dual(o[0] - self.value, o[1] - self.slope, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        a, b = self.value, self.slope
        return Dual(a * o[0], a * o[1] + b * o[0], self.p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.value, -self.slope, self.p)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return (self.value - o[0]) % self.p == 0 and (self.slope - o[1]) % self.p == 0

    def __hash__(self):
        return hash((self.value, self.slope))

    def __bool__(self):
        return bool(self.value or self.slope)

    def __repr__(self):
        return f"{self.value} + {self.slope}*eps (mod {self.p})"
