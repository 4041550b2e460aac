"""Dual numbers over a prime field: the Jacobian oracle of the tests.

`BatchEvaluator` computes exact partial derivatives as slopes of batched
jets.  The tests check those slopes against the scalar `Evaluator` run over
this ring, where evaluating at (a + eps) yields (value, derivative).
"""

from binforms.rings import PrimeField, Ring


class DualNumbers(Ring):
    """Dual numbers a + b*eps (eps**2 = 0) over a prime field.

    Elements are (value, slope) pairs of prime-field elements.
    """

    __slots__ = ("field", "zero", "one")

    def __init__(self, field: PrimeField):
        self.field = field
        self.zero = (0, 0)
        self.one = (1, 0)

    def lift(self, a, slope=0):
        return (a % self.field.p, slope % self.field.p)

    def add(self, a, b):
        f = self.field
        return (f.add(a[0], b[0]), f.add(a[1], b[1]))

    def sub(self, a, b):
        f = self.field
        return (f.sub(a[0], b[0]), f.sub(a[1], b[1]))

    def mul(self, a, b):
        p = self.field.p
        return (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def neg(self, a):
        f = self.field
        return (f.neg(a[0]), f.neg(a[1]))

    def from_int(self, k):
        return (k % self.field.p, 0)

    def from_fraction(self, q):
        return (self.field.from_fraction(q), 0)

    def mul_int(self, a, k):
        p = self.field.p
        return (a[0] * k % p, a[1] * k % p)
