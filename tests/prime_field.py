"""The prime field F_p as a scalar ring: a test helper.

No command needs it: `batch` computes over F_p on int64 arrays, and
`binforms eval --prime` maps rationals with `rings.residue`.  The tests build
F_p forms with it and draw their operands with `random`.
"""

from binforms.rings import Ring, is_prime, randbelow, residue


class PrimeField(Ring):
    """F_p for an odd prime p; elements are ints fully reduced into [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p

    zero = 0
    one = 1

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def from_int(self, k):
        return k % self.p

    def from_fraction(self, q):
        return residue(q, self.p)

    def mul_int(self, a, k):
        return a * k % self.p

    def random(self, rng):
        return randbelow(rng.getrandbits, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"
