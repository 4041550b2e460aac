"""Scalar rings: exact rationals and prime fields.

Ring objects operate on plain unboxed values so the inner loops of covariant
evaluation stay cheap:

* rationals are `fractions.Fraction`,
* prime-field elements are ints in [0, p).

A transvectant (`forms.transvectant`, and so every product of forms) needs
only `add`, `mul`, `mul_int`, `is_zero` and `from_fraction`.  Polynomial
rings (with `MultiPoly` elements) live in `multipoly` and follow the same
protocol.
"""

from __future__ import annotations

import random
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def randbelow(getrandbits, n: int) -> int:
    """A uniform draw from range(n), n >= 1, made from `getrandbits` alone.

    It makes the calls CPython's `Random._randbelow_with_getrandbits` makes:
    `getrandbits(n.bit_length())` until the result is below n.  So with
    `getrandbits = rng.getrandbits` it gives the value and leaves the rng
    state that `randrange` with stop n would, without random.py's argument
    checks (tested).
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class Ring:
    """Protocol base class; operations act on plain element values."""

    zero: object
    one: object

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def from_int(self, k: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def mul_int(self, a, k: int):
        """a * k for an integer k; overridden where a faster path exists."""
        return self.mul(a, self.from_int(k))

    def random(self, rng: random.Random):
        raise NotImplementedError


class RationalField(Ring):
    """The rationals, with `fractions.Fraction` values (always reduced)."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return q

    def mul_int(self, a, k):
        return a * k

    def random(self, rng):
        # The draws of randint on [-9, 9], then on [1, 9].
        return Fraction(randbelow(rng.getrandbits, 19) - 9, randbelow(rng.getrandbits, 9) + 1)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


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
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {q.denominator} is divisible by p={self.p}"
            )
        return q.numerator % self.p * pow(den, -1, self.p) % self.p

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

