"""Scalar rings, the seeded draw, primality and residues mod p.

Ring objects operate on plain unboxed values: rationals are
`fractions.Fraction` (`QQ`), and `multipoly.PolynomialRing` holds
`MultiPoly` polynomials over a ring.  `forms.transvectant` computes with
the elements' own + and *, and needs of the ring only `from_fraction`, for
the prefactor, and `mul`; `BinaryForm`'s constructors and arithmetic use
`zero`, `one`, `add`, `sub`, `neg`, `mul_int` and `is_zero`.

F_p values are plain ints in [0, p), or int64 arrays in `batch`; `residue`
maps a rational into F_p.
"""

from __future__ import annotations

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


def residue(q: Fraction, p: int) -> int:
    """The image of the rational q in F_p, in [0, p).

    A denominator that p divides has no inverse, and raises ZeroDivisionError.
    """
    den = q.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator {q.denominator} is divisible by p={p}")
    return q.numerator % p * pow(den, -1, p) % p


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
    """Base of the scalar rings, whose operations act on plain element values."""

    zero: object
    one: object

    def is_zero(self, a) -> bool:
        return a == self.zero


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
