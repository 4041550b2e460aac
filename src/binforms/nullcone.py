"""Root multiplicities, nullform tests, and symbolic lemma verification.

A form of order n lies in the nullcone exactly when it has a projective root
of multiplicity greater than n/2.  `nullform_report` computes the largest
multiplicity over the rationals with gcd chains (g, g'), (gcd, gcd'), ...;
the chain length at which the gcd becomes constant is the maximal
multiplicity among finite roots, and the point at infinity is handled by
splitting off the power of y first.  Nothing here is numeric: the verdicts
feed certification logic.

`random_nullform` draws a seeded nullform as primitive integer coefficients,
the one shape in which the exact nullform check evaluates it.

`verify_lemma_expansions` recomputes, over symbolic coefficients, every
displayed covariant expansion and scalar identity used in the three nullcone
reduction lemmas (the nonic case analysis and the two pair-nullcone
reductions for V_2 + V_7 and V_6 + V_3) and compares them against hard-coded
transcriptions, exact constants included.  Their forms hold `multipoly`
polynomials, the integers 0 and 1 where a displayed form has them, and
Fraction constants; a form computes with its coefficients' own + and *.

Every command imports this module (the pipeline samples `random_nullform`,
which needs only integers), so the multiplicity and lemma code import
`multipoly` when they run rather than here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Tuple

from .forms import BinaryForm, transvectant
from .rings import random_rational


class NullformReport(NamedTuple):
    multiplicity: Optional[int]  # None for the zero form, which has no roots
    is_nullform: bool
    witness: str


def _root_chain(f: BinaryForm) -> Tuple[int, List[List[Fraction]]]:
    """(power b of y dividing f, gcd chain of g_0 = f(x, 1) / y^b).

    g_(k+1) = gcd(g_k, g_k'), stopping at the first constant; coefficient
    lists run low degree first.
    """
    # multipoly's dense rational gcd: only `nullcone test` needs it.
    from .multipoly import dense_derivative, dense_gcd, dense_trim

    coeffs = [Fraction(c) for c in f.coeffs]
    b = 0
    while b <= f.order and coeffs[b] == 0:
        b += 1
    # term i contributes coeffs[i] * x^(n - i); x-degree n - i - ... after the
    # y^b split the polynomial in x has degree n - b with leading coeff[b].
    n = f.order
    dense = [Fraction(0)] * (n - b + 1)
    for i in range(b, n + 1):
        dense[n - i] = coeffs[i]
    chain = [dense_trim(dense)]
    while len(chain[-1]) > 1:
        g = chain[-1]
        chain.append(dense_gcd(g, dense_derivative(g)))
    return b, chain


def nullform_report(f: BinaryForm) -> NullformReport:
    """The largest multiplicity among the projective roots of a rational form,
    whether it exceeds order/2, and the roots that attain it.

    The zero form is a nullform with no multiplicity.  A nonzero form of
    order 0, a constant, has no roots: multiplicity 0.
    """
    if f.is_zero():
        return NullformReport(None, True, "zero form")
    y_mult, chain = _root_chain(f)
    finite_mult = len(chain) - 1
    multiplicity = max(y_mult, finite_mult)
    if multiplicity == 0:
        witness = "no roots"
    elif finite_mult == 0 or y_mult > finite_mult:
        # f = c * y^order (up to the split), or infinity has the larger multiplicity.
        witness = "point at infinity"
    else:
        witness = _witness(chain, finite_mult)
    return NullformReport(multiplicity, 2 * multiplicity > f.order, witness)


def _witness(chain: List[List[Fraction]], mult: int) -> str:
    """The squarefree factor whose roots attain the maximal multiplicity."""
    sf = chain[mult - 1]
    terms = []
    for k in range(len(sf) - 1, -1, -1):
        c = sf[k]
        if c:
            terms.append(f"{c}*z^{k}" if k else f"{c}")
    return "roots of " + " + ".join(terms)


def _times_linear(cs: List[int], lin: Tuple[int, int]) -> List[int]:
    """Integer coefficients of (form cs) * (lin[0] x + lin[1] y)."""
    a, b = lin
    return [a * u + b * v for u, v in zip(cs + [0], [0] + cs)]


def random_nullform(n: int, seed: int) -> List[int]:
    """A seeded random nullform of order n: the primitive integer coefficients
    of an SL2 image of x^(floor(n/2)+1) * r(x, y).

    The draws are rationals from `rings.random_rational`: the coefficients of
    r, then b and c of g = ((1, b), (c, cb + 1)), which acts by
    (g . f)(v) = f(g^-1 v).
    Write r's coefficients as N_i / q over their common denominator q, and
    b = bn/bd, c = cn/cd.  The substitution of that action,
    x -> (cb + 1) x - b y and y -> -c x + y, times bd*cd and cd gives the
    integer linear forms LX = (cn bn + cd bd, -bn cd) and LY = (-cn, cd), so
    the image is sum_i N_i bd^i LX^(n-i) LY^i / (q (bd cd)^n).  The sum is
    built by Horner steps in Python ints and divided by the gcd of its
    coefficients: the row is the image times a positive rational, so every
    invariant's value changes by a nonzero factor and vanishes where the
    image's does.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(f"nullform:{seed}:{n}")
    k = n // 2 + 1
    while True:
        rest = [random_rational(rng) for _ in range(n - k + 1)]
        if any(rest):
            break
    b, c = random_rational(rng), random_rational(rng)
    bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
    q = lcm(*(r.denominator for r in rest))
    nums = [r.numerator * (q // r.denominator) for r in rest]
    lx, ly = (cn * bn + cd * bd, -bn * cd), (-cn, cd)
    # Horner: after step i, out = sum_(j <= i) N_j bd^j LX^(i-j) LY^j.
    out, ypow = [nums[0]], [1]
    for i in range(1, n + 1):
        out = _times_linear(out, lx)
        ypow = _times_linear(ypow, ly)
        if i < len(nums):
            w = nums[i] * bd**i
            out = [u + w * v for u, v in zip(out, ypow)]
    g = gcd(*out)
    return [v // g for v in out]


# ---------------------------------------------------------------------------
# Symbolic verification of the displayed lemma expansions.

class LemmaCheck(NamedTuple):
    lemma: str
    label: str
    ok: bool
    detail: str = ""


class LemmaReport(NamedTuple):
    checks: Tuple[LemmaCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _check(checks: list, lemma: str, label: str, got, want) -> None:
    """Record whether `got` equals the transcription `want`; a failure shows `got`.

    A form is checked by its list of coefficients, each shown by `str`.
    """
    ok = got == want
    shown = [str(c) for c in got] if isinstance(got, list) else got
    checks.append(LemmaCheck(lemma, label, ok, "" if ok else f"got {shown}"))


def verify_lemma_expansions() -> LemmaReport:
    """Recompute every displayed expansion of the nullcone lemmas symbolically."""
    # multipoly's symbolic coefficient rings: only `verify-lemmas` needs them.
    from .multipoly import PolynomialRing

    checks: List[LemmaCheck] = []
    _nonic_case_checks(checks, PolynomialRing(tuple(f"a{i}" for i in range(10))))
    _pair_v2_v7_checks(checks, PolynomialRing(("b1", "b2", "b3", "b4")))
    _pair_v6_v3_checks(checks, PolynomialRing(("b1", "b2", "b3")))
    return LemmaReport(tuple(checks))


def _nonic_case_checks(checks: List[LemmaCheck], ring) -> None:
    lemma = "nonic-multiplicity"
    a = [ring.var(f"a{i}") for i in range(10)]

    # Generic nonic: p = (f, x^2)_2 = (1/72) sum_{i>=2} binom(9,i) i (i-1) a_i x^(9-i) y^(i-2)
    f = BinaryForm.from_a_convention(9, a)
    x2 = BinaryForm.monomial(2, 0)
    p = transvectant(f, x2, 2)
    from math import comb

    # coeffs[j] is the x^(7-j) y^j coefficient; term i lands at j = i - 2.
    expected_p = [Fraction(comb(9, i) * i * (i - 1), 72) * a[i] for i in range(2, 10)]
    _check(checks, lemma, "case1: p = (f, x^2)_2", list(p.coeffs), expected_p)

    # Case l = x^2: with a_6 = ... = a_9 = 0,
    # l = 70 a5^2 y^2 + 28 a4 a5 x y + (70 a4^2 - 112 a3 a5) x^2.
    f1 = BinaryForm.from_a_convention(9, a[:6] + [0] * 4)
    l1 = transvectant(f1, f1, 8)
    _check(
        checks, lemma, "case1: l with a6..a9 = 0", list(l1.coeffs),
        [70 * a[4] ** 2 - 112 * a[3] * a[5], 28 * a[4] * a[5], 70 * a[5] ** 2],
    )

    # Case l = 0, q = x^6: r = (f, x^6)_6 = a9 y^3 + 3 a8 x y^2 + 3 a7 x^2 y + a6 x^3.
    x6 = BinaryForm.monomial(6, 0)
    r1 = transvectant(f, x6, 6)
    _check(
        checks, lemma, "case q=x^6: r = (f, x^6)_6", list(r1.coeffs),
        [a[6], 3 * a[7], 3 * a[8], a[9]],
    )

    # ... then a_8 = a_9 = 0 and the full expansions of q and l.
    f2 = BinaryForm.from_a_convention(9, a[:8] + [0, 0])
    q2 = transvectant(f2, f2, 6)
    expected_q2 = [
        -20 * a[3] ** 2 + 30 * a[2] * a[4] - 12 * a[1] * a[5] + 2 * a[0] * a[6],
        -30 * a[3] * a[4] + 54 * a[2] * a[5] - 30 * a[1] * a[6] + 6 * a[0] * a[7],
        -90 * a[4] ** 2 + 114 * a[3] * a[5] - 12 * a[2] * a[6] - 18 * a[1] * a[7],
        -72 * a[4] * a[5] + 124 * a[3] * a[6] - 60 * a[2] * a[7],
        -90 * a[5] ** 2 + 114 * a[4] * a[6] - 12 * a[3] * a[7],
        -30 * a[5] * a[6] + 54 * a[4] * a[7],
        -20 * a[6] ** 2 + 30 * a[5] * a[7],
    ]
    _check(checks, lemma, "case q=x^6: q with a8 = a9 = 0", list(q2.coeffs), expected_q2)
    l2 = transvectant(f2, f2, 8)
    expected_l2 = [
        70 * a[4] ** 2 - 112 * a[3] * a[5] + 56 * a[2] * a[6] - 16 * a[1] * a[7],
        28 * a[4] * a[5] - 56 * a[3] * a[6] + 40 * a[2] * a[7],
        70 * a[5] ** 2 - 112 * a[4] * a[6] + 56 * a[3] * a[7],
    ]
    _check(checks, lemma, "case q=x^6: l with a8 = a9 = 0", list(l2.coeffs), expected_l2)

    # Case q = x^5 y: r = (f, x^5 y)_6 = -a8 y^3 - 3 a7 x y^2 - 3 a6 x^2 y - a5 x^3.
    x5y = BinaryForm.monomial(5, 1)
    r2 = transvectant(f, x5y, 6)
    _check(
        checks, lemma, "case q=x^5y: r = (f, x^5y)_6", list(r2.coeffs),
        [-a[5], -3 * a[6], -3 * a[7], -a[8]],
    )

    # ... then a_7 = a_8 = 0; the displayed q coefficients and l's y^2 one.
    f3 = BinaryForm.from_a_convention(9, a[:7] + [0, 0, a[9]])
    q3 = transvectant(f3, f3, 6)
    l3 = transvectant(f3, f3, 8)
    displayed = {
        6: -20 * a[6] ** 2 + 2 * a[3] * a[9],
        5: -30 * a[5] * a[6] + 6 * a[2] * a[9],
        4: -90 * a[5] ** 2 + 114 * a[4] * a[6] + 6 * a[1] * a[9],
        2: -90 * a[4] ** 2 + 114 * a[3] * a[5] - 12 * a[2] * a[6],
        1: -30 * a[3] * a[4] + 54 * a[2] * a[5] - 30 * a[1] * a[6],
    }
    for yexp, want in sorted(displayed.items()):
        # coeffs[yexp] is the coefficient of x^(6-yexp) y^yexp
        label = f"case q=x^5y: q coefficient of x^{6-yexp}y^{yexp}"
        _check(checks, lemma, label, q3.coeffs[yexp], want)
    want_c = 70 * a[5] ** 2 - 112 * a[4] * a[6] + 2 * a[1] * a[9]
    _check(checks, lemma, "case q=x^5y: l coefficient of y^2", l3.coeffs[2], want_c)
    # Displayed elimination identity: 5 d5 a9 = -75 a4 d0 + 45 a5 d1 - a6 (9c + 22 d2)
    # with c the y^2 coefficient of l and d_i the x^i y^(6-i) coefficients of q.
    c = l3.coeffs[2]
    d = {i: q3.coeffs[6 - i] for i in range(7)}
    lhs = 5 * d[5] * a[9]
    rhs = -75 * a[4] * d[0] + 45 * a[5] * d[1] - a[6] * (9 * c + 22 * d[2])
    _check(checks, lemma, "case q=x^5y: elimination identity for a9", lhs, rhs)

    # Case q = x^4 y (x + y): r = (a7-a8) y^3 + 3(a6-a7) x y^2 + 3(a5-a6) x^2 y + (a4-a5) x^3.
    q_fix = BinaryForm(6, [0, 1, 1, 0, 0, 0, 0])
    r3 = transvectant(f, q_fix, 6)
    _check(
        checks, lemma, "case q=x^4y(x+y): r", list(r3.coeffs),
        [a[4] - a[5], 3 * (a[5] - a[6]), 3 * (a[6] - a[7]), a[7] - a[8]],
    )

    # ... then a_8 = a_7 = a_6; full q and l expansions.
    f4 = BinaryForm.from_a_convention(9, a[:7] + [a[6], a[6], a[9]])
    q4 = transvectant(f4, f4, 6)
    a0, a1, a2, a3, a4, a5, a6, a9 = (a[i] for i in (0, 1, 2, 3, 4, 5, 6, 9))
    expected_q4 = [
        -2 * (10 * a3 ** 2 - 15 * a2 * a4 + 6 * a1 * a5 - a0 * a6),
        -6 * (5 * a3 * a4 - 9 * a2 * a5 - a0 * a6 + 5 * a1 * a6),
        -6 * (15 * a4 ** 2 - 19 * a3 * a5 - a0 * a6 + 3 * a1 * a6 + 2 * a2 * a6),
        -2 * (36 * a4 * a5 - 3 * a1 * a6 + 30 * a2 * a6 - 62 * a3 * a6 - a0 * a9),
        -6 * (15 * a5 ** 2 + 3 * a2 * a6 + 2 * a3 * a6 - 19 * a4 * a6 - a1 * a9),
        -6 * (5 * a3 * a6 - 9 * a4 * a6 + 5 * a5 * a6 - a2 * a9),
        -2 * (6 * a4 * a6 - 15 * a5 * a6 + 10 * a6 ** 2 - a3 * a9),
    ]
    _check(checks, lemma, "case q=x^4y(x+y): q with a8 = a7 = a6", list(q4.coeffs), expected_q4)
    l4 = transvectant(f4, f4, 8)
    expected_l4 = [
        2 * (35 * a4 ** 2 - 56 * a3 * a5 + a0 * a6 - 8 * a1 * a6 + 28 * a2 * a6),
        2 * (14 * a4 * a5 - 7 * a1 * a6 + 20 * a2 * a6 - 28 * a3 * a6 + a0 * a9),
        2 * (35 * a5 ** 2 - 8 * a2 * a6 + 28 * a3 * a6 - 56 * a4 * a6 + a1 * a9),
    ]
    _check(checks, lemma, "case q=x^4y(x+y): l with a8 = a7 = a6", list(l4.coeffs), expected_l4)


def _pair_v2_v7_checks(checks: List[LemmaCheck], ring) -> None:
    lemma = "pair-V2+V7"
    b1, b2, b3, b4 = ring.vars()
    # g = x^2, h = y^4 (b1 x^3 + b2 x^2 y + b3 x y^2 + b4 y^3)
    g = BinaryForm.monomial(2, 0)
    h = BinaryForm(7, [0, 0, 0, 0, b1, b2, b3, b4])
    hh6 = transvectant(h, h, 6)
    _check(
        checks, lemma, "((h,h)_6, g)_2 = -4/245 b1^2", transvectant(hh6, g, 2).scalar(),
        Fraction(-4, 245) * b1 ** 2,
    )
    _check(
        checks, lemma, "((h,h)_4, g^3)_6 = 2/735 (5 b2^2 - 12 b1 b3)",
        transvectant(transvectant(h, h, 4), g.power(3), 6).scalar(),
        Fraction(2, 735) * (5 * b2 ** 2 - 12 * b1 * b3),
    )
    _check(
        checks, lemma, "((h,h)_2, g^5)_10 = -2/147 (3 b3^2 - 7 b2 b4)",
        transvectant(transvectant(h, h, 2), g.power(5), 10).scalar(),
        Fraction(-2, 147) * (3 * b3 ** 2 - 7 * b2 * b4),
    )
    _check(
        checks, lemma, "(h^2, g^7)_14 = b4^2", transvectant(h * h, g.power(7), 14).scalar(),
        b4 ** 2,
    )


def _pair_v6_v3_checks(checks: List[LemmaCheck], ring) -> None:
    lemma = "pair-V6+V3"
    b1, b2, b3 = ring.vars()
    # g = x^4 (b1 x^2 + b2 x y + b3 y^2)
    g = BinaryForm(6, [b1, b2, b3, 0, 0, 0, 0])

    # Case h = y^3.
    h = BinaryForm.monomial(0, 3)
    _check(
        checks, lemma, "case h=y^3: ((g^2, g)_6, h^2)_6 = 1/495 b3^3",
        transvectant(transvectant(g * g, g, 6), h * h, 6).scalar(),
        Fraction(1, 495) * b3 ** 3,
    )
    _check(
        checks, lemma, "case h=y^3: (((g,g)_2, g)_1, h^4)_12 = -1/540 b2 (5 b2^2 - 18 b1 b3)",
        transvectant(transvectant(transvectant(g, g, 2), g, 1), h.power(4), 12).scalar(),
        Fraction(-1, 540) * b2 * (5 * b2 ** 2 - 18 * b1 * b3),
    )
    _check(checks, lemma, "case h=y^3: (g, h^2)_6 = b1", transvectant(g, h * h, 6).scalar(), b1)

    # Case h = x y^2.
    h = BinaryForm.monomial(1, 2)
    _check(
        checks, lemma, "case h=xy^2: (g, h^2)_6 = 1/15 b3", transvectant(g, h * h, 6).scalar(),
        Fraction(1, 15) * b3,
    )
    _check(
        checks, lemma, "case h=xy^2: (g, (h,h)_2^3)_6 = -8/729 b1",
        transvectant(g, transvectant(h, h, 2).power(3), 6).scalar(),
        Fraction(-8, 729) * b1,
    )
    _check(
        checks, lemma, "case h=xy^2: (g, (h^3, h)_3)_6 = 1/84 b2",
        transvectant(g, transvectant(h.power(3), h, 3), 6).scalar(),
        Fraction(1, 84) * b2,
    )
