"""Lattice proofs of the displayed identities of the nullcone lemmas.

`verify_lemma_expansions` checks every displayed covariant expansion and
scalar identity of the three nullcone reduction lemmas (the nonic case
analysis and the pair-nullcone reductions for V_2 + V_7 and V_6 + V_3)
against hard-coded transcriptions, exact constants included.

Both sides of a check are polynomials in the lemma's symbolic coefficients
(a0..a9, b1..b4 or b1..b3) of total degree at most the bound the check
states.  Such a polynomial in k variables is fixed by its values on the
principal lattice {x in Z_{>=0}^k : sum x <= d} for any d at least that
bound (Chung & Yao, SIAM J. Numer. Anal. 14, 1977), so agreement there is a
proof.  Each lemma has one lattice, at its largest bound: 286, 15 and 20
points.  A variable is its lattice column, an object array of Python ints,
and a form is its (points, order + 1) coefficient array, so the
transcriptions keep their written form; every transvectant is one exact
`batch.transvect` call times its Fraction prefactor.  A failed check names
the first lattice point where the sides differ, and both values there.

Only `verify-lemmas` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, perm
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .batch import transvect


class LemmaCheck(NamedTuple):
    lemma: str
    label: str
    ok: bool
    detail: str = ""


def principal_lattice(k: int, d: int) -> np.ndarray:
    """The points x of Z_{>=0}^k with sum x <= d, by total degree, as a
    (C(k + d, d), k) object array of Python ints."""
    return np.array(
        [
            [combo.count(i) for i in range(k)]
            for s in range(d + 1)
            for combo in combinations_with_replacement(range(k), s)
        ],
        dtype=object,
    )


def _form(rows: int, coeffs: Sequence) -> np.ndarray:
    """The (rows, order + 1) array of the form with these coefficients, each
    a column of values or a constant."""
    out = np.empty((rows, len(coeffs)), dtype=object)
    for j, c in enumerate(coeffs):
        out[:, j] = c
    return out


def _a_form(rows: int, a: Sequence) -> np.ndarray:
    """sum_i binom(n, i) * a_i * x^(n-i) * y^i, the classical a-convention."""
    return _form(rows, [ai * comb(len(a) - 1, i) for i, ai in enumerate(a)])


def _monomial(rows: int, xexp: int, yexp: int) -> np.ndarray:
    """The form x^xexp * y^yexp."""
    return _form(rows, [0] * yexp + [1] + [0] * xexp)


def _tr(g: np.ndarray, h: np.ndarray, k: int) -> np.ndarray:
    """(g, h)_k at every point: one exact kernel call, times its prefactor."""
    m, n = g.shape[1] - 1, h.shape[1] - 1
    return transvect(g, h, k, None) * Fraction(1, perm(m, k) * perm(n, k))


def _power(g: np.ndarray, k: int) -> np.ndarray:
    """g^k, a chain of products (0-th transvectants)."""
    out = g
    for _ in range(k - 1):
        out = _tr(out, g, 0)
    return out


def _compare(names: Sequence[str], points: np.ndarray, got: np.ndarray, want) -> str:
    """'' when the two sides agree at every lattice point; else the first
    point where they differ and both values there.

    `got` is a form's array or one coefficient column.  `want` is the
    transcription: a list of coefficients for a form, else one coefficient;
    each is a column or a constant.
    """
    rows = len(points)
    is_form = isinstance(want, list)
    got = got.reshape(rows, -1)
    want = _form(rows, want if is_form else [want])
    differ = np.flatnonzero((got != want).any(axis=1))
    if not len(differ):
        return ""
    i = differ[0]
    at = ", ".join(f"{v} = {x}" for v, x in zip(names, points[i]) if x)
    at = f"{at} (the other variables 0)" if at else "all variables 0"
    shown = [[str(c) for c in row] if is_form else str(row[0]) for row in (got[i], want[i])]
    return f"at {at}: got {shown[0]}, want {shown[1]}"


def run_lemma(lemma: str, names: Sequence[str], degree: int, transcribe: Callable):
    """The checks of one lemma on its degree-`degree` lattice.

    `transcribe(check, columns)` calls `check(label, bound, got, want)` once
    per displayed identity, with the total-degree bound of both sides.
    """
    points = principal_lattice(len(names), degree)
    checks: List[LemmaCheck] = []

    def check(label: str, bound: int, got: np.ndarray, want) -> None:
        if bound > degree:
            raise ValueError(f"{label}: degree bound {bound} exceeds the lattice's {degree}")
        detail = _compare(names, points, got, want)
        checks.append(LemmaCheck(lemma, label, not detail, detail))

    transcribe(check, list(points.T))
    return checks


def verify_lemma_expansions() -> Tuple[LemmaCheck, ...]:
    """Check every displayed expansion of the nullcone lemmas on its lattice."""
    return tuple(c for spec in LEMMAS for c in run_lemma(*spec))


def _nonic_case_checks(check: Callable, a: List[np.ndarray]) -> None:
    P = len(a[0])

    # Generic nonic: p = (f, x^2)_2 = (1/72) sum_{i>=2} binom(9,i) i (i-1) a_i x^(9-i) y^(i-2)
    f = _a_form(P, a)
    x2 = _monomial(P, 2, 0)
    p = _tr(f, x2, 2)
    # column j is the x^(7-j) y^j coefficient; term i lands at j = i - 2.
    expected_p = [Fraction(comb(9, i) * i * (i - 1), 72) * a[i] for i in range(2, 10)]
    check("case1: p = (f, x^2)_2", 1, p, expected_p)

    # Case l = x^2: with a_6 = ... = a_9 = 0,
    # l = 70 a5^2 y^2 + 28 a4 a5 x y + (70 a4^2 - 112 a3 a5) x^2.
    f1 = _a_form(P, a[:6] + [0] * 4)
    l1 = _tr(f1, f1, 8)
    check(
        "case1: l with a6..a9 = 0", 2, l1,
        [70 * a[4] ** 2 - 112 * a[3] * a[5], 28 * a[4] * a[5], 70 * a[5] ** 2],
    )

    # Case l = 0, q = x^6: r = (f, x^6)_6 = a9 y^3 + 3 a8 x y^2 + 3 a7 x^2 y + a6 x^3.
    x6 = _monomial(P, 6, 0)
    r1 = _tr(f, x6, 6)
    check("case q=x^6: r = (f, x^6)_6", 1, r1, [a[6], 3 * a[7], 3 * a[8], a[9]])

    # ... then a_8 = a_9 = 0 and the full expansions of q and l.
    f2 = _a_form(P, a[:8] + [0, 0])
    q2 = _tr(f2, f2, 6)
    expected_q2 = [
        -20 * a[3] ** 2 + 30 * a[2] * a[4] - 12 * a[1] * a[5] + 2 * a[0] * a[6],
        -30 * a[3] * a[4] + 54 * a[2] * a[5] - 30 * a[1] * a[6] + 6 * a[0] * a[7],
        -90 * a[4] ** 2 + 114 * a[3] * a[5] - 12 * a[2] * a[6] - 18 * a[1] * a[7],
        -72 * a[4] * a[5] + 124 * a[3] * a[6] - 60 * a[2] * a[7],
        -90 * a[5] ** 2 + 114 * a[4] * a[6] - 12 * a[3] * a[7],
        -30 * a[5] * a[6] + 54 * a[4] * a[7],
        -20 * a[6] ** 2 + 30 * a[5] * a[7],
    ]
    check("case q=x^6: q with a8 = a9 = 0", 2, q2, expected_q2)
    l2 = _tr(f2, f2, 8)
    expected_l2 = [
        70 * a[4] ** 2 - 112 * a[3] * a[5] + 56 * a[2] * a[6] - 16 * a[1] * a[7],
        28 * a[4] * a[5] - 56 * a[3] * a[6] + 40 * a[2] * a[7],
        70 * a[5] ** 2 - 112 * a[4] * a[6] + 56 * a[3] * a[7],
    ]
    check("case q=x^6: l with a8 = a9 = 0", 2, l2, expected_l2)

    # Case q = x^5 y: r = (f, x^5 y)_6 = -a8 y^3 - 3 a7 x y^2 - 3 a6 x^2 y - a5 x^3.
    x5y = _monomial(P, 5, 1)
    r2 = _tr(f, x5y, 6)
    check("case q=x^5y: r = (f, x^5y)_6", 1, r2, [-a[5], -3 * a[6], -3 * a[7], -a[8]])

    # ... then a_7 = a_8 = 0; the displayed q coefficients and l's y^2 one.
    f3 = _a_form(P, a[:7] + [0, 0, a[9]])
    q3 = _tr(f3, f3, 6)
    l3 = _tr(f3, f3, 8)
    displayed = {
        6: -20 * a[6] ** 2 + 2 * a[3] * a[9],
        5: -30 * a[5] * a[6] + 6 * a[2] * a[9],
        4: -90 * a[5] ** 2 + 114 * a[4] * a[6] + 6 * a[1] * a[9],
        2: -90 * a[4] ** 2 + 114 * a[3] * a[5] - 12 * a[2] * a[6],
        1: -30 * a[3] * a[4] + 54 * a[2] * a[5] - 30 * a[1] * a[6],
    }
    for yexp, want in sorted(displayed.items()):
        # column yexp is the coefficient of x^(6-yexp) y^yexp
        check(f"case q=x^5y: q coefficient of x^{6-yexp}y^{yexp}", 2, q3[:, yexp], want)
    want_c = 70 * a[5] ** 2 - 112 * a[4] * a[6] + 2 * a[1] * a[9]
    check("case q=x^5y: l coefficient of y^2", 2, l3[:, 2], want_c)
    # Displayed elimination identity: 5 d5 a9 = -75 a4 d0 + 45 a5 d1 - a6 (9c + 22 d2)
    # with c the y^2 coefficient of l and d_i the x^i y^(6-i) coefficients of q.
    c = l3[:, 2]
    d = {i: q3[:, 6 - i] for i in range(7)}
    lhs = 5 * d[5] * a[9]
    rhs = -75 * a[4] * d[0] + 45 * a[5] * d[1] - a[6] * (9 * c + 22 * d[2])
    check("case q=x^5y: elimination identity for a9", 3, lhs, rhs)

    # Case q = x^4 y (x + y): r = (a7-a8) y^3 + 3(a6-a7) x y^2 + 3(a5-a6) x^2 y + (a4-a5) x^3.
    q_fix = _form(P, [0, 1, 1, 0, 0, 0, 0])
    r3 = _tr(f, q_fix, 6)
    check(
        "case q=x^4y(x+y): r", 1, r3,
        [a[4] - a[5], 3 * (a[5] - a[6]), 3 * (a[6] - a[7]), a[7] - a[8]],
    )

    # ... then a_8 = a_7 = a_6; full q and l expansions.
    f4 = _a_form(P, a[:7] + [a[6], a[6], a[9]])
    q4 = _tr(f4, f4, 6)
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
    check("case q=x^4y(x+y): q with a8 = a7 = a6", 2, q4, expected_q4)
    l4 = _tr(f4, f4, 8)
    expected_l4 = [
        2 * (35 * a4 ** 2 - 56 * a3 * a5 + a0 * a6 - 8 * a1 * a6 + 28 * a2 * a6),
        2 * (14 * a4 * a5 - 7 * a1 * a6 + 20 * a2 * a6 - 28 * a3 * a6 + a0 * a9),
        2 * (35 * a5 ** 2 - 8 * a2 * a6 + 28 * a3 * a6 - 56 * a4 * a6 + a1 * a9),
    ]
    check("case q=x^4y(x+y): l with a8 = a7 = a6", 2, l4, expected_l4)


def _pair_v2_v7_checks(check: Callable, b: List[np.ndarray]) -> None:
    b1, b2, b3, b4 = b
    P = len(b1)
    # g = x^2, h = y^4 (b1 x^3 + b2 x^2 y + b3 x y^2 + b4 y^3)
    g = _monomial(P, 2, 0)
    h = _form(P, [0, 0, 0, 0, b1, b2, b3, b4])
    hh6 = _tr(h, h, 6)
    check("((h,h)_6, g)_2 = -4/245 b1^2", 2, _tr(hh6, g, 2), Fraction(-4, 245) * b1 ** 2)
    check(
        "((h,h)_4, g^3)_6 = 2/735 (5 b2^2 - 12 b1 b3)", 2,
        _tr(_tr(h, h, 4), _power(g, 3), 6),
        Fraction(2, 735) * (5 * b2 ** 2 - 12 * b1 * b3),
    )
    check(
        "((h,h)_2, g^5)_10 = -2/147 (3 b3^2 - 7 b2 b4)", 2,
        _tr(_tr(h, h, 2), _power(g, 5), 10),
        Fraction(-2, 147) * (3 * b3 ** 2 - 7 * b2 * b4),
    )
    check("(h^2, g^7)_14 = b4^2", 2, _tr(_power(h, 2), _power(g, 7), 14), b4 ** 2)


def _pair_v6_v3_checks(check: Callable, b: List[np.ndarray]) -> None:
    b1, b2, b3 = b
    P = len(b1)
    # g = x^4 (b1 x^2 + b2 x y + b3 y^2)
    g = _form(P, [b1, b2, b3, 0, 0, 0, 0])

    # Case h = y^3.
    h = _monomial(P, 0, 3)
    check(
        "case h=y^3: ((g^2, g)_6, h^2)_6 = 1/495 b3^3", 3,
        _tr(_tr(_power(g, 2), g, 6), _power(h, 2), 6),
        Fraction(1, 495) * b3 ** 3,
    )
    check(
        "case h=y^3: (((g,g)_2, g)_1, h^4)_12 = -1/540 b2 (5 b2^2 - 18 b1 b3)", 3,
        _tr(_tr(_tr(g, g, 2), g, 1), _power(h, 4), 12),
        Fraction(-1, 540) * b2 * (5 * b2 ** 2 - 18 * b1 * b3),
    )
    check("case h=y^3: (g, h^2)_6 = b1", 1, _tr(g, _power(h, 2), 6), b1)

    # Case h = x y^2.
    h = _monomial(P, 1, 2)
    check(
        "case h=xy^2: (g, h^2)_6 = 1/15 b3", 1, _tr(g, _power(h, 2), 6),
        Fraction(1, 15) * b3,
    )
    check(
        "case h=xy^2: (g, (h,h)_2^3)_6 = -8/729 b1", 1,
        _tr(g, _power(_tr(h, h, 2), 3), 6),
        Fraction(-8, 729) * b1,
    )
    check(
        "case h=xy^2: (g, (h^3, h)_3)_6 = 1/84 b2", 1,
        _tr(g, _tr(_power(h, 3), h, 3), 6),
        Fraction(1, 84) * b2,
    )


# (lemma, variable names, lattice degree: the largest bound its checks state, transcription)
LEMMAS: Tuple[Tuple[str, Tuple[str, ...], int, Callable], ...] = (
    ("nonic-multiplicity", tuple(f"a{i}" for i in range(10)), 3, _nonic_case_checks),
    ("pair-V2+V7", ("b1", "b2", "b3", "b4"), 2, _pair_v2_v7_checks),
    ("pair-V6+V3", ("b1", "b2", "b3"), 3, _pair_v6_v3_checks),
)
