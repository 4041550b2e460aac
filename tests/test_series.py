from math import prod

import pytest

from binforms.series import (
    SEED_DEGREES,
    PoincareRational,
    check_sequence,
    ecriture_minimale_search,
    invariant_dimension,
    min_degree_count,
    poincare_series,
    restrictions,
    to_rational,
)
from lowering_operator import dimension_by_lowering_operator

# Printed expansion of the nonic series: every nonzero dimension through 66.
NONIC_DIMS = {
    0: 1, 4: 2, 8: 8, 10: 5, 12: 28, 14: 27, 16: 84, 18: 99, 20: 217, 22: 273,
    24: 506, 26: 647, 28: 1066, 30: 1367, 32: 2082, 34: 2649, 36: 3811,
    38: 4796, 40: 6612, 42: 8228, 44: 10960, 46: 13483, 48: 17487, 50: 21274,
    52: 26979, 54: 32490, 56: 40443, 58: 48242, 60: 59107, 62: 69885,
    64: 84470, 66: 99074,
}

# Printed numerator for denominator degrees (4, 8, 10, 12, 12, 14, 16).
NONIC_NUMERATOR = {
    0: 1, 4: 1, 8: 5, 10: 4, 12: 17, 14: 20, 16: 47, 18: 61, 20: 97, 22: 120,
    24: 165, 26: 189, 28: 223, 30: 241, 32: 254, 34: 254, 36: 241, 38: 223,
    40: 189, 42: 165, 44: 120, 46: 97, 48: 61, 50: 47, 52: 20, 54: 17,
    56: 4, 58: 5, 62: 1, 66: 1,
}

DIXMIER_DEGREES = (4, 8, 10, 12, 12, 14, 16)


def test_nonic_series_matches_printed_expansion():
    table = poincare_series(9, 66)
    for d in range(67):
        assert table[d] == NONIC_DIMS.get(d, 0), d


def test_odd_degrees_vanish():
    table = poincare_series(9, 66)
    assert all(table[d] == 0 for d in range(1, 67, 2))


def test_spot_dimensions():
    assert invariant_dimension(9, 4) == 2
    assert invariant_dimension(9, 20) == 217
    assert invariant_dimension(9, 3) == 0
    # sextic: P(t) = (1 + t^15) / ((1-t^2)(1-t^4)(1-t^6)(1-t^10)),
    # so the expansion starts 1 + t^2 + 2 t^4 + 3 t^6 + ...
    assert invariant_dimension(6, 2) == 1
    assert invariant_dimension(6, 4) == 2
    assert invariant_dimension(6, 6) == 3
    assert invariant_dimension(1, 0) == 1


def _gaussian_binomials(n_max: int, d_max: int) -> dict:
    """[n+d, d]_q by q-Pascal: G(n, d) = G(n, d-1) + q^d G(n-1, d)."""
    G = {}
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            if n == 0 or d == 0:
                G[n, d] = [1]
                continue
            out = G[n, d - 1] + [0] * n
            for j, c in enumerate(G[n - 1, d]):
                out[j + d] += c
            G[n, d] = out
    return G


def test_incremental_series_matches_q_pascal_through_degree_109():
    G = _gaussian_binomials(12, 109)
    for n in range(1, 13):
        want = []
        for d in range(110):
            w, box = n * d // 2, G[n, d]
            if (n * d) % 2:
                want.append(0)
            else:
                want.append(box[w] - (box[w - 1] if w else 0))
        assert poincare_series(n, 109) == tuple(want), n
        assert invariant_dimension(n, 109) == want[109]


def test_sextic_series_matches_its_rational_form():
    table = poincare_series(6, 40)
    rat = to_rational(table, (2, 4, 6, 10))
    assert rat is not None
    want = [0] * 16
    want[0] = want[15] = 1
    assert list(rat.numerator) == want


def test_cubic_series_is_powers_of_degree_four():
    table = poincare_series(3, 20)
    for d in range(21):
        assert table[d] == (1 if d % 4 == 0 else 0)


def test_lowering_operator_oracle_agreement():
    for n in range(1, 7):
        for d in range(0, 11):
            assert invariant_dimension(n, d) == dimension_by_lowering_operator(n, d), (n, d)


def test_series_is_a_prefix_of_every_longer_series():
    # The pass stops the Gaussian binomial at index n * top / 2, so a shorter
    # run must read the same coefficients as a longer one.
    for n in range(1, 13):
        for D in range(1, 101):
            longer = poincare_series(n, D)
            for d in range(D):
                assert longer[: d + 1] == poincare_series(n, d), (n, d, D)


def test_hermite_reciprocity():
    for n in range(1, 9):
        for d in range(1, 9):
            assert invariant_dimension(n, d) == invariant_dimension(d, n)


def test_nonic_numerator_printed_coefficients():
    table = poincare_series(9, 92)
    rat = to_rational(table, DIXMIER_DEGREES)
    assert rat is not None
    assert rat.numerator_degree == 66
    for d in range(67):
        assert rat.numerator[d] == NONIC_NUMERATOR.get(d, 0), d


def test_numerator_palindrome():
    table = poincare_series(9, 92)
    num = to_rational(table, DIXMIER_DEGREES).numerator
    assert all(num[i] == num[66 - i] for i in range(67))


def test_rational_reexpansion_reproduces_table():
    table = poincare_series(9, 92)
    rat = to_rational(table, DIXMIER_DEGREES)
    assert rat.expand(92) == table


def test_to_rational_depth_error_distinct_from_rejection():
    shallow = poincare_series(9, 40)
    with pytest.raises(ValueError):
        to_rational(shallow, DIXMIER_DEGREES)
    # rejection (not error): a sequence that cannot carry the series
    table = poincare_series(9, 92)
    assert to_rational(table, (4, 4, 4, 4, 4, 4, 4)) is None


def test_to_rational_cubic():
    table = poincare_series(3, 8)
    rat = to_rational(table, (4,))
    assert rat is not None and rat.numerator == (1,)


def test_min_degree_counts():
    assert min_degree_count(9, 2) == (4, 4)
    assert min_degree_count(9, 3) == (2, 6)
    assert min_degree_count(9, 5) == (1, 10)
    # even order: divisor is t itself; n = 6, t = 2: gcd(3, 2) = 1 at j = 0
    assert min_degree_count(6, 2) == (3, 2)
    assert min_degree_count(6, 3) == (1, 3)


def test_check_sequence_table_rows_pass():
    assert check_sequence(9, (4, 8, 10, 12, 12, 14, 16)).ok
    assert check_sequence(9, (4, 4, 8, 10, 12, 14, 48)).ok


def test_check_sequence_failure_names_constraint():
    # no entry divisible by 10 -> the t = 5 restriction trips (and only it)
    res = check_sequence(9, (4, 4, 8, 12, 12, 14, 16))
    assert not res.ok
    assert [(t, divisor) for t, divisor, _, _ in res.violations] == [(5, 10)]
    # too few entries divisible by 6 and 8
    res = check_sequence(9, (4, 4, 4, 10, 12, 14, 16))
    assert not res.ok
    assert {t for t, _, _, _ in res.violations} == {3, 4}
    # every degree is 4 < 9, yet the restrictions for t = 5..8 still apply
    assert check_sequence(9, (4,) * 7).violations == (
        (3, 6, 2, 0), (4, 8, 2, 0), (5, 10, 1, 0), (6, 12, 1, 0), (7, 14, 1, 0),
        (8, 16, 1, 0),
    )


def test_no_restriction_above_the_order():
    for n in range(3, 13):
        for t in range(2, 4 * n + 1):
            required, _ = min_degree_count(n, t)
            assert t <= n or required == 0, (n, t)
        assert restrictions(n) == tuple(
            (t, divisor, required)
            for t in range(2, 4 * n + 1)
            for required, divisor in [min_degree_count(n, t)]
            if required
        )


# Sequences whose series times prod(1 - t^d) is not a polynomial: the exact
# division by the seed's denominator must fail, not just the sign test.
INEXACT = {
    7: [(4, 4, 8, 12, 20), (4, 8, 8, 12, 12)],
    9: [(4,) * 7, (4, 4, 8, 8, 12, 12, 16)],
}


def _times_one_minus(dims, degrees):
    """dims * prod(1 - t^d), truncated at len(dims)."""
    coeffs = list(dims)
    for d in degrees:
        coeffs = [c - (coeffs[j - d] if j >= d else 0) for j, c in enumerate(coeffs)]
    return coeffs


def _seed_form(n):
    seed = SEED_DEGREES[n]
    return to_rational(poincare_series(n, sum(seed) + max(seed)), seed)


@pytest.mark.parametrize("n", sorted(INEXACT))
def test_exact_division_agrees_with_the_table(monkeypatch, n):
    # The search's leaves are the sequences it rewrites the seed's form over.
    leaves = []
    over = PoincareRational.over

    def record(rat, degrees):
        leaves.append(tuple(degrees))
        return over(rat, degrees)

    monkeypatch.setattr(PoincareRational, "over", record)
    ecriture_minimale_search(n)
    monkeypatch.undo()
    assert leaves and max(map(sum, leaves)) <= 150
    reference = _seed_form(n)
    outcomes = set()
    for degrees in leaves + INEXACT[n]:
        table = poincare_series(n, sum(degrees) + max(degrees))
        got = reference.over(degrees)
        assert got == to_rational(table, degrees), degrees
        exact = not any(_times_one_minus(table, degrees)[sum(degrees) + 1:])
        outcomes.add((got is not None, exact))
        assert degrees not in INEXACT[n] or not exact
    # accepted, rejected for a negative coefficient, rejected as inexact
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_degree_sequence_invariants():
    # Rational forms hold their degrees sorted, and a zero degree is refused.
    table = poincare_series(9, 92)
    shuffled = (16, 4, 12, 10, 14, 12, 8)
    rat = to_rational(table, shuffled)
    assert rat == to_rational(table, DIXMIER_DEGREES)
    assert rat.degrees == DIXMIER_DEGREES
    assert rat.over(shuffled) == rat
    with pytest.raises(ValueError, match="degrees must be positive"):
        to_rational(table, (0, 4))


def test_ecriture_nonic_five_rows():
    rows = ecriture_minimale_search(9)
    assert [r.degrees for r in rows] == [
        (4, 4, 8, 10, 12, 14, 48),
        (4, 4, 8, 10, 12, 16, 42),
        (4, 4, 8, 12, 14, 16, 30),
        (4, 4, 10, 12, 14, 16, 24),
        (4, 8, 10, 12, 12, 14, 16),
    ]
    assert sorted(r.numerator_degree for r in rows) == [66, 74, 78, 86, 90]
    assert all(prod(r.degrees) == 10321920 for r in rows)
    assert all(isinstance(r, PoincareRational) for r in rows)


def test_ecriture_rows_have_valid_filters_and_numerators():
    for r in ecriture_minimale_search(9):
        assert check_sequence(9, r.degrees).ok
        assert all(c >= 0 for c in r.numerator)


def test_ecriture_limit_identity():
    # a(1) / prod(degrees) is the same for every returned row.
    rows = ecriture_minimale_search(9)
    from fractions import Fraction

    values = {Fraction(sum(r.numerator), prod(r.degrees)) for r in rows}
    assert len(values) == 1


def test_ecriture_septic_includes_both_known_rows():
    rows = {r.degrees for r in ecriture_minimale_search(7)}
    assert (4, 8, 12, 12, 20) in rows
    assert (4, 8, 8, 12, 30) in rows


def test_ecriture_cubic():
    rows = ecriture_minimale_search(3)
    assert [(r.degrees, r.numerator) for r in rows] == [((4,), (1,))]


def test_ecriture_needs_seed():
    with pytest.raises(ValueError, match="only for n = 3, 6, 7, 9, 10; got n = 5"):
        ecriture_minimale_search(5)


def test_extended_series_positive_dimensions():
    # The search reads the series beyond the table from the seed's form.
    extended = _seed_form(9).expand(199)
    assert extended == poincare_series(9, 199)
    # no invariants in degrees 2 and 6; every other even degree >= 4 has some
    assert not extended[2]
    assert not extended[6]
    assert extended[4]
    assert all(extended[d] for d in range(8, 200, 2))
