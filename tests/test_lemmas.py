"""The lattice checks of `binforms.lemmas` are proofs, and they catch a wrong
transcription.

A check compares both sides on the principal lattice of its lemma, which
fixes every polynomial of total degree at most the lattice's degree.  That
makes the check a proof only if both sides have total degree at most the
bound the check states, so the bounds are recomputed here symbolically: the
same transcriptions run on `MultiPoly` variables, one "point" whose
coordinates are the variables, and the degree of each side is read off.
"""

import inspect
import itertools
import re
import types
from functools import lru_cache
from math import comb, prod

import numpy as np
import pytest

from binforms import lemmas
from binforms.modlinalg import rank
from multipoly import MultiPoly, PolynomialRing


def _record(transcribe, cols):
    """Every (label, bound, got, want) that `transcribe` checks on `cols`."""
    out = []
    transcribe(lambda *args: out.append(args), cols)
    return out


def _symbolic(names):
    """The variables of `names` as one-point columns of `MultiPoly`s."""
    return [np.array([v], dtype=object) for v in PolynomialRing(names).vars()]


def _values(side) -> list:
    """The coefficients of one side of a check, flattened."""
    return [v for c in (side if isinstance(side, list) else [side]) for v in np.ravel(c)]


def _degree(value) -> int:
    if isinstance(value, MultiPoly):
        return value.total_degree()
    return 0 if value else -1


@lru_cache(maxsize=None)
def _symbolic_checks() -> tuple:
    """(lemma, lattice degree, label, bound, got, want) of every check, over
    `MultiPoly` variables."""
    return tuple(
        (lemma, degree, *rec)
        for lemma, names, degree, transcribe in lemmas.LEMMAS
        for rec in _record(transcribe, _symbolic(names))
    )


def test_lattices_have_their_binomial_sizes_and_fix_every_polynomial_of_their_degree():
    for (lemma, names, degree, _), size in zip(lemmas.LEMMAS, (286, 15, 20)):
        points = lemmas.principal_lattice(len(names), degree)
        k = len(names)
        assert points.shape == (size, k) == (comb(k + degree, degree), k), lemma
        sums = [sum(p) for p in points]
        assert sums == sorted(sums) and max(sums) == degree and min(map(min, points)) == 0
        assert len({tuple(p) for p in points}) == size
        # The monomials of degree <= d, as exponent vectors, are the same
        # set; their values at the points form a nonsingular matrix (rank
        # mod p equal to the size bounds the rational rank from below).
        V = [[prod(x ** e for x, e in zip(p, m)) for m in points] for p in points]
        assert rank(V, 32003) == size, lemma


def test_every_check_states_a_bound_at_least_both_sides_total_degree():
    assert len(_symbolic_checks()) == 26
    for lemma, degree, label, bound, got, want in _symbolic_checks():
        assert 1 <= bound <= degree, label
        got_degree = max(map(_degree, _values(got)))
        want_degree = max(map(_degree, _values(want)))
        assert got_degree <= bound and want_degree <= bound, (label, got_degree, want_degree)
        # The bound is attained: no check states more than it needs.
        assert max(got_degree, want_degree) == bound, label


def test_identities_hold_symbolically_too():
    # The same transcriptions over `MultiPoly` coefficients, compared term by
    # term: the lattice check and the symbolic expansion agree.
    for lemma, degree, label, bound, got, want in _symbolic_checks():
        assert _values(got) == _values(want), label


def _perturbed_run(target: int):
    """All 26 checks, with one monomial of degree `bound` added to the first
    coefficient of check `target`'s transcription; returns (checks, monomial
    exponents by variable name)."""
    index = itertools.count()
    added = {}
    checks = []
    for lemma, names, degree, transcribe in lemmas.LEMMAS:

        def perturbed(check, cols, transcribe=transcribe, names=names):
            def perturb(label, bound, got, want):
                if next(index) == target:
                    picks = [(target + j) % len(cols) for j in range(bound)]
                    added.update((names[i], picks.count(i)) for i in picks)
                    mono = prod(cols[i] for i in picks)
                    want = [want[0] + mono] + want[1:] if isinstance(want, list) else want + mono
                check(label, bound, got, want)

            transcribe(perturb, cols)

        checks += lemmas.run_lemma(lemma, names, degree, perturbed)
    return checks, added


AT = re.compile(r"^at (.*) \(the other variables 0\): got (.*), want (.*)$")


@pytest.mark.parametrize("target", range(26))
def test_one_monomial_off_fails_exactly_that_check_at_a_lattice_point(target):
    checks, added = _perturbed_run(target)
    assert len(checks) == 26
    assert [i for i, c in enumerate(checks) if not c.ok] == [target]
    match = AT.match(checks[target].detail)
    assert match, checks[target].detail
    point = dict(part.split(" = ") for part in match.group(1).split(", "))
    point = {v: int(x) for v, x in point.items()}
    # The added monomial is squarefree, so in graded order the first point
    # where it is not 0 is its own exponent vector.
    assert point == added
    assert match.group(2) != match.group(3)


def _mutant(old: str, new: str):
    """A copy of `binforms.lemmas` whose source has `old` replaced by `new`."""
    source = inspect.getsource(lemmas)
    assert source.count(old) == 1
    module = types.ModuleType("binforms._lemmas_mutant")
    module.__package__ = "binforms"
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    return module


def test_the_minus_16_to_minus_15_mutation_of_l_is_caught_at_a1_a7():
    checks = _mutant("- 16 * a[1] * a[7]", "- 15 * a[1] * a[7]").verify_lemma_expansions()
    failed = [c for c in checks if not c.ok]
    assert [c.label for c in failed] == ["case q=x^6: l with a8 = a9 = 0"]
    assert failed[0].detail == (
        "at a1 = 1, a7 = 1 (the other variables 0): "
        "got ['-16', '0', '0'], want ['-15', '0', '0']"
    )
