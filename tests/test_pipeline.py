import random
from collections import Counter

import numpy as np
import pytest

from binforms import pipeline
from binforms.catalog import catalog_for
from binforms.exprs import F, Pow, Tr, expr_meta
from binforms.modlinalg import StreamingEchelon, rank
from binforms.pipeline import (
    BasisRecord,
    CandidateGenerator,
    PipelineConfig,
    PointEvaluations,
    SaturationError,
    certify_hsop,
    compute_dm,
    find_basic_invariants,
    ideal_membership_dim,
    jacobian_rank,
    membership_basis,
    monomial_counts,
    vanish_on_nullcone_sample,
)
from binforms.series import SEED_DEGREES, invariant_dimension, poincare_series, to_rational

CFG = PipelineConfig(seed=1)
P = CFG.prime


def _monomials_of_degree(basis, m):
    """Multisets of basis records with total degree exactly m, lazily: the
    monomials of `_monomial_products` with a no-op product."""
    return (mono for mono, _ in pipeline._monomial_products(basis, m, None, lambda acc, j, k: None))


def _dummy_records(degree_counts):
    recs = []
    for degree, count in sorted(degree_counts.items()):
        for k in range(count):
            recs.append(BasisRecord(f"g{degree}_{k}", degree, F))
    return recs


def test_degree20_monomial_counts_match_published_construction():
    # Full enumeration over the discovered generator counts gives 225
    # monomials of degree 20; restricting to monomials divisible by one of
    # the nine listed low-degree invariants (both quartics, all five
    # octics, and the last two decics) leaves the published 219.
    counts = {4: 2, 8: 5, 10: 5, 12: 14, 14: 17, 16: 21, 18: 25}
    recs = _dummy_records(counts)
    all_monos = list(_monomials_of_degree(recs, 20))
    assert len(all_monos) == 225
    required = set(range(7)) | {10, 11}
    restricted = [m for m in all_monos if any(idx in required for idx, _ in m)]
    assert len(restricted) == 219
    quartics = _dummy_records({4: 2})
    assert len(list(_monomials_of_degree(quartics, 8))) == 3  # P^2, PQ, Q^2
    assert list(_monomials_of_degree(quartics, 6)) == []
    # The same two numbers from the series prod 1/(1 - t^deg r): a monomial
    # avoids the nine listed invariants exactly when it is one in the others.
    series = monomial_counts(recs, 20)
    assert series[20] == 225
    others = [r for i, r in enumerate(recs) if i not in required]
    assert 225 - monomial_counts(others, 20)[20] == 219
    assert series == [len(list(_monomials_of_degree(recs, m))) for m in range(21)]


def test_monomial_enumeration_is_deterministic():
    recs = _dummy_records({4: 2, 8: 1})
    a = list(_monomials_of_degree(recs, 12))
    b = list(_monomials_of_degree(recs, 12))
    assert a == b
    assert a[0] == ((0, 3),)  # first record, cubed, comes first


def _unpruned_monomials(basis, m):
    """The enumeration before the suffix-table pruning, kept as the order oracle."""

    def rec(i, remaining):
        if remaining == 0:
            yield ()
            return
        for j in range(i, len(basis)):
            d = basis[j].degree
            for k in range(remaining // d, 0, -1):
                for rest in rec(j + 1, remaining - k * d):
                    yield ((j, k),) + rest

    return list(rec(0, m))


def test_pruned_enumeration_keeps_the_unpruned_order():
    rng = random.Random(15)
    for _ in range(40):
        degrees = sorted(rng.choice((2, 3, 4, 6, 7, 9, 10)) for _ in range(rng.randint(1, 8)))
        recs = [BasisRecord(f"r{i}", d, F) for i, d in enumerate(degrees)]
        for m in range(-1, 25):
            assert list(_monomials_of_degree(recs, m)) == _unpruned_monomials(recs, m), (degrees, m)


def test_product_rows_carry_the_products_of_each_monomial():
    cat = catalog_for(9)
    names = ("j_4", "A_4", "B_8", "j_12")
    recs = [BasisRecord(name, cat[name].degree, cat[name].expr) for name in names]
    pe = PointEvaluations(9, P, 1, 12, "products")
    unit = pe.vector(cat["D_10"].expr)
    for m in (0, 4, 8, 12, 16):
        want = []
        for mono in _unpruned_monomials(recs, m):
            vec = unit.copy()
            for idx, k in mono:
                for _ in range(k):
                    vec = vec * pe.vector(recs[idx].expr) % P
            want.append(vec.tolist())
        got = [row.tolist() for row in pipeline._product_rows(pe, recs, m, P, unit)]
        assert got == want, m


def test_evaluate_at_points_single_row():
    cat = catalog_for(9)
    pe = PointEvaluations(9, P, 1, 3, "t1")
    M = np.vstack([pe.vector(e) for e in [cat["j_4"].expr]])
    assert M.shape == (1, 3)


def test_evaluate_at_points_proportional_rows_rank_one():
    cat = catalog_for(9)
    j4 = cat["j_4"].expr
    pe = PointEvaluations(9, P, 1, 6, "t2")
    # duplicated (and hence proportional) rows collapse to rank 1
    M = np.vstack([pe.vector(e) for e in [j4, j4]])
    assert rank(M, P) == 1
    # while j_4 and j_4^2 are honestly independent as functions
    M2 = np.vstack([pe.vector(e) for e in [j4, Tr(j4, j4, 0)]])
    assert rank(M2, P) == 2


def test_degree8_catalog_set_spans():
    cat = catalog_for(9)
    j4, a4 = cat["j_4"].expr, cat["A_4"].expr
    exprs = [
        cat["j_8"].expr, cat["A_8"].expr, cat["B_8"].expr,
        cat["C_8"].expr, cat["D_8"].expr,
        Pow(j4, 2), Pow(a4, 2), Tr(a4, j4, 0),
    ]
    pe = PointEvaluations(9, P, 1, 8 + 6, "deg8")
    M = np.vstack([pe.vector(e) for e in exprs])
    assert rank(M, P) == 8 == invariant_dimension(9, 8)


def test_degree8_rows_reach_target_rank_streamed():
    # the same eight rows, consumed through the streaming echelon
    cat = catalog_for(9)
    j4, a4 = cat["j_4"].expr, cat["A_4"].expr
    exprs = [
        cat["j_8"].expr, cat["A_8"].expr, cat["B_8"].expr,
        cat["C_8"].expr, cat["D_8"].expr,
        Pow(j4, 2), Pow(a4, 2), Tr(a4, j4, 0),
    ]
    pe = PointEvaluations(9, P, 1, 10, "deg8stream")
    ech = StreamingEchelon(P, 10)
    ech.add_rows(np.vstack([pe.vector(e) for e in exprs]), stop_at=8)
    assert ech.rank == 8


def test_degree10_catalog_set_spans():
    cat = catalog_for(9)
    exprs = [cat[n].expr for n in ("j_10", "A_10", "B_10", "C_10", "D_10")]
    pe = PointEvaluations(9, P, 1, 5 + 6, "deg10")
    M = np.vstack([pe.vector(e) for e in exprs])
    assert rank(M, P) == 5 == invariant_dimension(9, 10)


def test_compute_dm_inconclusive_without_candidate_budget(monkeypatch):
    # a negative budget forbids any draw, so degrees needing new generators
    # must surface as inconclusive rather than a wrong d_m
    monkeypatch.setattr(pipeline, "CANDIDATE_BUDGET", -(10 ** 6))
    with pytest.raises(SaturationError):
        compute_dm(9, 4, [], CFG)


def test_candidate_generator_determinism_and_metadata():
    g1 = CandidateGenerator(9, seed=7)
    g2 = CandidateGenerator(9, seed=7)
    s1, s2 = g1.candidates(4), g2.candidates(4)
    for _ in range(5):
        c1, c2 = next(s1), next(s2)
        assert c1 == c2
        assert expr_meta(c1, 9) == (0, 4)


def test_candidate_generator_seed_changes_stream():
    a = next(CandidateGenerator(9, seed=1).candidates(8))
    b = next(CandidateGenerator(9, seed=2).candidates(8))
    assert expr_meta(a, 9) == expr_meta(b, 9) == (0, 8)


def test_compute_dm_first_degrees():
    ev4, recs4 = compute_dm(9, 4, [], CFG)
    assert (ev4.dim, ev4.product_rank, ev4.d) == (2, 0, 2)
    assert len(recs4) == 2
    ev6, recs6 = compute_dm(9, 6, recs4, CFG)
    assert ev6.d == 0 and recs6 == []
    ev8, recs8 = compute_dm(9, 8, recs4, CFG)
    assert (ev8.dim, ev8.products, ev8.product_rank, ev8.d) == (8, 3, 3, 5)


def test_fingerprints_nonzero_and_independent():
    table = find_basic_invariants(9, 8, CFG)
    values = PointEvaluations(9, P, 1, 32, "fingerprint")
    by_degree = {}
    for rec in table.records:
        fingerprint = values.vector(rec.expr)
        assert fingerprint.any(), rec.name
        by_degree.setdefault(rec.degree, []).append(fingerprint)
    for degree, fps in by_degree.items():
        assert rank(fps, P) == len(fps), degree


def test_find_basic_invariants_nonic_quick():
    table = find_basic_invariants(9, 12, CFG)
    assert table.nonzero() == {4: 2, 8: 5, 10: 5, 12: 14}
    # evidence invariants: each degree adjoins d generators, named in order
    adjoined = Counter(rec.degree for rec in table.records)
    assert sum(adjoined.values()) == table.total()
    for m, ev in table.evidence.items():
        assert ev.product_rank <= ev.dim
        assert ev.d == ev.dim - ev.product_rank
        assert adjoined[m] == ev.d
        names = [rec.name for rec in table.records if rec.degree == m]
        assert names == [f"i{m}_{k}" for k in range(1, ev.d + 1)]


def test_find_basic_invariants_dm_stable_across_seeds_and_primes():
    base = find_basic_invariants(9, 10, CFG).nonzero()
    for cfg in (
        PipelineConfig(seed=2),
        PipelineConfig(seed=3),
        PipelineConfig(prime=31013, seed=1),
        PipelineConfig(prime=65537, seed=4),
    ):
        assert find_basic_invariants(9, 10, cfg).nonzero() == base


def test_sextic_campaign_matches_classical_degrees():
    table = find_basic_invariants(6, 15, PipelineConfig(seed=5))
    assert table.nonzero() == {2: 1, 4: 1, 6: 1, 10: 1, 15: 1}
    assert table.total() == 5


def test_stop_bound_halts_sextic_campaign():
    # numerator degree for (2, 4, 6, 10) is 15, so degrees above 15 are
    # never attempted even when max_degree is larger
    table = find_basic_invariants(6, 30, PipelineConfig(seed=6))
    assert max(table.evidence) == 15
    assert table.total() == 5


def test_stop_bound_is_the_numerator_degree_or_the_largest_seed_degree():
    # Secondaries reach the numerator degree, primaries their own degrees.
    for n, seed in SEED_DEGREES.items():
        rat = to_rational(poincare_series(n, sum(seed) + max(seed)), seed)
        bound = max(rat.numerator_degree, max(seed))
        assert pipeline.campaign_top(n, 10 ** 6) == bound, n
        assert pipeline.campaign_top(n, bound - 1) == bound - 1, n
    # Only the cubic's discriminant lies above its numerator degree, 0.
    assert {n: pipeline.campaign_top(n, 10 ** 6) for n in SEED_DEGREES} == {
        3: 4, 6: 15, 7: 48, 9: 66, 10: 48
    }
    # No seed sequence, no stop bound.
    assert pipeline.campaign_top(5, 10 ** 6) == 10 ** 6
    assert pipeline.campaign_top(8, 10 ** 6) == 10 ** 6


def test_prime_guard():
    with pytest.raises(ValueError):
        find_basic_invariants(9, 4, PipelineConfig(prime=17, seed=1))


def test_jacobian_rank_trivials():
    cat = catalog_for(9)
    j4 = cat["j_4"].expr
    assert jacobian_rank([j4], [[0] * 10], 9, P) == (0,)  # gradient vanishes at 0
    rng = random.Random(0)
    pt = [rng.randrange(P) for _ in range(10)]
    dep = Tr(Pow(j4, 2), j4, 0)  # j_4^3: functionally dependent on j_4
    assert jacobian_rank([j4, dep], [pt], 9, P) == (1,)
    thm = [e.expr for e in cat.hsop()]
    assert jacobian_rank(thm, [pt], 9, P) == (7,)
    # One batch of several points gives each point its own rank.
    assert jacobian_rank([j4, dep], [pt, [0] * 10, pt], 9, P) == (1, 0, 1)


def test_jacobian_rank_scaling_invariance():
    cat = catalog_for(9)
    rng = random.Random(1)
    pt = [rng.randrange(P) for _ in range(10)]
    exprs = [cat["j_4"].expr, cat["B_8"].expr]
    scaled = [Tr(e, e, 0) for e in exprs]  # squares: same vanishing, rank <= base
    (base_rank,) = jacobian_rank(exprs, [pt], 9, P)
    assert base_rank == 2
    assert jacobian_rank(exprs + scaled, [pt], 9, P) == (2,)


def test_vanish_sample_flagged_set():
    cat = catalog_for(9)
    thm = [e.expr for e in cat.hsop()]
    rep = vanish_on_nullcone_sample(thm, 9, trials=25, seed=3, prime=P)
    assert rep.nullform_all_vanish == 25
    assert rep.nullform_failures == ()
    assert rep.generic_all_vanish == 0


def test_vanish_sample_single_invariant_direction():
    cat = catalog_for(9)
    rep = vanish_on_nullcone_sample([cat["j_4"].expr], 9, trials=25, seed=4, prime=P)
    assert rep.nullform_all_vanish == 25


def test_ideal_membership_quick_degrees():
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    basis = find_basic_invariants(9, 8, CFG).records
    expected = {4: (2, 1), 8: (8, 3), 12: (28, 11)}
    for i, (dim, ideal_dim) in expected.items():
        res = ideal_membership_dim(thm, basis, i, 9, CFG)
        assert res.dim == dim
        assert res.rank == ideal_dim
        assert res.expected_ideal_dim == ideal_dim
        assert res.consistent
        assert res.a_coefficient == dim - ideal_dim


def test_ideal_membership_requires_reachable_basis():
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    with pytest.raises(ValueError):
        ideal_membership_dim(thm, [], 12, 9, CFG)


def test_membership_basis_reaches_the_top_degree_less_the_smallest_set_degree():
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in catalog_for(9).hsop()]
    need, basis = membership_basis(thm, (2, 12), 9, CFG)
    assert need == 12 - 4 and [rec.degree for rec in basis] == [4] * 2 + [8] * 5
    assert membership_basis(thm, (0, 2), 9, CFG) == (0, [])


def test_certify_flagged_parameter_system():
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    # The membership basis comes from the campaign to degree 12 - 4 = 8.
    report = certify_hsop(thm, 9, CFG, membership_degrees=(4, 8, 12), nullcone_trials=25)
    assert report.verdict == "certified-at-sampling-level"
    assert max(report.jacobian_ranks) == 7
    assert (report.nullform_vanishing, report.generic_all_vanish) == ("25/25", 0)
    assert all(m.consistent for m in report.membership)


def test_certify_refutes_wrong_count():
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    report = certify_hsop(thm[:-1], 9, CFG)
    assert report.verdict == "refuted"
    assert report.reasons == ("expected 7 invariants, got 6",)


def test_certify_refutes_dependent_replacement():
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    j4 = cat["j_4"].expr
    swapped = thm[:-1] + [BasisRecord("j_4^4", 16, Pow(j4, 4))]
    report = certify_hsop(swapped, 9, CFG, nullcone_trials=5)
    assert report.verdict == "refuted"
    assert max(report.jacobian_ranks) <= 6


def test_certify_without_nullform_trials_is_inconclusive():
    # no nullform sampled means no nullcone evidence in either direction
    cat = catalog_for(9)
    thm = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
    report = certify_hsop(thm, 9, CFG, nullcone_trials=0)
    assert report.verdict == "inconclusive"
    assert (report.nullform_vanishing, report.generic_all_vanish) == ("0/0", 0)
    assert any("not sampled" in r for r in report.reasons)


@pytest.mark.xfail(strict=True, reason="the sampling-level checks pass a set that is no hsop")
def test_certify_does_not_pass_a_squared_member_of_a_filter_failing_set():
    # Squaring B_12 keeps the radical, so this set has the zero set of
    # j_4, A_4, D_10, j_12, B_12, j_14, j_16, whose degrees fail the t = 4
    # filter (2 divisible by 8 needed, 1 found): neither set is an hsop.
    cat = catalog_for(9)
    cands = [BasisRecord(name, cat[name].degree, cat[name].expr)
             for name in ("j_4", "A_4", "D_10", "j_12", "j_14", "j_16")]
    cands.append(BasisRecord("B_12^2", 24, Pow(cat["B_12"].expr, 2)))
    # The membership basis comes from the campaign to degree 12 - 4 = 8.
    report = certify_hsop(cands, 9, CFG, membership_degrees=(4, 8, 12), nullcone_trials=10)
    assert report.verdict != "certified-at-sampling-level"


def test_small_order_catalog_sets_certify():
    for n in (3, 6, 7):
        cat = catalog_for(n)
        cands = [BasisRecord(e.name, e.degree, e.expr) for e in cat.hsop()]
        report = certify_hsop(cands, n, PipelineConfig(seed=8), nullcone_trials=10)
        assert report.verdict == "certified-at-sampling-level", (n, report.reasons)
