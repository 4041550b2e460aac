"""Basic-invariant discovery and parameter-system certification.

The discovery campaign works degree by degree.  For each degree m the
dimension table says how big the space of invariants I_m is; products of the
basic invariants already found are evaluated at dim + margin random points
over F_p and their rank measures how much of I_m is already known.  The
product rows, like the membership rows below, come from one lazy generator
(`_product_rows`) and go into `StreamingEchelon.add_rows`, which stops
drawing them once the rank reaches the dimension; the number of products is
read off the series prod 1 / (1 - t^deg r) instead (`monomial_counts`).
Every F_p value comes from `batch.BatchEvaluator`, which evaluates an
expression at all points of a set at once and memoizes shared subtrees per
set.  Random
transvectant trees of the right degree are then adjoined greedily, one rank
unit at a time, until the combined rank saturates the dimension; the number
of adjoined generators is d_m.  A campaign stored by `cache` is replayed
through the same `compute_dm`, its generators the only candidates.  Monte
Carlo ranks certify at sampling level only, so reports carry the prime, the
seed and the number of points that produced them.

Certification of a candidate parameter system combines four kinds of
evidence: the degree-divisibility filters, a Jacobian rank at sampled points
(algebraic independence), vanishing on random nullforms (exact, in the
integer mode of the batch) plus non-vanishing on generic forms (the nullcone
criterion, sampled in both directions), and
graded ideal-membership ranks compared against the numerator of the
Poincare rational form.
"""

from __future__ import annotations

import random
from itertools import chain
from math import ceil
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .batch import BatchEvaluator, check_int64
from .exprs import Expr, F, Tr
from .modlinalg import StreamingEchelon, rank as matrix_rank
from .nullcone import random_nullform
from .rings import is_prime, randbelow
from .series import (
    SEED_DEGREES, _div_one_minus_tk, check_sequence, invariant_dimension, poincare_series,
    to_rational,
)

if TYPE_CHECKING:
    from .cache import EvalCache, Stored


MARGIN_FRAC = 0.05
CANDIDATE_BUDGET = 600  # draws per degree, plus 80 per missing rank unit
JACOBIAN_POINTS = 5  # sampled points at which certify_hsop takes the Jacobian rank
NULLFORM_CHUNK = 16  # nullform trials per exact integer batch


class PipelineConfig(NamedTuple):
    prime: int = 32003
    seed: int = 1
    margin_floor: int = 10

    def margin(self, dim: int) -> int:
        return max(self.margin_floor, ceil(MARGIN_FRAC * dim))

    def validate(self, n: int, max_degree: int = 0) -> None:
        """Reject a prime or a margin the run cannot use, before any work starts.

        `max_degree` is the largest degree whose points the run will rank,
        and a retried degree doubles its margin.  Requiring points *
        (p - 1)^2 < 2^53 keeps the discovery and membership echelons on the
        float64 BLAS path; the streaming echelon would take int64 matrices
        beyond it.  The batched transvectant kernel is exact in int64 only
        within `batch.check_int64`'s bound for its operand orders, which the
        candidate pool keeps at most 2n.
        """
        if self.margin_floor < 0:
            raise ValueError(f"--points-margin must be >= 0, got {self.margin_floor}")
        if self.prime == 2 or not is_prime(self.prime):
            raise ValueError(f"prime {self.prime} is not an odd prime")
        if self.prime <= 2 * n + 1:
            raise ValueError(
                f"prime {self.prime} must exceed 2n + 1 = {2 * n + 1} so the "
                "transvectant prefactors stay invertible"
            )
        dims = poincare_series(n, max_degree)[1:]
        points = max((dim + 2 * self.margin(dim) for dim in dims if dim), default=0)
        if points * (self.prime - 1) ** 2 >= 2 ** 53:
            raise ValueError(
                f"prime {self.prime} is too large for exact ranks at {points} "
                "points: need points * (p - 1)^2 < 2^53"
            )
        check_int64(2 * n, 2 * n, self.prime)


def _random_forms(rng: random.Random, n: int, count: int, prime: int) -> np.ndarray:
    """`count` forms of order n over F_p, shape (count, n + 1), drawn row by row."""
    gb = rng.getrandbits
    return np.array(
        [[randbelow(gb, prime) for _ in range(n + 1)] for _ in range(count)],
        dtype=np.int64,
    ).reshape(count, n + 1)


class PointEvaluations:
    """Vectors of invariant values over `count` seeded random points, the
    forms `coeffs[i]` over F_p drawn from `points:{n}:{prime}:{seed}:{tag}:{count}`.

    Expressions are evaluated at every point at once; the batch memoizes
    every node, so shared subtrees are computed once per set.
    """

    def __init__(self, n: int, prime: int, seed: int, count: int, tag: str):
        self.count = count
        rng = random.Random(f"points:{n}:{prime}:{seed}:{tag}:{count}")
        self.coeffs = _random_forms(rng, n, count, prime)
        self._batch = BatchEvaluator(self.coeffs, prime)

    def vector(self, expr: Expr) -> np.ndarray:
        return self._batch.scalar(expr)[0]


class BasisRecord(NamedTuple):
    """One named invariant: a discovered basic invariant, or a member of a
    candidate parameter system (`certify_hsop`)."""

    name: str
    degree: int
    expr: Expr


def _suffix_counts(basis: Sequence[BasisRecord], top: int) -> List[List[int]]:
    """`table[j][r]`: the number of monomials of degree r (0..top) in the
    records `basis[j:]`, the coefficients of prod 1 / (1 - t^deg r) over them."""
    table = [[1] + [0] * top]
    for rec in reversed(basis):
        counts = list(table[-1])
        _div_one_minus_tk(counts, rec.degree)
        table.append(counts)
    return table[::-1]


def monomial_counts(basis: Sequence[BasisRecord], top: int) -> List[int]:
    """The number of basis monomials of each degree 0..top."""
    return _suffix_counts(basis, top)[0]


def _monomial_products(basis: Sequence[BasisRecord], m: int, unit, times) -> Iterator[tuple]:
    """Pairs (monomial, product) over the multisets of basis records with
    total degree exactly m, lazily.

    Each monomial is a tuple of (basis index, exponent) pairs, enumerated
    deterministically (earlier records first, higher exponents first).  The
    product is carried down the enumeration: a monomial's is
    `times(prefix product, j, k)` for its last pair (j, k), starting from
    `unit`, so monomials sharing leading factors share their products.  A
    branch whose remaining degree no later record can make up (by the suffix
    table of `_suffix_counts`) is not entered.
    """
    if m < 0:
        return
    reach = [[bool(c) for c in counts] for counts in _suffix_counts(basis, m)]

    def rec(i: int, remaining: int, acc) -> Iterator[tuple]:
        if remaining == 0:
            yield (), acc
            return
        for j in range(i, len(basis)):
            if not reach[j][remaining]:
                break
            d = basis[j].degree
            for k in range(remaining // d, 0, -1):
                if reach[j + 1][remaining - k * d]:
                    for rest, value in rec(j + 1, remaining - k * d, times(acc, j, k)):
                        yield ((j, k),) + rest, value

    yield from rec(0, m, unit)


def _product_rows(
    pevals: PointEvaluations,
    basis: Sequence[BasisRecord],
    m: int,
    prime: int,
    unit: Optional[np.ndarray] = None,
) -> Iterator[np.ndarray]:
    """The values of `unit` (default 1) times the degree-m basis monomials,
    in `_monomial_products` order."""

    def times(acc: np.ndarray, j: int, k: int) -> np.ndarray:
        base = pevals.vector(basis[j].expr)
        for _ in range(k):
            acc = acc * base % prime
        return acc

    if unit is None:
        unit = np.ones(pevals.count, dtype=np.int64)
    return (vec for _, vec in _monomial_products(basis, m, unit, times))


Closing = Tuple[int, int, int]  # (pool index i, pool index j >= i, order)


def _shuffle(rng: random.Random, items: list) -> None:
    """Shuffle `items` in place by Fisher-Yates: for i = L-1 .. 1, swap
    items[i] with items[randbelow(i + 1)]."""
    gb = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        j = randbelow(gb, i + 1)
        items[i], items[j] = items[j], items[i]


def _shuffle_draws(rng: random.Random, count: int) -> None:
    """Make the draws `_shuffle` makes on `count` items, without the items:
    `randbelow(n)` for n = count .. 2, its rejection loop written out."""
    getrandbits = rng.getrandbits
    for n in range(count, 1, -1):
        k = n.bit_length()
        while getrandbits(k) >= n:
            pass


class _ClosingIndex:
    """The closings of degree `m` among the first `scanned` pool entries.

    `groups` maps each order (in order of first appearance) to one list per
    pool entry of that order, in pool order, holding the closings the entry
    starts; `partners` finds those lists by (order, degree).  `count` is the
    number of closings held.
    """

    def __init__(self, m: int):
        self.m = m
        self.scanned = 0
        self.count = 0
        self.groups: Dict[int, List[List[Closing]]] = {}
        self.partners: Dict[Tuple[int, int], List[Tuple[int, List[Closing]]]] = {}


class CandidateGenerator:
    """Seeded random transvectant trees of prescribed degree and order 0.

    A pool of covariants (seeded with f and its nonzero quadratic
    transvectants) grows by random transvection; an invariant of degree m is
    emitted by closing a pool pair of equal orders whose degrees sum to m.
    The only contract is that emitted candidates eventually saturate I_m,
    which the caller verifies by rank.

    The pool only ever grows, so the closings of a degree are indexed
    incrementally: a new pool entry adds its pairs with the entries already
    indexed.  Only the latest degree is kept, since the campaign works one
    degree at a time; asking for another degree indexes the pool anew.  A
    closing is named by pool indices `(i, j, order)`; pool entries are
    distinct, so this is the identity of the transvectant
    `(pool[i], pool[j])_order`, which is built only when it is emitted.

    The rng draws are fixed by the seed: each pass shuffles the full list of
    closings (groups by first appearance of their order, pairs `i <= j` in
    lexicographic order, `(A, A)_odd` left out), emits those not yet emitted,
    then grows the pool.  The stream for a given seed therefore never
    depends on how the closings are found.  A stall pass, one that finds
    every closing already emitted, builds and shuffles no list: it makes
    the draws a shuffle of that many items makes (`_shuffle_draws`), which
    leaves the rng in the same state.

    Every draw goes through `rings.randbelow` on the rng's `getrandbits`:
    `grow` picks pool entries with `randbelow(len(pool))` and a transvectant
    index with `lo + randbelow(top + 1 - lo)`, `_shuffle` takes
    `randbelow(i + 1)`, and `_shuffle_draws` makes the same calls with the
    loop written out.  The streams equal those of CPython 3.11's
    `randrange`, `randint` and `shuffle` (tested), but depend only on
    `getrandbits`.
    """

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = random.Random(f"candidates:{seed}:{n}")
        self.order_cap = 2 * n
        self._pool: List[Tuple[Expr, int, int]] = [(F, n, 1)]
        self._seen_pool = {F}
        self._seen_out: set = set()
        # Closings emitted per degree.  The index of a degree scans the whole
        # pool, so it holds every closing of that degree emitted so far.
        self._emitted: Dict[int, int] = {}
        self._index = _ClosingIndex(0)
        for k in range(2, n + 1, 2):
            e = Tr(F, F, k)
            self._pool.append((e, 2 * n - 2 * k, 2))
            self._seen_pool.add(e)

    def grow(self, max_degree: int, steps: int = 12) -> None:
        gb = self.rng.getrandbits
        pool = self._pool
        for _ in range(steps):
            (ea, oa, da) = pool[randbelow(gb, len(pool))]
            (eb, ob, db) = pool[randbelow(gb, len(pool))]
            if da + db > max_degree:
                continue
            top = min(oa, ob)
            if top == 0:
                continue
            lo = 0 if oa + ob <= self.order_cap else 1
            idx = lo + randbelow(gb, top + 1 - lo)
            if ea == eb and idx % 2 == 1:
                continue  # (A, A)_odd vanishes identically
            order = oa + ob - 2 * idx
            if order == 0 or order > self.order_cap:
                continue
            e = Tr(ea, eb, idx)
            if e in self._seen_pool:
                continue
            self._seen_pool.add(e)
            pool.append((e, order, da + db))

    def _indexed(self, m: int) -> _ClosingIndex:
        """The index of the closings of degree m, extended to the whole pool."""
        if self._index.m != m:
            self._index = _ClosingIndex(m)
        index = self._index
        for i in range(index.scanned, len(self._pool)):
            _, o, d = self._pool[i]
            if o < 1 or d >= m:
                continue
            starts = [(i, i, o)] if 2 * d == m and o % 2 == 0 else []
            partners = index.partners.get((o, m - d), ())
            for j, partner_starts in partners:
                partner_starts.append((j, i, o))
            index.count += len(starts) + len(partners)
            index.groups.setdefault(o, []).append(starts)
            index.partners.setdefault((o, d), []).append((i, starts))
        index.scanned = len(self._pool)
        return index

    def _closings(self, m: int) -> List[Closing]:
        """Every closing of degree m in the current pool, in canonical order."""
        groups = self._indexed(m).groups.values()
        return list(chain.from_iterable(chain.from_iterable(groups)))

    def candidates(self, m: int) -> Iterator[Expr]:
        """Endless stream of distinct degree-m invariant expressions."""
        attempts_without_close = 0
        while True:
            index = self._indexed(m)
            emitted = False
            if index.count == self._emitted.get(m, 0):
                _shuffle_draws(self.rng, index.count)
            else:
                closings = self._closings(m)
                _shuffle(self.rng, closings)
                for closing in closings:
                    if closing in self._seen_out:
                        continue
                    self._seen_out.add(closing)
                    self._emitted[m] = self._emitted.get(m, 0) + 1
                    emitted = True
                    i, j, o = closing
                    yield Tr(self._pool[i][0], self._pool[j][0], o)
            self.grow(max_degree=m - 1)
            if emitted:
                attempts_without_close = 0
            else:
                attempts_without_close += 1
                if attempts_without_close > 500:
                    raise RuntimeError(
                        f"no degree-{m} invariant reachable from the pool"
                    )


class DegreeEvidence(NamedTuple):
    degree: int
    dim: int
    products: int
    product_rank: int
    d: int
    points: int
    attempt: int  # the point set `dm:{degree}:{attempt}`; 0 when dim is 0


class SaturationError(RuntimeError):
    """Candidate generation failed to span I_m within budget (inconclusive)."""


def compute_dm(
    n: int,
    m: int,
    basis: Sequence[BasisRecord],
    cfg: PipelineConfig,
    gen: Optional[CandidateGenerator],
    stored: Optional[Tuple[int, Sequence[Expr]]] = None,
) -> Tuple[DegreeEvidence, List[BasisRecord]]:
    """Evidence for d_m plus the newly adjoined basic invariants.

    Candidates come from `gen`'s seeded stream at the points of attempt 1,
    then of attempt 2 with twice the margin.  `stored`, an (attempt,
    generators) pair from a campaign file, replaces both: its generators at
    its attempt's points are the only candidates tried.
    """
    cfg.validate(n, m)
    dim = invariant_dimension(n, m)
    if dim == 0:
        return DegreeEvidence(m, 0, 0, 0, 0, 0, 0), []
    if any(rec.degree >= m for rec in basis):
        raise ValueError(f"basis passed to compute_dm must be settled below degree {m}")
    products = monomial_counts(basis, m)[m]
    attempts = (1, 2) if stored is None else (stored[0],)
    margin = cfg.margin(dim) << (attempts[0] - 1)
    for attempt in attempts:
        npts = dim + margin
        pevals = PointEvaluations(n, cfg.prime, cfg.seed, npts, f"dm:{m}:{attempt}")
        ech = StreamingEchelon(cfg.prime, npts)
        ech.add_rows(_product_rows(pevals, basis, m, cfg.prime), stop_at=dim)
        product_rank = ech.rank
        new_records: List[BasisRecord] = []
        budget = CANDIDATE_BUDGET + 80 * (dim - product_rank)
        draws = stall = 0
        stream = gen.candidates(m) if stored is None else iter(stored[1])
        while ech.rank < dim and draws < budget:
            cand = next(stream, None)
            if cand is None:
                break
            draws += 1
            vec = pevals.vector(cand)
            if not vec.any():
                continue
            if ech.add_row(vec):
                stall = 0
                name = f"i{m}_{len(new_records) + 1}"
                new_records.append(BasisRecord(name, m, cand))
            else:
                stall += 1
                if stall % 60 == 0 and stored is None:
                    gen.grow(max_degree=m - 1, steps=30)
        if ech.rank == dim:
            evidence = DegreeEvidence(
                m, dim, products, product_rank, dim - product_rank, npts, attempt
            )
            return evidence, new_records
        margin *= 2
    raise SaturationError(
        f"degree {m}: rank {ech.rank} < dim {dim} after {draws} candidates "
        f"(prime {cfg.prime}, seed {cfg.seed}); inconclusive"
    )


def campaign_top(n: int, max_degree: int) -> int:
    """The last degree a campaign to `max_degree` runs: `max_degree`, or the
    stop bound when a seed sequence gives one and it is lower.

    The ring is free over the seed hsop, with secondaries up to the
    numerator degree of the reference rational form; primaries and
    secondaries generate it, so no basic invariant has degree above both
    that numerator degree and the largest seed degree.  The ring is
    Gorenstein with deg H(t) = -(n + 1), so the numerator degree is
    sum(seed) - (n + 1) (tested against the rational form)."""
    seed = SEED_DEGREES.get(n)
    return max_degree if seed is None else min(max_degree, max(sum(seed) - (n + 1), max(seed)))


def _campaign(
    n: int, top: int, cfg: PipelineConfig, stored: Optional[Stored] = None
) -> Tuple[List[DegreeEvidence], List[BasisRecord]]:
    """Degrees 1..top through `compute_dm`, from one seeded candidate stream
    or from the stored generators of each degree: the evidence of each
    degree with dim I_m > 0, in degree order, and every adjoined record."""
    evidence: List[DegreeEvidence] = []
    records: List[BasisRecord] = []
    gen = CandidateGenerator(n, cfg.seed) if stored is None else None
    for m in range(1, top + 1):
        if invariant_dimension(n, m):
            ev, new = compute_dm(n, m, records, cfg, gen, stored and stored[m])
            evidence.append(ev)
            records.extend(new)
    return evidence, records


def find_basic_invariants(
    n: int,
    max_degree: int,
    cfg: PipelineConfig,
    cache: Optional[EvalCache] = None,
) -> Tuple[List[DegreeEvidence], List[BasisRecord]]:
    """Run the discovery campaign for every degree up to max_degree.

    With a cache, a stored campaign that reaches the run's top degree is
    replayed; if a degree fails to saturate or to evaluate, the file is
    discarded and the campaign runs cold.  Only a completed cold campaign
    is written.
    """
    top = campaign_top(n, max_degree)
    cfg.validate(n, top)
    stored = None if cache is None else cache.get(n, cfg, top)
    if stored is not None:
        try:
            return _campaign(n, top, cfg, stored)
        except (SaturationError, ValueError, RecursionError) as exc:
            cache.discard(n, cfg, f"replay failed: {exc}")
    evidence, records = _campaign(n, top, cfg)
    if cache is not None:
        cache.flush(n, cfg, top, evidence, records)
    return evidence, records


def membership_basis(
    hsop: Sequence[BasisRecord], degrees: Sequence[int], n: int,
    cfg: PipelineConfig, cache: Optional[EvalCache] = None,
) -> Tuple[int, List[BasisRecord]]:
    """The degree the basis must reach for membership rows of `hsop` at
    `degrees`, and the basis records the campaign to that degree finds.

    A degree-i row is h * (a basis monomial of degree i - deg h), so the
    basis is needed up to max(degrees) minus the smallest degree of `hsop`;
    degrees below that smallest degree need no basis at all, and when none
    needs one no campaign runs and `cache` is not read.
    """
    need = max(0, max(degrees) - min(h.degree for h in hsop))
    return need, (find_basic_invariants(n, need, cfg, cache)[1] if need else [])


# ---------------------------------------------------------------------------
# Certification of candidate parameter systems.

def jacobian_rank(
    exprs: Sequence[Expr], points: Sequence[Sequence[int]], n: int, prime: int
) -> Tuple[int, ...]:
    """Rank of the matrix of partial derivatives at each point over F_p.

    One batch holds every point n + 1 times, its row i with slope direction
    e_i; the slope of an invariant's value in that row is its exact partial
    derivative in coordinate i at that point.
    """
    count = len(points)
    forms = np.array([[c % prime for c in point] for point in points], dtype=np.int64)
    ev = BatchEvaluator(
        np.repeat(forms.reshape(count, n + 1), n + 1, axis=0),
        prime,
        slopes=np.tile(np.eye(n + 1, dtype=np.int64), (count, 1)),
    )
    grads = np.array([ev.scalar(e)[1] for e in exprs]).reshape(len(exprs), count, n + 1)
    return tuple(matrix_rank(grads[:, i], prime) for i in range(count))


class VanishReport(NamedTuple):
    trials: int  # nullforms and generic forms alike
    nullform_all_vanish: int
    nullform_failures: Tuple[str, ...]
    generic_all_vanish: int


def vanish_on_nullcone_sample(
    exprs: Sequence[Expr], n: int, trials: int, seed: int, prime: int
) -> VanishReport:
    """Evaluate candidates on random nullforms (exactly; every value must
    vanish) and on generic forms over F_p (simultaneous vanishing off the
    nullcone would witness a common zero the nullcone does not contain).

    Each nullform comes as its primitive integer coefficients
    (`random_nullform`), the nullform times a positive rational s, and is
    evaluated in an exact integer batch, which leaves out the transvectant
    prefactors.  An invariant I of degree d then reads
    s^d * prod(1 / pref) * I(nf), a nonzero rational multiple of I(nf), so
    it is zero exactly when I vanishes on the nullform: the check stays a
    proof.

    Both checks evaluate at most `NULLFORM_CHUNK` trials per batch, so their
    memory does not grow with `trials`.  The generic forms are drawn at once,
    in trial order, from their own seeded stream.  Chunking cannot change the
    report: trial t's nullform is seeded by t alone, a value at one row does
    not depend on the other rows of its batch, and each chunk writes its own
    slice of the per-trial flags, which are read in trial order.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = random.Random(f"generic:{seed}:{n}:{prime}")
    generic_forms = _random_forms(rng, n, trials, prime)
    nonzero = np.zeros((len(exprs), trials), dtype=bool)
    vanish = np.ones(trials, dtype=bool)
    for lo in range(0, trials, NULLFORM_CHUNK):
        hi = min(lo + NULLFORM_CHUNK, trials)
        forms = [random_nullform(n, seed * 100003 + t) for t in range(lo, hi)]
        exact = BatchEvaluator(np.array(forms, dtype=object), prime=None)
        generic = BatchEvaluator(generic_forms[lo:hi], prime)
        for i, e in enumerate(exprs):
            nonzero[i, lo:hi] = exact.scalar(e)[0] != 0
            vanish[lo:hi] &= generic.scalar(e)[0] == 0
        del exact, generic
    failures: List[str] = []
    for t in range(trials):
        bad = [str(i) for i, nz in enumerate(nonzero) if nz[t]]
        if bad:
            failures.append(f"trial {t}: nonzero at candidate index {','.join(bad)}")
    return VanishReport(trials, trials - len(failures), tuple(failures), int(vanish.sum()))


class MembershipResult(NamedTuple):
    degree: int
    dim: int
    rank: int
    a_coefficient: Optional[int]
    expected_ideal_dim: Optional[int]
    rows_used: int
    points: int
    certifies_containment: bool  # rank == dim
    consistent: bool  # rank == expected_ideal_dim, or == dim without one


def ideal_membership_dim(
    hsop: Sequence[BasisRecord],
    basis: Sequence[BasisRecord],
    degree: int,
    n: int,
    cfg: PipelineConfig,
) -> MembershipResult:
    """Rank of the degree-`degree` slice of the ideal generated by the hsop.

    Rows are h_k * (monomials of degree - deg h_k in the basis); the achieved
    rank at dim + margin points is dim(I_degree intersect H) at sampling
    level.  When the candidate has n - 2 elements the expected value is
    dim I_degree - a_degree with a(t) the numerator of its rational form.
    """
    cfg.validate(n, degree)
    dim = invariant_dimension(n, degree)
    needed = degree - min(h.degree for h in hsop)
    counts = monomial_counts(basis, needed)
    for j in range(1, needed + 1):
        if not counts[j] and invariant_dimension(n, j):
            raise ValueError(
                f"basis cannot reach degree {j} (needed for membership rows at "
                f"degree {degree}); run the discovery campaign further"
            )
    a_i: Optional[int] = None
    expected: Optional[int] = None
    if len(hsop) == n - 2:
        degrees = [h.degree for h in hsop]
        rat = to_rational(poincare_series(n, sum(degrees) + max(degrees)), degrees)
        if rat is not None:
            a_i = rat.numerator[degree] if degree <= rat.numerator_degree else 0
            expected = dim - a_i
    npts = dim + cfg.margin(dim)
    pevals = PointEvaluations(n, cfg.prime, cfg.seed, npts, f"membership:{degree}")

    def rows() -> Iterator[np.ndarray]:
        for h in hsop:
            hvec = pevals.vector(h.expr)
            yield from _product_rows(pevals, basis, degree - h.degree, cfg.prime, hvec)

    ech = StreamingEchelon(cfg.prime, npts)
    rows_used = ech.add_rows(rows(), stop_at=dim)
    rank = ech.rank
    return MembershipResult(
        degree, dim, rank, a_i, expected, rows_used, npts,
        rank == dim, rank == (dim if expected is None else expected),
    )


class HsopReport(NamedTuple):
    """The `hsop check` JSON payload, its keys in printed order.

    Lists, not tuples, where the text output shows a value's repr; the
    nullcone fields are None when the count alone refutes the set.
    """

    n: int
    set: List[str]
    degrees: List[int]
    verdict: str  # certified-at-sampling-level | refuted | inconclusive
    reasons: Tuple[str, ...]
    jacobian_ranks: List[int]
    jacobian_required: int
    nullform_vanishing: Optional[str]  # "a/t": all vanish on a of t nullforms
    generic_all_vanish: Optional[int]
    membership: Tuple[MembershipResult, ...]
    prime: int
    seed: int


def certify_hsop(
    candidates: Sequence[BasisRecord],
    n: int,
    cfg: PipelineConfig,
    membership_degrees: Sequence[int] = (),
    cache: Optional[EvalCache] = None,
    nullcone_trials: int = 100,
) -> HsopReport:
    """Aggregate sampling-level evidence that a candidate set is an hsop.

    A set of the wrong size is refuted by its count alone, before anything
    is evaluated; only then is the membership basis discovered
    (`membership_basis`, which reads and fills `cache`).
    """
    cfg.validate(n, max(membership_degrees, default=0))
    names = [h.name for h in candidates]
    degrees = sorted(h.degree for h in candidates)
    exprs = [h.expr for h in candidates]
    reasons: List[str] = []
    required = n - 2 if n >= 3 else 1

    def report(verdict: str, jranks=(), vanish: Optional[VanishReport] = None, membership=()):
        return HsopReport(
            n, names, degrees, verdict, tuple(reasons), list(jranks), required,
            vanish and f"{vanish.nullform_all_vanish}/{vanish.trials}",
            vanish and vanish.generic_all_vanish, tuple(membership), cfg.prime, cfg.seed,
        )

    if len(candidates) != required:
        reasons.append(f"expected {required} invariants, got {len(candidates)}")
        return report("refuted")
    basis: Sequence[BasisRecord] = ()
    if membership_degrees:
        _, basis = membership_basis(candidates, membership_degrees, n, cfg, cache)
    violations = check_sequence(n, degrees)
    for t, divisor, need, got in violations:
        reasons.append(
            f"degree filter t={t}: need {need} degrees divisible by {divisor}, found {got}"
        )
    rng = random.Random(f"jacobian:{cfg.seed}:{n}:{cfg.prime}")
    jranks = jacobian_rank(
        exprs, _random_forms(rng, n, JACOBIAN_POINTS, cfg.prime), n, cfg.prime
    )
    jacobian_ok = max(jranks, default=0) == required
    if not jacobian_ok:
        reasons.append(
            f"jacobian rank never reached {required} at {JACOBIAN_POINTS} "
            f"sampled points (got {jranks})"
        )
    vanish = vanish_on_nullcone_sample(exprs, n, nullcone_trials, cfg.seed, cfg.prime)
    nullcone_ok = 0 < vanish.trials == vanish.nullform_all_vanish
    if vanish.trials == 0:
        reasons.append("nullcone criterion not sampled (0 nullform trials)")
    elif not nullcone_ok:
        reasons.append("an invariant failed to vanish on a nullform (hard bug)")
    if vanish.generic_all_vanish:
        reasons.append(
            f"{vanish.generic_all_vanish}/{vanish.trials} generic forms "
            "had every candidate vanishing (common zero off the nullcone?)"
        )
    membership: List[MembershipResult] = []
    inconclusive = False
    for i in sorted(membership_degrees):
        res = ideal_membership_dim(candidates, basis, i, n, cfg)
        membership.append(res)
        if not res.consistent:
            if res.expected_ideal_dim is not None and res.rank < res.expected_ideal_dim:
                inconclusive = True
                reasons.append(
                    f"membership at degree {i}: rank {res.rank} below "
                    f"expected {res.expected_ideal_dim} (spanning shortfall?)"
                )
            else:
                reasons.append(
                    f"membership at degree {i}: rank {res.rank} "
                    f"inconsistent with expected {res.expected_ideal_dim}"
                )
    refuted = bool(violations) or (not jacobian_ok) or vanish.generic_all_vanish > 0
    if refuted:
        verdict = "refuted"
    elif inconclusive or not nullcone_ok:
        verdict = "inconclusive"
    else:
        verdict = "certified-at-sampling-level"
    return report(verdict, jranks, vanish, membership)
