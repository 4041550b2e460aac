"""The batched engine against the scalar evaluator it replaced.

`ScalarBatch` is the reference: the per-point scalar `Evaluator` over
GF(p) (or over dual numbers for slopes) behind the `BatchEvaluator`
interface.  Swapping it into the pipeline reproduces the scalar path end to
end, which the golden-output tests use.  The exact integer mode is checked
against the scalar `Evaluator` over QQ, and the nullform check against the
per-trial QQ loop it replaced.  `batch.transvect` is the only code that
applies the weights of `band`, and `forms.transvectant` is one call of it,
so every oracle here runs the scalar `Evaluator` over the derivative-sum
transvectant of `closed_form` (`oracle`), which shares no code with the
kernel; the band tables, which come from the derivative factors in both
modes, are compared with the per-pair loop of `loop_weights`.
"""

import hashlib
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binforms import batch as batch_module, pipeline
from binforms.batch import BatchEvaluator, band, transvect
from binforms.catalog import catalog_for
from binforms.cli import main, open_cache
from binforms.exprs import F, Pow, Tr
from binforms.forms import BinaryForm
from binforms.nullcone import random_nullform
from binforms.pipeline import NULLFORM_CHUNK, PointEvaluations, VanishReport
import loop_weights
from closed_form import transvectant as oracle_transvectant
from dual_numbers import Dual
from prime_field import PrimeField
from scalar_evaluator import Evaluator
from sl2_action import form_power, form_product, nullform_by_sl2_act, scalar

DATA = Path(__file__).parent / "data"
BASIS_ARGV = ["basis", "--n", "9", "--max-degree", "12", "--json"]
HSOP_ARGV = [
    "hsop", "check", "--n", "9", "--set", "thm",
    "--membership-degrees", "4,8,12", "--trials", "100", "--json",
]


def oracle(form: BinaryForm) -> Evaluator:
    """The scalar evaluator at `form` over the derivative-sum transvectant."""
    return Evaluator(form, transvectant=oracle_transvectant)


class ScalarBatch:
    """One scalar `Evaluator` per row; the reference for `BatchEvaluator`."""

    def __init__(self, forms, prime, slopes=None):
        gf = PrimeField(prime)
        forms = np.asarray(forms) % prime
        n = forms.shape[1] - 1
        if slopes is None:
            self.dual = False
            self._evs = [oracle(BinaryForm(n, [gf(int(c)) for c in row])) for row in forms]
        else:
            self.dual = True
            self._evs = [
                oracle(BinaryForm(n, [Dual(int(c), int(s), prime) for c, s in zip(row, srow)]))
                for row, srow in zip(forms, np.asarray(slopes))
            ]

    def scalar(self, e):
        values = [scalar(ev.eval(e)) for ev in self._evs]
        if not self.dual:
            return (np.array([v.value for v in values], dtype=np.int64),)
        return tuple(
            np.array(part, dtype=np.int64) for part in zip(*((v.value, v.slope) for v in values))
        )


def test_kernel_matches_scalar_transvectant_through_order_18():
    p = 32003
    gf = PrimeField(p)
    rng = np.random.default_rng(3)
    for m in range(19):
        for n in range(19):
            G = rng.integers(0, p, (2, m + 1))
            H = rng.integers(0, p, (2, n + 1))
            for k in range(min(m, n) + 1):
                got = transvect(G, H, k, p)
                for row in range(2):
                    want = oracle_transvectant(
                        BinaryForm(m, [gf(int(c)) for c in G[row]]),
                        BinaryForm(n, [gf(int(c)) for c in H[row]]),
                        k,
                    )
                    assert list(got[row]) == [c.value for c in want.coeffs], (m, n, k)


def _pref(m, n, k):
    return Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))


def test_exact_kernel_times_prefactor_matches_rational_transvectant_through_order_12():
    rng = np.random.default_rng(5)
    for m in range(13):
        for n in range(13):
            G = rng.integers(-60, 61, (2, m + 1)).astype(object)
            H = rng.integers(-60, 61, (2, n + 1)).astype(object)
            for k in range(min(m, n) + 1):
                got = transvect(G, H, k, None)
                assert got.dtype == object and got.shape == (2, m + n - 2 * k + 1)
                for row in range(2):
                    want = oracle_transvectant(
                        BinaryForm(m, [Fraction(int(c)) for c in G[row]]),
                        BinaryForm(n, [Fraction(int(c)) for c in H[row]]),
                        k,
                    )
                    assert [_pref(m, n, k) * c for c in got[row]] == list(want.coeffs), (m, n, k)


def test_band_table_is_cached_read_only_and_guarded():
    table = band(4, 3, 2, 32003)
    assert table is band(4, 3, 2, 32003)
    U, V, w, starts = table
    assert len(U) == len(V) == len(w) and len(starts) == 4
    for part in table + band(4, 3, 2, None):
        with pytest.raises(ValueError):
            part[0] = 1
    with pytest.raises(ValueError):
        band(2, 3, 3, 32003)
    # (18 + 1) * (p - 1)^2 < 2^63 just holds: residues near p - 1 are exact.
    p = 696_735_691
    gf = PrimeField(p)
    rng = np.random.default_rng(7)
    G, H = (p - 1 - rng.integers(0, 50, (2, 19)) for _ in range(2))
    for k in (0, 5, 18):
        got = transvect(G, H, k, p)
        for row in range(2):
            want = oracle_transvectant(
                BinaryForm(18, [gf(int(c)) for c in G[row]]),
                BinaryForm(18, [gf(int(c)) for c in H[row]]),
                k,
            )
            assert list(got[row]) == [c.value for c in want.coeffs], k
    # The next prime is just outside the bound.
    with pytest.raises(ValueError, match="int64"):
        band(18, 18, 0, 696_735_727)


@pytest.mark.parametrize("prime", [None, 32003, 696_735_691, 23])
def test_band_tables_equal_the_per_pair_loop_through_order_20(prime):
    # 696735691 passes `check_int64` only up to order 18 (the guard test
    # above); both builders must reject the same larger orders.
    for m in range(21):
        for n in range(21):
            for k in range(min(m, n) + 1):
                try:
                    want = loop_weights.band(m, n, k, prime)
                except ValueError:
                    with pytest.raises(ValueError, match="int64"):
                        band(m, n, k, prime)
                    continue
                got = band(m, n, k, prime)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape, (m, n, k)
                    assert (a == b).all(), (m, n, k)


def _random_rows(m, mode, rng):
    """Two random rows of order m: residues mod a prime, exact ints, or Fractions."""
    if mode == "fraction":
        return np.array(
            [[Fraction(int(a), int(b)) for a, b in zip(*rng.integers(1, 40, (2, m + 1)))]
             for _ in range(2)],
            dtype=object,
        )
    if mode is None:
        return rng.integers(-10**6, 10**6, (2, m + 1)).astype(object)
    return rng.integers(0, mode, (2, m + 1))


@pytest.mark.parametrize("mode", [32003, 23, None, "fraction"])
def test_self_transvectant_folds_and_equals_the_unfolded_kernel(mode):
    prime = mode if isinstance(mode, int) else None
    rng = np.random.default_rng(11)
    for m in range(19):
        G = _random_rows(m, mode, rng)
        for k in range(m + 1):
            U, V, w, _ = band(m, m, k, prime, True)
            full = band(m, m, k, prime)
            assert (U <= V).all() and 2 * len(U) == len(full[0]) + (U == V).sum(), (m, k)
            if k % 2:
                assert not w.any(), (m, k)
            got = transvect(G, G, k, prime)
            assert (got == transvect(G, G.copy(), k, prime)).all(), (m, k)
            if k % 2:
                assert not got.any(), (m, k)


def test_self_node_jets_equal_the_unfolded_jets(monkeypatch):
    p = 32003
    thm = [e.expr for e in catalog_for(9).hsop()]
    point = np.random.default_rng(13).integers(0, p, 10)
    forms, directions = np.tile(point, (10, 1)), np.eye(10, dtype=np.int64)
    nullforms = np.array([random_nullform(9, t) for t in range(3)], dtype=object)

    def jets():
        jacobian = BatchEvaluator(forms, p, slopes=directions)
        exact = BatchEvaluator(nullforms, None)
        return [ev.eval(e) for ev in (jacobian, exact) for e in thm]

    folded = jets()
    monkeypatch.setattr(batch_module, "band", lambda m, n, k, prime, fold: band(m, n, k, prime))
    for got, want in zip(folded, jets()):
        assert len(got) == len(want) and all((g == w).all() for g, w in zip(got, want))


def test_self_node_slopes_take_one_kernel_call(monkeypatch):
    # A jet transvection (g, h)_k makes one kernel call for its value and two
    # for its slope, (g, dh)_k and (dg, h)_k, except at a self node (g, g)_k:
    # there the two slope terms differ by (-1)^k, so one call gives both.
    # The Jacobian of `thm` makes 30 transvections (a k-th power makes k - 1),
    # 13 of them self nodes: 3 * 30 - 13 = 77 calls, against 90 when self
    # nodes made both slope calls.
    calls = []

    def spy(G, H, k, prime):
        calls.append(G is H)
        return transvect(G, H, k, prime)

    monkeypatch.setattr(batch_module, "transvect", spy)
    p = 32003
    thm = [e.expr for e in catalog_for(9).hsop()]
    rng = random.Random(f"jacobian:1:9:{p}")
    points = [[rng.randrange(p) for _ in range(10)] for _ in range(5)]
    assert pipeline.jacobian_rank(thm, points, 9, p) == (7,) * 5
    assert (len(calls), sum(calls)) == (77, 13)


def test_exact_nullform_batch_reads_folded_self_tables(monkeypatch):
    reads = []

    def spy(m, n, k, prime, fold=False):
        table = band(m, n, k, prime, fold)
        if prime is None:
            reads.append((len(table[0]), len(band(m, n, k, None)[0]), fold))
        return table

    monkeypatch.setattr(batch_module, "band", spy)
    thm = [e.expr for e in catalog_for(9).hsop()]
    pipeline.vanish_on_nullcone_sample(thm, 9, 1, 1, 32003)
    read = sum(r for r, _, _ in reads)
    self_read = sum(r for r, _, fold in reads if fold)
    self_unfolded = sum(u for _, u, fold in reads if fold)
    # 882 entries per row unfolded, 498 of them in self-transvectants, which
    # fold to 274: each off-diagonal pair once, and the 50 diagonal entries.
    assert sum(u for _, u, _ in reads) == 882 and self_unfolded == 498
    assert self_read == 274 and read == 882 - 498 + 274


def test_point_set_and_values_are_pinned():
    # The goldens, and every campaign file a cache replays, rest on the
    # points drawn for a key and the values at them, so these must never
    # change.  The numbers come from the per-point scalar evaluator on the
    # discovery fingerprint set.
    pe = PointEvaluations(9, 32003, 1, 32, "fingerprint")
    assert list(pe.coeffs[1]) == [12854, 19335, 26421, 24247, 21437, 2137, 9845, 22566, 13786, 3593]
    cat = catalog_for(9)
    pinned = {
        "j_4": [24065, 24975, 29414, 17349, 9449, 15109],
        "B_8": [1737, 5586, 2712, 2840, 25482, 26504],
        "j_16": [13385, 30147, 7543, 27602, 27998, 17679],
    }
    for name, values in pinned.items():
        assert list(pe.vector(cat[name].expr)[:6]) == values, name


def test_empty_batch_gives_empty_vectors():
    j4 = catalog_for(9)["j_4"].expr
    (value,) = BatchEvaluator(np.zeros((0, 10), dtype=np.int64), 32003).scalar(j4)
    assert value.shape == (0,)


@st.composite
def dags(draw):
    """A random DAG over f: orders up to 2n, powers, shared subtrees."""
    n = draw(st.integers(1, 9))
    nodes = [(F, n)]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            a, oa = nodes[draw(st.integers(0, len(nodes) - 1))]
            b, ob = nodes[draw(st.integers(0, len(nodes) - 1))]
            lo = max(0, (oa + ob - 2 * n + 1) // 2)
            if lo > min(oa, ob):
                continue
            k = draw(st.integers(lo, min(oa, ob)))
            nodes.append((Tr(a, b, k), oa + ob - 2 * k))
        else:
            a, oa = nodes[draw(st.integers(0, len(nodes) - 1))]
            k = draw(st.integers(1, 3))
            if k * oa <= 2 * n:
                nodes.append((Pow(a, k), k * oa))
    return n, nodes


@settings(max_examples=100, deadline=None)
@given(dags(), st.sampled_from([32003, 1000003]), st.integers(0, 2**32))
def test_batched_dag_values_match_scalar_evaluator(dag, prime, seed):
    n, nodes = dag
    forms = np.random.default_rng(seed).integers(0, prime, (3, n + 1))
    batch = BatchEvaluator(forms, prime)
    gf = PrimeField(prime)
    scalar = [oracle(BinaryForm(n, [gf(int(c)) for c in row])) for row in forms]
    for e, order in nodes:
        (value,) = batch.eval(e)
        assert value.shape == (3, order + 1)
        for row, ev in zip(value, scalar):
            assert list(row) == [c.value for c in ev.eval(e).coeffs], e


def _integer_forms(n, rng):
    """Integer forms of order n over QQ: generic, with a root of multiplicity
    above n / 2, and a random nullform's primitive integer row."""
    generic = BinaryForm(n, [Fraction(rng.randint(-9, 9)) for _ in range(n + 1)])
    r = rng.randint(n // 2 + 1, n)
    root = BinaryForm(1, (Fraction(rng.randint(1, 4)), Fraction(rng.randint(-4, 4))))
    rest = BinaryForm(n - r, [Fraction(rng.randint(-5, 5)) for _ in range(n - r + 1)])
    nf = BinaryForm(n, random_nullform(n, rng.randrange(10**6)))
    return [generic, form_product(form_power(root, r), rest), nf]


@settings(max_examples=60, deadline=None)
@given(dags(), st.integers(0, 2**32))
def test_exact_dag_values_are_a_fixed_multiple_of_rational_values(dag, seed):
    n, nodes = dag
    forms = _integer_forms(n, random.Random(seed))
    batch = BatchEvaluator([[int(c) for c in f.coeffs] for f in forms], prime=None)
    scalar = [oracle(f) for f in forms]
    for e, order in nodes:
        (value,) = batch.eval(e)
        assert value.shape == (3, order + 1)
        ratios = set()
        for row, ev in zip(value, scalar):
            want = ev.eval(e).coeffs
            assert [c == 0 for c in row] == [w == 0 for w in want], e
            ratios.update(Fraction(int(c)) / w for c, w in zip(row, want) if w)
        assert len(ratios) <= 1 and 0 not in ratios, e


def test_batched_jacobian_matches_dual_numbers_for_thm_set():
    p = 32003
    cat = catalog_for(9)
    thm = [e.expr for e in cat.hsop()]
    rng = random.Random(f"jacobian:1:9:{p}")
    for _ in range(5):
        point = [rng.randrange(p) for _ in range(10)]
        forms = np.tile(point, (10, 1))
        directions = np.eye(10, dtype=np.int64)
        batch = BatchEvaluator(forms, p, slopes=directions)
        ref = ScalarBatch(forms, p, slopes=directions)
        for e in thm:
            got, want = batch.scalar(e), ref.scalar(e)
            assert all((g == w).all() for g, w in zip(got, want))
        assert pipeline.jacobian_rank(thm, [point], 9, p) == (7,)


def _scalar_generic_vanish(exprs, n, trials, seed, prime):
    gf = PrimeField(prime)
    rng = random.Random(f"generic:{seed}:{n}:{prime}")
    count = 0
    for _ in range(trials):
        ev = oracle(BinaryForm(n, [gf(rng.randrange(prime)) for _ in range(n + 1)]))
        if all(scalar(ev.eval(e)) == 0 for e in exprs):
            count += 1
    return count


@pytest.mark.parametrize(
    "names, prime, trials",
    [(("j_4",), 23, 150), (("j_4", "B_8"), 23, 150)],
)
def test_generic_vanish_counts_match_scalar_path(names, prime, trials):
    # Small primes make generic values vanish often enough to count.
    cat = catalog_for(9)
    exprs = [cat[name].expr for name in names]
    rep = pipeline.vanish_on_nullcone_sample(exprs, 9, trials, seed=2, prime=prime)
    expected = _scalar_generic_vanish(exprs, 9, trials, 2, prime)
    assert rep.generic_all_vanish == expected
    if len(names) == 1:
        assert expected > 0


def _generic_row(n, seed):
    rng = random.Random(seed)
    return [rng.randint(-9, 9) for _ in range(n + 1)]


def _qq_nullform_loop(exprs, n, trials, seed):
    """The per-trial QQ loop that the exact batched nullform check replaced,
    on the forms that `test_nullform_failures_match_rational_loop` samples: a
    generic row where the seed is 2 mod 3.  At a nullform trial it
    evaluates the image that `sl2_act` builds from the same draws, of which
    the sampled row is a multiple, so its flags do not depend on the row's
    scaling."""
    failures = []
    all_vanish = 0
    for t in range(trials):
        s = seed * 100003 + t
        form = BinaryForm(n, _generic_row(n, s)) if s % 3 == 2 else nullform_by_sl2_act(n, s)
        ev = oracle(form)
        values = [scalar(ev.eval(e)) for e in exprs]
        if all(v == 0 for v in values):
            all_vanish += 1
        else:
            bad = [str(i) for i, v in enumerate(values) if v != 0]
            failures.append(f"trial {t}: nonzero at candidate index {','.join(bad)}")
    return all_vanish, tuple(failures)


def _one_batch_generic_vanish(exprs, n, trials, seed, prime):
    """Generic forms all of whose candidates vanish, from one F_p batch."""
    rng = random.Random(f"generic:{seed}:{n}:{prime}")
    ev = BatchEvaluator(pipeline._random_forms(rng, n, trials, prime), prime)
    vanish = np.ones(trials, dtype=bool)
    for e in exprs:
        vanish &= ev.scalar(e)[0] == 0
    return int(vanish.sum())


@pytest.mark.parametrize(
    "trials",
    # Around the chunk edges an off-by-one in the batches would drop, repeat
    # or misnumber a failing trial; 1000 trials cross 62 chunk edges.
    [
        1, 10, 23, 100, 1000,
        NULLFORM_CHUNK - 1, NULLFORM_CHUNK, NULLFORM_CHUNK + 1, 2 * NULLFORM_CHUNK + 1,
    ],
)
def test_nullform_failures_match_rational_loop(monkeypatch, trials):
    real = pipeline.random_nullform

    def sometimes_generic(n, seed):
        if seed % 3 == 2:  # trials 0, 3, 6, ... at seed 2
            return _generic_row(n, seed)
        return real(n, seed)

    real_forms = pipeline._random_forms

    def some_zero_forms(rng, n, count, prime):
        forms = real_forms(rng, n, count, prime)
        forms[1::3] = 0  # every candidate vanishes at the zero form
        return forms

    monkeypatch.setattr(pipeline, "random_nullform", sometimes_generic)
    monkeypatch.setattr(pipeline, "_random_forms", some_zero_forms)
    cat = catalog_for(9)
    # (f, f)_9 is an odd self-transvectant, identically zero, so a failing
    # trial names only some candidates.
    exprs = [cat["j_4"].expr, Tr(F, F, 9), cat["B_8"].expr]
    rep = pipeline.vanish_on_nullcone_sample(exprs, 9, trials, seed=2, prime=32003)
    all_vanish, failures = _qq_nullform_loop(exprs, 9, trials, 2)
    assert (rep.nullform_all_vanish, rep.nullform_failures) == (all_vanish, failures)
    assert rep.trials == trials
    assert failures and failures[0].endswith("index 0,2")
    if trials > 1:
        assert all_vanish
    # The generic check runs in the same chunks.  Every third generic form is
    # zero, so a dropped, repeated or shifted trial changes the count.
    want = _one_batch_generic_vanish(exprs, 9, trials, 2, 32003)
    assert rep.generic_all_vanish == want >= len(range(1, trials, 3))


def test_exact_nullform_batches_hold_at_most_one_chunk(monkeypatch):
    sizes = {None: [], 32003: []}

    def spy(forms, prime, slopes=None):
        sizes[prime].append(len(forms))
        return BatchEvaluator(forms, prime, slopes)

    monkeypatch.setattr(pipeline, "BatchEvaluator", spy)
    j4 = catalog_for(9)["j_4"].expr
    trials = 3 * NULLFORM_CHUNK + 1
    rep = pipeline.vanish_on_nullcone_sample([j4], 9, trials, seed=1, prime=32003)
    # The exact nullform batches and the generic F_p batches alike.
    assert sizes == {None: [NULLFORM_CHUNK] * 3 + [1], 32003: [NULLFORM_CHUNK] * 3 + [1]}
    assert rep.trials == rep.nullform_all_vanish == trials


def test_nullform_check_of_no_trials_and_negative_trials():
    j4 = catalog_for(9)["j_4"].expr
    rep = pipeline.vanish_on_nullcone_sample([j4], 9, 0, seed=1, prime=32003)
    assert rep == VanishReport(0, 0, (), 0)
    with pytest.raises(ValueError, match="trials"):
        pipeline.vanish_on_nullcone_sample([j4], 9, -1, seed=1, prime=32003)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (BASIS_ARGV, "basis_n9_max12_seed1.json"),
        (HSOP_ARGV, "hsop_check_thm_4_8_12_seed1.json"),
    ],
)
def test_stdout_matches_scalar_path_golden_file(capsys, argv, golden):
    # The golden files are the stdout of the per-point scalar evaluator.
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_no_library_draw_goes_through_random_py(capsys, monkeypatch):
    # Every seeded draw is `rings.randbelow` on `getrandbits`, so the golden
    # streams come out with random.py's Python-level draws disabled.
    def disabled(*args, **kwargs):
        raise AssertionError("a draw went through random.py")

    for name in ("randrange", "randint", "shuffle", "_randbelow"):
        monkeypatch.setattr(random.Random, name, disabled)
    for argv, golden in (
        (BASIS_ARGV, "basis_n9_max12_seed1.json"),
        (HSOP_ARGV, "hsop_check_thm_4_8_12_seed1.json"),
    ):
        assert _run(capsys, argv) == (0, (DATA / golden).read_text()), golden


def test_degree_16_basis_stdout_is_pinned(capsys):
    # The goldens above stop at degree 12, where every point set is small.
    code, out = _run(capsys, ["basis", "--n", "9", "--max-degree", "16", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e20f2d9943eab6cd84b7c0cf11be091518815015d030d7d78676e433cf6222e"
    )


def test_cache_filled_by_scalar_path_gives_same_stdout(capsys, monkeypatch, tmp_path):
    argv = BASIS_ARGV + ["--cache-dir", str(tmp_path)]
    golden = (DATA / "basis_n9_max12_seed1.json").read_text()
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "BatchEvaluator", ScalarBatch)
        assert _run(capsys, argv) == (0, golden)
    assert list(tmp_path.iterdir())
    assert _run(capsys, argv) == (0, golden)


def test_cache_only_with_a_directory():
    assert open_cache(None) is None
    assert open_cache("") is None
