from math import isqrt

import numpy as np
import pytest

from binforms.modlinalg import StreamingEchelon, rank
from dense_rank import rank as dense_rank

P = 32003
# Above 2**53 at any width, so every echelon at this prime runs on int64; the
# int64 bound admits up to 36 columns.  `hsop check` accepts it.
BIG = 500000003


def _reduce_block(ech, vec):
    """Residue of `vec` modulo the echelon's current row space."""
    return ech._reduce_block([vec])[0]


def test_identity_rank():
    assert rank(np.eye(3, dtype=np.int64), P) == 3


def test_zero_rank():
    assert rank(np.zeros((4, 7), dtype=np.int64), P) == 0


def test_product_rank_is_inner_dimension():
    # 2147483647 is the larger prime of the series dimension oracle, which
    # ranks with the dense oracle: no echelon of 7 columns is exact there.
    for rank_of, p in ((rank, P), (rank, BIG), (dense_rank, 2147483647)):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A = rng.integers(0, p, (5, 3))
            B = rng.integers(0, p, (3, 7))
            M = A.astype(object) @ B % p  # exact: int64 would overflow at p ~ 2**31
            if rank_of(A, p) < 3 or rank_of(B, p) < 3:
                continue  # re-draw on degenerate factors
            assert rank_of(M, p) == 3, (rank_of, p)


def test_rank_of_transpose():
    rng = np.random.default_rng(1)
    for shape in [(40, 60), (200, 300)]:
        M = rng.integers(0, P, shape)
        assert rank(M, P) == rank(M.T, P)


def test_rank_invariant_under_row_ops():
    rng = np.random.default_rng(2)
    M = rng.integers(0, P, (20, 30))
    base = rank(M, P)
    perm = M[rng.permutation(20)]
    assert rank(perm, P) == base
    scaled = M.copy()
    scaled[3] = scaled[3] * 17 % P
    assert rank(scaled, P) == base


def test_streaming_standard_basis():
    ech = StreamingEchelon(P, 5)
    consumed = ech.add_rows(np.eye(5, dtype=np.int64), stop_at=5)
    assert (ech.rank, consumed) == (5, 5)


def test_streaming_saturates_on_repeats():
    rng = np.random.default_rng(8)
    row = rng.integers(0, P, 7)
    ech = StreamingEchelon(P, 7)
    consumed = ech.add_rows(np.array([row] * 10), stop_at=2)
    assert (ech.rank, consumed) == (1, 10)


def test_streaming_equals_materialized_rank():
    rng = np.random.default_rng(9)
    for _ in range(3):
        X = rng.integers(0, P, (80, 50))
        ech = StreamingEchelon(P, 50)
        for row in X:
            ech.add_row(row)
        assert ech.rank == dense_rank(X, P)


def test_streaming_row_length_mismatch():
    ech = StreamingEchelon(P, 5)
    with pytest.raises(ValueError):
        ech.add_row(np.arange(4))


def test_streaming_draws_no_row_past_the_saturating_chunk():
    chunk = StreamingEchelon._CHUNK
    rng = np.random.default_rng(12)
    X = rng.integers(0, P, (3 * chunk, 200))
    # The first chunk spans only 100 dimensions, so it falls short of rank 150.
    X[:chunk] = rng.integers(0, P, (chunk, 100)) @ X[:100] % P
    drawn = []

    def rows():
        for i, row in enumerate(X):
            drawn.append(i)
            yield row

    ech = StreamingEchelon(P, 200)
    consumed = ech.add_rows(rows(), stop_at=150)
    assert (ech.rank, consumed) == (150, chunk + 50)
    # The second chunk reaches rank 150 and no row of a third chunk is drawn.
    assert len(drawn) == 2 * chunk


# A full first chunk of good rows leaves only short rows in the second; with
# two more good rows the second chunk mixes both lengths.
@pytest.mark.parametrize(
    "good, bad", [(StreamingEchelon._CHUNK, 10), (StreamingEchelon._CHUNK + 2, 1)]
)
def test_streaming_bad_row_length_in_a_later_chunk(good, bad):
    rows = iter([np.eye(5, dtype=np.int64)[i % 5] for i in range(good)] + [np.arange(4)] * bad)
    ech = StreamingEchelon(P, 5)
    with pytest.raises(ValueError):
        ech.add_rows(rows)
    assert ech.rank == 5  # the first chunk went in before the bad one was drawn


def _planted_rows(p=P):
    # Rank 6 in 12 columns; the rows that raise the rank are 0, 2, 5, 6, 9
    # and 11, between zero, repeated, scaled and combined rows.
    G = np.random.default_rng(13).integers(0, p, (6, 12))
    zero = np.zeros(12, dtype=np.int64)
    return np.array([
        G[0], zero, G[1], 7 * G[1] % p, G[0], G[2], G[3], (G[2] + 5 * G[3]) % p,
        zero, G[4], 3 * G[4] % p, G[5], G[5], (G[0] + G[5]) % p,
    ])


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, pytest.param(None, id="default")])
@pytest.mark.parametrize("rows", ["planted", "random"])
def test_streaming_stops_at_the_prefix_rank(monkeypatch, chunk, rows):
    if chunk is not None:
        monkeypatch.setattr(StreamingEchelon, "_CHUNK", chunk)
    # At BIG every product runs on the int64 path.
    for p in (P, BIG):
        X = _planted_rows(p) if rows == "planted" else np.random.default_rng(14).integers(0, p, (17, 12))
        _check_prefix_rank(X, p, rows == "planted")


def _check_prefix_rank(X, p, planted):
    full = dense_rank(X, p)
    raises = [i for i in range(len(X)) if dense_rank(X[: i + 1], p) > dense_rank(X[:i], p)]
    if planted:
        assert raises == [0, 2, 5, 6, 9, 11]
    # stop_at runs from the first row's rank to one past the full rank, which
    # no prefix reaches, so the stop row is in turn the first row, the last
    # row of a chunk and the first row of the next.
    for stop_at in range(1, full + 2):
        ech = StreamingEchelon(p, 12)
        consumed = ech.add_rows(iter(X), stop_at=stop_at)
        want = next((i for i in range(len(X) + 1) if dense_rank(X[:i], p) == stop_at), len(X))
        assert (ech.rank, consumed) == (min(stop_at, full), want), (p, stop_at)

    rowwise = StreamingEchelon(p, 12)
    assert [i for i, row in enumerate(X) if rowwise.add_row(row)] == raises
    ech = StreamingEchelon(p, 12)
    assert ech.add_rows(X) == len(X)
    assert ech.rank == rowwise.rank == full == rank(X, p)
    coeffs = np.random.default_rng(15).integers(0, p, len(X))
    for row in [*X, coeffs.astype(object) @ X % p]:
        assert not _reduce_block(ech, row).any() and not _reduce_block(rowwise, row).any()


def test_streaming_blocked_matches_rowwise():
    rng = np.random.default_rng(10)
    X = rng.integers(0, P, (400, 260))
    X = np.vstack([X, X[:100], (5 * X[:50]) % P])
    e1 = StreamingEchelon(P, 260)
    for row in X:
        e1.add_row(row)
    e2 = StreamingEchelon(P, 260)
    for i in range(0, X.shape[0], 97):
        e2.add_rows(X[i : i + 97])
    assert e1.rank == e2.rank == dense_rank(X, P)


def test_streaming_members_reduce_to_zero():
    rng = np.random.default_rng(11)
    X = rng.integers(0, P, (60, 90))
    ech = StreamingEchelon(P, 90)
    ech.add_rows(X)
    for row in X:
        assert not _reduce_block(ech, row).any()
    # and a random combination of members reduces to zero too
    coeffs = rng.integers(0, P, 60)
    combo = coeffs @ X % P
    assert not _reduce_block(ech, combo).any()


def test_streaming_float_exactness_guard():
    with pytest.raises(ValueError):
        StreamingEchelon(2_147_483_647, 10**6)


def test_streaming_takes_int64_where_float64_is_not_exact():
    assert StreamingEchelon(P, 10)._basis.dtype == np.float64
    # At 10 columns, the Jacobian's width at n = 9, float64 is exact while
    # p - 1 <= isqrt(2**53 // 10) = 30012755.
    top = isqrt(2 ** 53 // 10)
    assert StreamingEchelon(top + 1, 10)._basis.dtype == np.float64
    assert StreamingEchelon(top + 2, 10)._basis.dtype == np.int64
    assert StreamingEchelon(BIG, 36)._basis.dtype == np.int64


def test_streaming_int64_exactness_guard():
    # 696735691 is the largest prime `hsop check` accepts at n = 9, where the
    # transvectant kernel's bound is 19 * (p - 1)**2 < 2**63.
    for p, widest in ((BIG, 36), (696_735_691, 19)):
        assert widest * (p - 1) ** 2 < 2 ** 63 <= (widest + 1) * (p - 1) ** 2
        StreamingEchelon(p, widest)
        with pytest.raises(ValueError, match="int64"):
            StreamingEchelon(p, widest + 1)
        with pytest.raises(ValueError, match="int64"):
            rank(np.eye(widest + 1, dtype=np.int64), p)


def test_int64_rank_equals_dense_oracle_on_planted_rows():
    # Entries near p - 1 drive every product towards 36 * (p - 1)**2, the
    # edge of the int64 bound at 36 columns.
    rng = np.random.default_rng(16)
    for width, r in ((36, 20), (36, 36), (10, 7), (10, 3)):
        G = BIG - 1 - rng.integers(0, 1000, (r, width))
        C = rng.integers(0, BIG, (3 * r, r)).astype(object)
        C[::4] = 0  # zero rows and exact repeats of earlier combinations
        C[1::5] = C[0::5][: len(C[1::5])]
        X = np.vstack([G, C @ G % BIG])[rng.permutation(4 * r)]
        want = dense_rank(X, BIG)
        assert want == r
        assert rank(X, BIG) == want
        ech = StreamingEchelon(BIG, width)
        for i, row in enumerate(X):
            assert ech.add_row(row) == (dense_rank(X[: i + 1], BIG) > dense_rank(X[:i], BIG))
        assert ech.rank == want
        for stop_at in (1, r // 2, r):
            ech = StreamingEchelon(BIG, width)
            consumed = ech.add_rows(iter(X), stop_at=stop_at)
            assert ech.rank == stop_at == dense_rank(X[:consumed], BIG) > dense_rank(X[: consumed - 1], BIG)
