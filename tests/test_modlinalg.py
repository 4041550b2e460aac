import numpy as np
import pytest

from binforms.modlinalg import StreamingEchelon, rank

P = 32003


def test_identity_rank():
    assert rank(np.eye(3, dtype=np.int64), P) == 3


def test_zero_rank():
    assert rank(np.zeros((4, 7), dtype=np.int64), P) == 0


def test_product_rank_is_inner_dimension():
    # 2147483647 is the larger prime of the series dimension oracle.
    for p in (P, 2147483647):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A = rng.integers(0, p, (5, 3))
            B = rng.integers(0, p, (3, 7))
            M = A.astype(object) @ B % p  # exact: int64 would overflow at p ~ 2**31
            if rank(A, p) < 3 or rank(B, p) < 3:
                continue  # re-draw on degenerate factors
            assert rank(M, p) == 3


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
        assert ech.rank == rank(X, P)


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


def _planted_rows():
    # Rank 6 in 12 columns; the rows that raise the rank are 0, 2, 5, 6, 9
    # and 11, between zero, repeated, scaled and combined rows.
    G = np.random.default_rng(13).integers(0, P, (6, 12))
    zero = np.zeros(12, dtype=np.int64)
    return np.array([
        G[0], zero, G[1], 7 * G[1] % P, G[0], G[2], G[3], (G[2] + 5 * G[3]) % P,
        zero, G[4], 3 * G[4] % P, G[5], G[5], (G[0] + G[5]) % P,
    ])


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, pytest.param(None, id="default")])
@pytest.mark.parametrize("rows", ["planted", "random"])
def test_streaming_stops_at_the_prefix_rank(monkeypatch, chunk, rows):
    if chunk is not None:
        monkeypatch.setattr(StreamingEchelon, "_CHUNK", chunk)
    X = _planted_rows() if rows == "planted" else np.random.default_rng(14).integers(0, P, (17, 12))
    full = rank(X, P)
    raises = [i for i in range(len(X)) if rank(X[: i + 1], P) > rank(X[:i], P)]
    if rows == "planted":
        assert raises == [0, 2, 5, 6, 9, 11]
    # stop_at runs from the first row's rank to one past the full rank, which
    # no prefix reaches, so the stop row is in turn the first row, the last
    # row of a chunk and the first row of the next.
    for stop_at in range(1, full + 2):
        ech = StreamingEchelon(P, 12)
        consumed = ech.add_rows(iter(X), stop_at=stop_at)
        want = next((i for i in range(len(X) + 1) if rank(X[:i], P) == stop_at), len(X))
        assert (ech.rank, consumed) == (min(stop_at, full), want), stop_at

    rowwise = StreamingEchelon(P, 12)
    assert [i for i, row in enumerate(X) if rowwise.add_row(row)] == raises
    ech = StreamingEchelon(P, 12)
    assert ech.add_rows(X) == len(X)
    assert ech.rank == rowwise.rank == full
    coeffs = np.random.default_rng(15).integers(0, P, len(X))
    for row in [*X, coeffs @ X % P]:
        assert not ech.reduce(row).any() and not rowwise.reduce(row).any()


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
    assert e1.rank == e2.rank == rank(X, P)


def test_streaming_members_reduce_to_zero():
    rng = np.random.default_rng(11)
    X = rng.integers(0, P, (60, 90))
    ech = StreamingEchelon(P, 90)
    ech.add_rows(X)
    for row in X:
        assert not ech.reduce(row).any()
    # and a random combination of members reduces to zero too
    coeffs = rng.integers(0, P, 60)
    combo = coeffs @ X % P
    assert not ech.reduce(combo).any()


def test_streaming_float_exactness_guard():
    with pytest.raises(ValueError):
        StreamingEchelon(2_147_483_647, 10**6)
