"""The candidate stream of `CandidateGenerator` and its closing index.

`tests/data/candidate_streams.json` holds the sha256 of the texts of the
first candidates drawn for a few (n, seed, m) cases, saved from the
generator that rebuilt every closing pair on each pass.  Three ways of
drawing are pinned: a plain stream; a stream whose pool is grown every 60th
draw, as `compute_dm` does on a stall; and a stream abandoned part-way
through a pass and replaced by a second one, as on a retried degree.

`_rebuild_closings` is that former full rebuild, kept as the oracle for the
incremental index.
"""

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from binforms.exprs import expr_meta, expr_to_text
from binforms.pipeline import CandidateGenerator

GOLDEN = json.loads((Path(__file__).parent / "data" / "candidate_streams.json").read_text())
DRAWS = GOLDEN["draws"]
REOPEN_AT = GOLDEN["reopen_at"]
CASES = ((9, 1, 14), (9, 3, 12), (7, 2, 16), (6, 1, 10))
VARIANTS = ("plain", "grow", "reopen")


def _rebuild_closings(gen, m):
    """Equal-order pool pairs (A, B, order) with degrees summing to m."""
    by_order = {}
    for e, o, d in gen._pool:
        if o >= 1 and d < m:
            by_order.setdefault(o, []).append((e, d))
    found = []
    for o, entries in by_order.items():
        for i, (ea, da) in enumerate(entries):
            for eb, db in entries[i:]:
                if da + db == m:
                    if ea == eb and o % 2 == 1:
                        continue
                    found.append((ea, eb, o))
    return found


def _as_exprs(gen, closings):
    return [(gen._pool[i][0], gen._pool[j][0], o) for i, j, o in closings]


def _pair(e):
    return (e.left, e.right, e.index)


def draw_stream(n, seed, m, variant):
    """The first DRAWS candidates of one case, drawn the `variant` way."""
    gen = CandidateGenerator(n, seed)
    stream = gen.candidates(m)
    drawn = []
    while len(drawn) < DRAWS:
        drawn.append(next(stream))
        if variant == "grow" and len(drawn) % 60 == 0:
            gen.grow(max_degree=m - 1, steps=30)
        if variant == "reopen" and len(drawn) == REOPEN_AT:
            stream = gen.candidates(m)
    return drawn


def stream_digest(drawn):
    text = "\n".join(expr_to_text(e) for e in drawn)
    return hashlib.sha256(text.encode()).hexdigest()


def test_candidate_streams_match_golden_digests():
    for n, seed, m in CASES:
        for variant in VARIANTS:
            drawn = draw_stream(n, seed, m, variant)
            assert len(set(drawn)) == DRAWS
            assert all(expr_meta(e, n) == (0, m) for e in drawn)
            key = f"{n}:{seed}:{m}:{variant}"
            assert stream_digest(drawn) == GOLDEN["sha256"][key], key


def test_reopened_stream_yields_exactly_the_closings_not_yet_yielded():
    for n, seed, m in CASES:
        gen = CandidateGenerator(n, seed)
        first = gen.candidates(m)
        drawn = [next(first) for _ in range(REOPEN_AT)]
        # No grow has run since the current pass began, so the closings
        # still pending are those the abandoned pass had not reached.
        pending = set(_as_exprs(gen, gen._closings(m))) - {_pair(e) for e in drawn}
        assert pending, f"stream {n}:{seed}:{m} was not abandoned part-way"
        second = gen.candidates(m)
        assert {_pair(next(second)) for _ in range(len(pending))} == pending


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6), n=st.sampled_from((6, 7, 9)))
def test_incremental_closings_match_full_rebuild(seed, n):
    gen = CandidateGenerator(n, seed)
    assert gen._closings(14) == []  # index a small pool first
    # Each degree is held for three grows (extending its index), then left
    # (indexing anew); pool degrees up to 15 exercise the d < m filter.
    for step in range(24):
        m = (14, 10, 14, 8)[step // 3 % 4]
        gen.grow(max_degree=(13, 9, 15)[step % 3])
        closings = gen._closings(m)
        assert _as_exprs(gen, closings) == _rebuild_closings(gen, m)
        assert len(set(closings)) == len(closings)
