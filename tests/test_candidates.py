"""The candidate stream of `CandidateGenerator` and its closing index.

`tests/data/candidate_streams.json` holds the sha256 of the texts of the
first candidates drawn for a few (n, seed, m) cases, saved from the
generator that rebuilt every closing pair on each pass.  Three ways of
drawing are pinned: a plain stream; a stream whose pool is grown every 60th
draw, as `compute_dm` does on a stall; and a stream abandoned part-way
through a pass and replaced by a second one, as on a retried degree.

`_rebuild_closings` is that former full rebuild, kept as the oracle for the
incremental index.  `EveryPassShuffles` keeps the pass loop from before
stall passes made their rng draws without a list, as the oracle for the
stall-pass path.
"""

import hashlib
import json
import random
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from binforms import pipeline
from binforms.exprs import expr_meta, expr_to_text, tr
from binforms.pipeline import CandidateGenerator, _shuffle, _shuffle_draws

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


def _count_stall_passes(monkeypatch):
    """Count the calls of `_shuffle_draws` (one per stall pass) from now on."""
    lengths = []

    def counted(rng, count):
        lengths.append(count)
        _shuffle_draws(rng, count)

    monkeypatch.setattr(pipeline, "_shuffle_draws", counted)
    return lengths


def test_candidate_streams_match_golden_digests(monkeypatch):
    stall_lengths = _count_stall_passes(monkeypatch)
    for n, seed, m in CASES:
        for variant in VARIANTS:
            stall_lengths.clear()
            drawn = draw_stream(n, seed, m, variant)
            assert len(set(drawn)) == DRAWS
            assert all(expr_meta(e, n) == (0, m) for e in drawn)
            key = f"{n}:{seed}:{m}:{variant}"
            assert stream_digest(drawn) == GOLDEN["sha256"][key], key
            # The digests were saved before stall passes had a path of
            # their own, so they pin its draws only if it ran on a list
            # long enough to draw from.
            assert max(stall_lengths, default=0) >= 2, key


def _lengths_around_powers_of_two(top):
    lengths = set(range(601))
    k = 1
    while 2 ** k - 1 <= top:
        lengths.update(L for L in (2 ** k - 1, 2 ** k, 2 ** k + 1) if L <= top)
        k += 1
    return sorted(lengths)


def test_shuffle_draws_leave_the_rng_state_a_shuffle_leaves():
    # `_shuffle` and `_shuffle_draws` rely on how CPython's `Random.shuffle`
    # draws (one `_randbelow(i + 1)` for i = L-1 .. 1, by rejection on
    # getrandbits); `_shuffle` must also leave the same list.
    for seed in (0, 1, "candidates:1:9", 2 ** 40 + 3):
        drawn, mine, cpython = (random.Random(seed) for _ in range(3))
        for length in _lengths_around_powers_of_two(5000):
            _shuffle_draws(drawn, length)
            ours, theirs = list(range(length)), list(range(length))
            _shuffle(mine, ours)
            cpython.shuffle(theirs)
            assert ours == theirs, (seed, length)
            assert drawn.getstate() == mine.getstate() == cpython.getstate(), (seed, length)


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


class EveryPassShuffles(CandidateGenerator):
    """The generator whose every pass shuffles the full closing list."""

    def candidates(self, m):
        attempts_without_close = 0
        while True:
            closings = self._closings(m)
            self.rng.shuffle(closings)
            emitted = False
            for closing in closings:
                if closing in self._seen_out:
                    continue
                self._seen_out.add(closing)
                emitted = True
                i, j, o = closing
                yield tr(self._pool[i][0], self._pool[j][0], o)
            self.grow(max_degree=m - 1)
            if emitted:
                attempts_without_close = 0
            else:
                attempts_without_close += 1
                if attempts_without_close > 500:
                    raise RuntimeError(f"no degree-{m} invariant reachable from the pool")


DEGREES = {6: (4, 6, 10), 7: (4, 8, 12), 9: (4, 8, 10)}
STEP = st.one_of(
    st.tuples(st.just("draw"), st.integers(1, 40)),
    st.tuples(st.just("grow"), st.integers(1, 30)),
    st.tuples(st.just("reopen"), st.just(0)),
    st.tuples(st.just("other"), st.integers(1, 20)),
)


def run_schedule(cls, n, seed, m, other_m, schedule):
    """Drive one generator by `schedule`; return what it yielded and its rng.

    A degree-m stream is drawn from first, so it is suspended part-way
    through a pass whenever a step grows the pool, reopens it or draws from
    the stream of degree `other_m`.
    """
    gen = cls(n, seed)
    streams = {"draw": gen.candidates(m)}
    events = []

    def draw(name, k):
        if name not in streams:
            streams[name] = gen.candidates(other_m)
        stream = streams[name]
        for _ in range(k):
            try:
                events.append((name, _pair(next(stream))))
            except (RuntimeError, StopIteration) as exc:
                events.append((name, type(exc).__name__))
                return

    draw("draw", 1)
    for step, k in schedule:
        if step == "grow":
            gen.grow(max_degree=m - 1, steps=k)
        elif step == "reopen":
            streams["draw"] = gen.candidates(m)
        else:
            draw(step, k)
        if cls is CandidateGenerator:
            # Extending the index early draws nothing and changes no pass.
            index = gen._index
            closings = gen._closings(index.m)
            assert index.count == len(closings)
            assert index.count - gen._emitted.get(index.m, 0) == len(set(closings) - gen._seen_out)
    return events, gen.rng.getstate()


@settings(max_examples=50, deadline=None)
@given(
    n=st.sampled_from(sorted(DEGREES)),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    which=st.permutations(range(3)),
    schedule=st.lists(STEP, min_size=1, max_size=12),
)
# The first example makes many stall passes; in the second the degree-10
# stream emits from its pass while the degree-8 stream's index is current.
@example(n=9, seed=1, which=[0, 1, 2], schedule=[("draw", 40), ("other", 20), ("draw", 40)])
@example(n=9, seed=1, which=[2, 1, 0], schedule=[("draw", 10), ("other", 3), ("draw", 3), ("other", 2)])
def test_stall_passes_draw_as_a_shuffle_of_every_pass_does(n, seed, which, schedule):
    m, other_m = (DEGREES[n][w] for w in which[:2])
    assert run_schedule(CandidateGenerator, n, seed, m, other_m, schedule) == run_schedule(
        EveryPassShuffles, n, seed, m, other_m, schedule
    )
