"""Candidate enumeration: packing, pruning, partitioning, golden counts."""

import json
import os
import random
from dataclasses import replace
from itertools import islice, product

import pytest

from bottforge import search
from bottforge.charclass import counterexample_criterion
from bottforge.gf2ring import BottMatrix
from bottforge.search import (
    MAX_EXHAUSTIVE_SPAN,
    REFERENCE_D9,
    REFERENCE_D9_WITNESS_MASK,
    REFERENCE_D10_CHAIN,
    REFERENCE_D10_PADDED,
    REFERENCE_MATRICES,
    SearchSpec,
    SearchStats,
    SpecTooLargeError,
    collect_hits,
    counter_from_matrix,
    enumerate_space,
    free_bit_count,
    hit_json,
    hit_record,
    matrix_from_counter,
    minimal_dimension_survey,
    reproduce_reference,
    run_partitioned,
)

from helpers import (
    draw_counter,
    even_parity_counters_scan,
    random_bott_matrix,
    xorshift_stream,
)

# hit counts from this tool's own exhaustive runs, committed as regression
# constants (no external source for these numbers)
GOLDEN_HITS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 123904}

# first hit of the d=8 exhaustive enumeration, likewise frozen
GOLDEN_D8_FIRST_HIT = 114057603
GOLDEN_D8_FIRST_ROWS = [
    "01100000", "00110000", "00011000", "00001100",
    "00000110", "00000011", "00000000", "00000000",
]

# d=9 random mode, seed 42: hit ordinals frozen from the first capture
GOLDEN_D9_RANDOM_PREFIX = [657, 1983, 2154, 2625, 6458, 7501, 8015, 9760]


# ----------------------------------------------------------------- packing

def test_free_bit_count():
    assert [free_bit_count(d) for d in range(1, 10)] == [
        0, 1, 3, 6, 10, 15, 21, 28, 36]


def test_counter_roundtrip_random():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 10)
        m = random_bott_matrix(rng, d)
        c = counter_from_matrix(m)
        assert 0 <= c < 1 << free_bit_count(d)
        assert matrix_from_counter(d, c) == m


def test_counter_conversions_match_bitwise_definition():
    # bit b of a counter is entry free_positions(d)[b], one bit at a time
    rng = random.Random(32)
    for d in list(range(1, 13)) + [17, 20]:
        positions = search.free_positions(d)
        for _ in range(20):
            c = rng.getrandbits(free_bit_count(d))
            rows = [0] * d
            for b, (i, j) in enumerate(positions):
                rows[i] |= (c >> b & 1) << j
            m = matrix_from_counter(d, c)
            assert m == BottMatrix(d, tuple(rows))
            assert counter_from_matrix(m) == c


def test_counter_order_is_row_major():
    # bit 0 toggles entry (1,2), the first free slot of the first row
    m = matrix_from_counter(4, 1)
    assert m.to_row_strings() == ["0100", "0000", "0000", "0000"]
    # the last bit toggles the final row's single slot (3,4)
    m = matrix_from_counter(4, 1 << 5)
    assert m.to_row_strings() == ["0000", "0000", "0001", "0000"]


def test_exhaustive_counts_small():
    for d in (1, 2, 3, 4, 5):
        stats, hits = collect_hits(SearchSpec(dim=d))
        assert stats.candidates == 1 << free_bit_count(d)
        assert stats.hits == len(hits) == GOLDEN_HITS[d]


# ---------------------------------------------------------------- validity

def test_span_cap():
    with pytest.raises(SpecTooLargeError):
        enumerate_space(SearchSpec(dim=10), None)
    # same dimension is fine once a limit caps the range
    stats, hits = collect_hits(SearchSpec(dim=10, limit=64))
    assert stats.candidates == 64
    # and a sufficiently fine partition also fits under the cap
    spec = SearchSpec(dim=10, partition=(0, 1 << 30))
    stats = enumerate_space(spec, None)
    assert stats.candidates == (1 << 45) // (1 << 30)
    assert stats.candidates <= MAX_EXHAUSTIVE_SPAN


def test_spec_validation():
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(dim=0), None)
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(dim=65), None)
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(dim=6, mode="guess"), None)
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(dim=6, partition=(2, 2)), None)
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(dim=6, mode="random"), None)  # no limit
    # a masked seed would replay the stream of another seed
    for seed in (-1, 1 << 64, 1 << 70):
        with pytest.raises(ValueError, match="outside 0..2"):
            enumerate_space(
                SearchSpec(dim=9, mode="random", limit=10, seed=seed), None)


def test_random_seed_64_bit_range_accepted():
    for seed in (0, (1 << 64) - 1):
        spec = SearchSpec(dim=9, mode="random", limit=3000, seed=seed)
        stats, hits = collect_hits(spec)
        _, brute = _brute_random(9, xorshift_stream(seed), spec.limit)
        assert [h.candidate_index for h in hits] == brute


# ----------------------------------------------------------------- golden

def test_golden_counts_d6():
    stats, hits = collect_hits(SearchSpec(dim=6))
    assert stats.candidates == 1 << 15
    assert stats.hits == GOLDEN_HITS[6]


def test_golden_counts_d7():
    stats, hits = collect_hits(SearchSpec(dim=7))
    assert stats.candidates == 1 << 21
    assert stats.tested == 1 << 15
    assert stats.hits == GOLDEN_HITS[7]


@pytest.mark.parametrize("d, orientable", [(6, 1 << 10), (7, 1 << 15)])
def test_golden_counts_small_by_criterion(d, orientable):
    """GOLDEN_HITS[6] and [7] by the full criterion on every orientable
    candidate, a route apart from the lane kernel and the rank map: row i
    runs over the even-weight values of its d - 1 - i entries."""
    even_rows = [[v << i + 1 for v in range(1 << d - 1 - i)
                  if v.bit_count() % 2 == 0] for i in range(d - 1)]
    tested = hits = 0
    for rows in product(*even_rows):
        tested += 1
        hits += counterexample_criterion(BottMatrix(d, (*rows, 0))).verdict
    assert tested == orientable
    assert hits == GOLDEN_HITS[d]


def test_golden_counts_d8():
    # streamed, keeping only the first hit, as the CLI streams them
    first = []

    def sink(hit):
        if not first:
            first.append(hit)
    stats, _ = run_partitioned(SearchSpec(dim=8), os.cpu_count() or 4, sink)
    assert stats.candidates == 1 << 28
    assert stats.hits == GOLDEN_HITS[8]
    assert first[0].candidate_index == GOLDEN_D8_FIRST_HIT


def test_golden_d8_first_hit_matrix():
    m = matrix_from_counter(8, GOLDEN_D8_FIRST_HIT)
    assert m.to_row_strings() == GOLDEN_D8_FIRST_ROWS
    assert counterexample_criterion(m).verdict


def test_every_emitted_hit_passes_criterion():
    stats, hits = collect_hits(
        SearchSpec(dim=8, mode="random", limit=30000, seed=99))
    assert hits, "expected at least one hit at this draw budget"
    for h in hits:
        assert h.report.verdict
        assert counterexample_criterion(h.matrix).verdict


# -------------------------------------------------------- ranks and blocks

def _even_counters(d, lo, hi):
    """The all-even counters of [lo, hi) through the rank map."""
    return [search._counter_from_rank(d, r) for r in range(
        search._even_rank(d, lo), search._even_rank(d, hi))]


def test_seek_matches_scan_small():
    rng = random.Random(5)
    for d in range(1, 8):
        total = 1 << free_bit_count(d)
        for _ in range(40):
            lo = rng.randrange(total + 1)
            hi = rng.randrange(lo, total + 1)
            assert _even_counters(d, lo, hi) == \
                list(even_parity_counters_scan(d, lo, hi))


def test_seek_matches_scan_d8_partitions():
    rng = random.Random(8)
    total = 1 << free_bit_count(8)
    for k in [0] + [rng.randrange(1 << 14) for _ in range(3)]:
        lo, hi = k * total >> 14, (k + 1) * total >> 14
        assert _even_counters(8, lo, hi) == \
            list(even_parity_counters_scan(8, lo, hi))


def test_rank_map_is_monotone_bijection():
    for d in range(1, 8):
        evens = list(even_parity_counters_scan(d, 0, 1 << free_bit_count(d)))
        assert len(evens) == 1 << search.rank_bit_count(d)
        assert [search._counter_from_rank(d, r)
                for r in range(len(evens))] == evens
        for r, c in enumerate(evens):
            assert search._even_rank(d, c) == r
            # c itself is the one all-even counter in [c, c + 1)
            assert search._even_rank(d, c + 1) == r + 1
    for d in range(1, 10):
        # the end of the counter range counts every all-even counter
        assert search._even_rank(d, 1 << free_bit_count(d)) == \
            1 << search.rank_bit_count(d)


# partition 1023 starts with an odd last row, so it holds no orientable
# candidate; partition 384 starts at a counter whose rows are all even
@pytest.mark.parametrize("k, limit, orientable", [
    (1023, 64, 0), (384, 1 << 14, 4096)])
def test_far_partition_seeks_directly(k, limit, orientable):
    d, parts = 9, 1024
    stats = enumerate_space(
        SearchSpec(dim=d, partition=(k, parts), limit=limit), None)
    lo = k * (1 << free_bit_count(d)) // parts
    # the scan oracle would walk from counter 0, so filter the range directly
    matrices = [matrix_from_counter(d, c) for c in range(lo, lo + limit)]
    tested = [m for m in matrices
              if all(r.bit_count() % 2 == 0 for r in m.rows)]
    hits = [m for m in tested if counterexample_criterion(m).verdict]
    assert (stats.candidates, stats.tested, stats.pruned, stats.hits) == \
        (limit, len(tested), limit - len(tested), len(hits))
    assert len(tested) == orientable
    # a linear seek from counter 0 would run for minutes
    assert stats.wall_time_s < 10


@pytest.mark.parametrize("d", [6, 8, 9])
def test_block_entries_decode_ranks(d):
    """Lane n of a block holds the entries of the counter of rank base + n,
    for blocks narrower than the rank space and, at d = 6, as wide."""
    rng = random.Random(40 + d)
    for lane_bits in (3, min(search.LANE_BITS, search.rank_bit_count(d))):
        width = 1 << lane_bits
        for _ in range(3):
            base = rng.randrange(1 << search.rank_bit_count(d)) & -width
            entries = search._block_entries(d, base, lane_bits)
            for n in rng.sample(range(width), min(width, 64)):
                m = matrix_from_counter(
                    d, search._counter_from_rank(d, base + n))
                assert [[e >> n & 1 for e in col] for col in entries] == \
                    [[m.entry(i, j) for i in range(j)] for j in range(d)]
            assert all(e >> width == 0 for col in entries for e in col)


# blocks of 8 ranks: each range spans many and ends inside a block; the
# first holds the first d = 8 hit, the second starts at a hit two ranks into
# its block, after a hit outside the range
@pytest.mark.parametrize("lo, hi", [
    (GOLDEN_D8_FIRST_HIT - 3001, GOLDEN_D8_FIRST_HIT + 5003),
    (114106757, 114114759)])
def test_exhaustive_blocks_match_brute_criterion(monkeypatch, lo, hi):
    monkeypatch.setattr(search, "LANE_BITS", 3)
    hits = []
    stats = search._enumerate_range(SearchSpec(dim=8), lo, hi, hits.append)
    tested = [c for c in range(lo, hi) if all(
        r.bit_count() % 2 == 0 for r in matrix_from_counter(8, c).rows)]
    brute = [c for c in tested
             if counterexample_criterion(matrix_from_counter(8, c)).verdict]
    assert stats.tested == len(tested) > 40
    assert [h.candidate_index for h in hits] == brute
    assert brute[0] in (GOLDEN_D8_FIRST_HIT, lo)


def test_exhaustive_hits_match_brute_criterion_d8():
    total = 1 << free_bit_count(8)
    parts = 131072
    for k in (55692, 55948, 70000):
        lo, hi = k * total // parts, (k + 1) * total // parts
        stats, hits = collect_hits(SearchSpec(dim=8, partition=(k, parts)))
        brute = [c for c in range(lo, hi)
                 if counterexample_criterion(matrix_from_counter(8, c)).verdict]
        assert [h.candidate_index for h in hits] == brute
        assert stats.hits == len(brute)


def test_random_hits_match_brute_criterion():
    for d in range(9, 14):
        # about 24 orientable draws: all d - 1 rows of a draw are even
        # with probability 2^-(d-1)
        spec = SearchSpec(dim=d, mode="random", limit=24 << (d - 1), seed=d)
        stats, hits = collect_hits(spec)
        stream = xorshift_stream(spec.seed)
        brute = []
        for index in range(spec.limit):
            m = matrix_from_counter(
                d, draw_counter(stream, free_bit_count(d)))
            if all(r.bit_count() % 2 == 0 for r in m.rows) and \
                    counterexample_criterion(m).verdict:
                brute.append(index)
        assert stats.tested > 8
        assert [h.candidate_index for h in hits] == brute


# -------------------------------------------------------------- partitions

def test_exhaustive_partition_union():
    full, full_hits = collect_hits(SearchSpec(dim=6))
    for parts in (2, 4, 8):
        cand = tested = pruned = 0
        ordinals = []
        for k in range(parts):
            s, h = collect_hits(SearchSpec(dim=6, partition=(k, parts)))
            cand += s.candidates
            tested += s.tested
            pruned += s.pruned
            ordinals.extend(hh.candidate_index for hh in h)
        assert cand == full.candidates
        assert tested == full.tested
        assert pruned == full.pruned
        assert ordinals == [h.candidate_index for h in full_hits]


def test_random_partition_union():
    full = collect_hits(SearchSpec(dim=9, mode="random", limit=4000, seed=7))
    ordinals = []
    for k in range(4):
        _, h = collect_hits(
            SearchSpec(dim=9, mode="random", limit=4000, seed=7, partition=(k, 4)))
        ordinals.extend(hh.candidate_index for hh in h)
    assert sorted(ordinals) == [h.candidate_index for h in full[1]]


def test_run_partitioned_merges_like_serial():
    serial, serial_hits = collect_hits(SearchSpec(dim=6))
    merged, merged_hits = run_partitioned(SearchSpec(dim=6), 4)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert [h.candidate_index for h in merged_hits] == \
        [h.candidate_index for h in serial_hits]


def test_run_partitioned_parts_share_exhaustive_work():
    # equal counter ranges would leave 12 of the 16 parts of d=8 with no
    # orientable counter; the parts are the aligned lane blocks of ranks
    # that the range meets
    d, jobs = 8, 2
    width = 1 << search.LANE_BITS
    total = 1 << free_bit_count(d)
    for lo, hi in [(0, total), (12345, GOLDEN_D8_FIRST_HIT), (5, 6)]:
        bounds = search._part_bounds(SearchSpec(dim=d), lo, hi, jobs)
        assert bounds[0] == lo and bounds[-1] == hi
        assert bounds == sorted(set(bounds))
        ranks = [search._even_rank(d, b) for b in bounds]
        assert all(r % width == 0 for r in ranks[1:-1])
        assert len(bounds) - 1 == \
            max(1, -(-ranks[-1] // width) - ranks[0] // width)
    assert len(bounds) == 2


def test_run_partitioned_streams_to_sink():
    # the pool also splits the range of a partition, here into 4 parts
    spec = SearchSpec(dim=8, partition=(219, 512))
    assert len(search._part_bounds(spec, *search._spec_range(spec), 2)) == 5
    serial, serial_hits = collect_hits(spec)
    streamed = []
    merged, returned = run_partitioned(spec, 2, streamed.append)
    assert returned == []
    assert (merged.candidates, merged.tested, merged.pruned) == \
        (serial.candidates, serial.tested, serial.pruned)
    assert merged.hits == serial.hits == len(streamed) > 0
    assert [h.candidate_index for h in streamed] == \
        [h.candidate_index for h in serial_hits]
    assert [h.report for h in streamed] == [h.report for h in serial_hits]


def test_run_partitioned_runs_one_block_without_a_pool(monkeypatch):
    # the ranks of shard 1740/4096 of d=8 are one lane block
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a single part")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    spec = SearchSpec(dim=8, partition=(1740, 4096))
    merged, hits = run_partitioned(spec, 2)
    serial, serial_hits = collect_hits(spec)
    assert merged.hits == serial.hits == len(hits) > 0
    assert [h.candidate_index for h in hits] == \
        [h.candidate_index for h in serial_hits]


@pytest.mark.parametrize("d, limit", [
    (7, 100000), (8, GOLDEN_D8_FIRST_HIT + (1 << 15))])
def test_run_partitioned_exhaustive_limit_matches_serial(d, limit):
    # the pool splits the serial run's range, not each part's own limit
    spec = SearchSpec(dim=d, limit=limit)
    serial, serial_hits = collect_hits(spec)
    merged, merged_hits = run_partitioned(spec, 2)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert merged.candidates == limit
    assert [h.candidate_index for h in merged_hits] == \
        [h.candidate_index for h in serial_hits]
    assert [h.matrix for h in merged_hits] == [h.matrix for h in serial_hits]
    assert (serial.hits > 0) == (d == 8)


def test_run_partitioned_random_merges_like_serial():
    spec = SearchSpec(dim=9, mode="random", limit=20000, seed=42)
    serial, serial_hits = collect_hits(spec)
    merged, merged_hits = run_partitioned(spec, 2)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert [h.candidate_index for h in merged_hits] == \
        [h.candidate_index for h in serial_hits]


# ------------------------------------------------- random-mode jump-ahead

def _brute_random(d, stream, count):
    """Orientable count and hit offsets of the next ``count`` draws of
    ``stream``, by the full criterion on every orientable draw."""
    orientable, hits = 0, []
    for offset in range(count):
        m = matrix_from_counter(d, draw_counter(stream, free_bit_count(d)))
        if all(r.bit_count() % 2 == 0 for r in m.rows):
            orientable += 1
            if counterexample_criterion(m).verdict:
                hits.append(offset)
    return orientable, hits


@pytest.mark.parametrize("seed", [0, 42, 0xDEADBEEFCAFEF00D])
def test_jump_matches_stepping(seed):
    start = search._xs_seed_state(seed)
    if seed == 0:
        assert start == search._XS_ZERO_SEED
    rng = random.Random(seed)
    counts = [0, 1, 2, 63, 64, 65] + [rng.randrange(10**5) for _ in range(5)]
    outputs = list(islice(xorshift_stream(seed), max(counts) + 1))
    for n in counts:
        # output n of the stream is the first output after n steps
        assert next(xorshift_stream(search._xs_jump(start, n))) == outputs[n]


def test_jumps_compose():
    rng = random.Random(4)
    for _ in range(20):
        state = rng.getrandbits(64) or 1
        a = rng.getrandbits(rng.randrange(1, 70))
        b = rng.getrandbits(rng.randrange(1, 70))
        assert search._xs_jump(search._xs_jump(state, a), b) == \
            search._xs_jump(state, a + b)
    # xorshift64* has period 2^64 - 1 on nonzero states
    assert search._xs_jump(state, (1 << 64) - 1) == state


def test_far_random_partition_starts_at_once():
    parts = 10**9
    spec = SearchSpec(dim=9, mode="random", limit=10**12,
                      partition=(parts - 1, parts))
    stats, hits = collect_hits(spec)
    assert stats.wall_time_s < 1
    lo = (parts - 1) * spec.limit // parts
    stream = xorshift_stream(search._xs_jump(search._xs_seed_state(0), lo))
    orientable, brute = _brute_random(9, stream, 1000)
    assert (stats.candidates, stats.tested, stats.pruned, stats.hits) == \
        (1000, orientable, 1000 - orientable, len(brute))
    assert [h.candidate_index - lo for h in hits] == brute


@pytest.mark.parametrize("d, two_words", [
    (12, True), (13, True), (9, False)])
def test_random_partitions_match_brute_criterion(d, two_words):
    # d = 12 and 13 draw two words, d = 9 one; about 16 orientable draws
    assert (len(search._draw_words(d)) == 2) == two_words
    spec = SearchSpec(dim=d, mode="random", limit=16 << (d - 1), seed=d)
    orientable, brute = _brute_random(d, xorshift_stream(d), spec.limit)
    expected = (spec.limit, orientable, spec.limit - orientable, len(brute))
    full, full_hits = collect_hits(spec)
    parts = [collect_hits(replace(spec, partition=(k, 3))) for k in range(3)]
    assert (full.candidates, full.tested, full.pruned, full.hits) == expected
    assert tuple(sum(getattr(st, f) for st, _ in parts) for f in (
        "candidates", "tested", "pruned", "hits")) == expected
    assert [h.candidate_index for h in full_hits] == brute
    assert [h.candidate_index for _, hs in parts for h in hs] == brute
    assert orientable > 4


def _scalar_orientable(d, seed, lo, hi):
    stream = xorshift_stream(seed)
    draws = [draw_counter(stream, free_bit_count(d)) for _ in range(hi)]
    return [(i, c) for i, c in enumerate(draws) if i >= lo and all(
        r.bit_count() % 2 == 0 for r in matrix_from_counter(d, c).rows)]


def test_orientable_draws_match_scalar_stream():
    # d = 4 runs windows of 2^15 draws, so this range spans four of them
    for d, seed, lo, hi in [(4, 7, 5000, 105000), (9, 0, 0, 1)]:
        assert list(search._orientable_draws(d, seed, lo, hi)) == \
            _scalar_orientable(d, seed, lo, hi)


def test_orientable_draws_small_lanes(monkeypatch):
    # three lanes of four steps put many windows and a ragged tail in every
    # range, for draws of zero to three words
    monkeypatch.setattr(search, "LANES", 3)
    monkeypatch.setattr(search, "WINDOW_STEP_BITS", 2)
    rng = random.Random(9)
    for d in list(range(1, 15)) + [17, 20]:
        seed = rng.choice([0, rng.getrandbits(64)])
        lo, hi = rng.randrange(100), rng.randrange(100, 400)
        assert list(search._orientable_draws(d, seed, lo, hi)) == \
            _scalar_orientable(d, seed, lo, hi)


@pytest.mark.parametrize("lane_bits", [search.LANE_BITS, 5])
def test_random_batches_emit_in_index_order(monkeypatch, lane_bits):
    # 48 orientable draws, in one kernel call or in a batch of 32 and a
    # partial last batch
    monkeypatch.setattr(search, "LANE_BITS", lane_bits)
    d, seed = 9, 5
    spec = SearchSpec(dim=d, mode="random", limit=64 << (d - 1), seed=seed)
    stats, hits = collect_hits(spec)
    orientable, brute = _brute_random(d, xorshift_stream(seed), spec.limit)
    assert (stats.tested, stats.hits) == (orientable, len(brute))
    assert [h.candidate_index for h in hits] == brute
    assert orientable == 48 and len(brute) > 8


# ------------------------------------------------------------- random mode

def test_random_mode_deterministic():
    a = collect_hits(SearchSpec(dim=9, mode="random", limit=2000, seed=42))
    b = collect_hits(SearchSpec(dim=9, mode="random", limit=2000, seed=42))
    assert [h.candidate_index for h in a[1]] == [h.candidate_index for h in b[1]]
    assert a[0].tested == b[0].tested


def test_random_mode_frozen_seed42_sequence():
    stats, hits = collect_hits(SearchSpec(dim=9, mode="random", limit=10000, seed=42))
    assert [h.candidate_index for h in hits[:8]] == GOLDEN_D9_RANDOM_PREFIX
    for h in hits:
        assert h.report.verdict


def test_random_mode_million_draw_capture():
    stats, hits = collect_hits(
        SearchSpec(dim=9, mode="random", limit=1_000_000, seed=42))
    assert stats.candidates == 1_000_000
    assert stats.hits == 1216
    assert [h.candidate_index for h in hits[:8]] == GOLDEN_D9_RANDOM_PREFIX
    assert hits[-1].candidate_index == 999693


def test_random_different_seeds_differ():
    a = collect_hits(SearchSpec(dim=9, mode="random", limit=3000, seed=1))
    b = collect_hits(SearchSpec(dim=9, mode="random", limit=3000, seed=2))
    assert [h.candidate_index for h in a[1]] != [h.candidate_index for h in b[1]]


# ------------------------------------------------------------- hit records

def test_benchmark_trace_hooks_resolve():
    # the traced benchmark runs (perfbench/workloads.py) patch these names
    # in the search module; they must keep resolving there
    from bottforge import charclass, gf2ring
    assert search.RingContext is gf2ring.RingContext
    assert callable(search.RingContext.from_column_supports)
    assert search.stiefel_whitney is charclass.stiefel_whitney
    assert search.square is gf2ring.square
    assert search.counterexample_criterion is charclass.counterexample_criterion


def test_hit_record_shape():
    _, hits = collect_hits(SearchSpec(dim=9, mode="random", limit=2000, seed=42))
    rec = hit_record(hits[0])
    assert set(rec) == {"dim", "matrix", "orientable", "w3sq_nonzero",
                        "witness", "candidate_index"}
    assert rec["dim"] == 9
    assert rec["orientable"] is True
    assert rec["w3sq_nonzero"] is True
    assert isinstance(rec["witness"], str)
    assert rec["matrix"] == hits[0].matrix.to_row_strings()
    parsed = json.loads(hit_json(hits[0]))
    assert parsed == rec


# --------------------------------------------------------------- reference

def test_reference_matrices_frozen_rows():
    assert REFERENCE_D9.to_row_strings() == [
        "010000001", "001000001", "000100001", "000010001", "000001001",
        "000000101", "000000011", "000000000", "000000000"]
    assert REFERENCE_D10_PADDED.dim == 10
    assert REFERENCE_D10_CHAIN.dim == 10
    assert REFERENCE_MATRICES == (REFERENCE_D9, REFERENCE_D10_PADDED,
                                  REFERENCE_D10_CHAIN)


def test_reference_reports_all_pass():
    reports = reproduce_reference()
    assert [r.dim for r in reports] == [9, 10, 10]
    assert all(r.verdict for r in reports)
    assert REFERENCE_D9_WITNESS_MASK in reports[0].w3sq.terms


def test_reference_d9_counter_is_reachable():
    c = counter_from_matrix(REFERENCE_D9)
    assert matrix_from_counter(9, c) == REFERENCE_D9


# ------------------------------------------------------------------ survey

def test_survey_counts():
    rows = minimal_dimension_survey(7)
    assert [r.dim for r in rows] == list(range(1, 8))
    for r in rows:
        assert r.candidates == 1 << free_bit_count(r.dim)
        assert r.hits == GOLDEN_HITS[r.dim]
        assert r.min_example is None
    with pytest.raises(ValueError):
        minimal_dimension_survey(9)
