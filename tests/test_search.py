"""Candidate enumeration: packing, pruning, partitioning, golden counts."""

import gc
import json
import os
import pickle
import random
from dataclasses import fields, replace
from itertools import islice, pairwise, product

import pytest

from bottforge import search
from bottforge.charclass import (REFERENCE_D9_WITNESS_MASK,
                                 REFERENCE_D10_CHAIN, REFERENCE_D10_PADDED,
                                 REFERENCE_MATRICES, SwReport,
                                 counterexample_criterion, reproduce_reference)
from bottforge.gf2ring import (BottMatrix, _counter_rows, _row_chunks,
                               _row_string)
from bottforge.search import (
    MAX_EXHAUSTIVE_SPAN,
    REFERENCE_D9,
    SearchSpec,
    SearchStats,
    SpecTooLargeError,
    counter_from_matrix,
    enumerate_space,
    free_bit_count,
    hit_json,
    hit_record,
    matrix_from_counter,
    minimal_dimension_survey,
    run_partitioned,
)

from helpers import (
    draw_counter,
    even_parity_counters_scan,
    orientable_by_rowsums,
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
        stats, hits = run_partitioned(SearchSpec(dim=d), 1)
        assert stats.candidates == 1 << free_bit_count(d)
        assert stats.hits == len(hits) == GOLDEN_HITS[d]


# ---------------------------------------------------------------- validity

def test_span_cap():
    with pytest.raises(SpecTooLargeError):
        enumerate_space(SearchSpec(dim=10), None)
    # same dimension is fine once a limit caps the range
    stats, hits = run_partitioned(SearchSpec(dim=10, limit=64), 1)
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
        with pytest.raises(ValueError, match="outside 0..2"):
            enumerate_space(SearchSpec(dim=6, seed=seed), None)


@pytest.mark.parametrize("field,spec", [
    ("dim", SearchSpec(dim=8.0)),
    ("dim", SearchSpec(dim=True)),
    ("limit", SearchSpec(dim=9, mode="random", limit=1000.7, seed=3)),
    ("limit", SearchSpec(dim=6, limit=True)),
    ("seed", SearchSpec(dim=9, mode="random", limit=10, seed=1.5)),
    ("seed", SearchSpec(dim=9, mode="random", limit=10, seed=True)),
    ("partition entry", SearchSpec(dim=6, partition=(0.5, 2))),
    ("partition entry", SearchSpec(dim=6, partition=(0, "2"))),
])
def test_spec_fields_refuse_non_integers(field, spec):
    """A field that is not an int, a bool included, is refused by name
    before the run starts, in one process and over a pool."""
    for run in (lambda: enumerate_space(spec, None),
                lambda: run_partitioned(spec, 2)):
        with pytest.raises(ValueError, match=f"^{field} .* is not an integer$"):
            run()


def test_random_seed_64_bit_range_accepted():
    for seed in (0, (1 << 64) - 1):
        spec = SearchSpec(dim=9, mode="random", limit=3000, seed=seed)
        stats, hits = run_partitioned(spec, 1)
        _, brute = _brute_random(9, xorshift_stream(seed), spec.limit)
        assert [h.candidate_index for h in hits] == brute


# ----------------------------------------------------------------- golden

def test_golden_counts_d6():
    stats, hits = run_partitioned(SearchSpec(dim=6), 1)
    assert stats.candidates == 1 << 15
    assert stats.hits == GOLDEN_HITS[6]


def test_golden_counts_d7():
    stats, hits = run_partitioned(SearchSpec(dim=7), 1)
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
    stats, hits = run_partitioned(
        SearchSpec(dim=8, mode="random", limit=30000, seed=99), 1)
    assert hits, "expected at least one hit at this draw budget"
    for h in hits:
        assert h.report.verdict
        assert counterexample_criterion(h.matrix).verdict


@pytest.mark.parametrize("spec", [
    SearchSpec(dim=8, partition=(870, 2048)),
    SearchSpec(dim=9, mode="random", limit=30000, seed=7)])
def test_flipped_recheck_verdict_raises(monkeypatch, spec):
    """One re-check report whose w3sq is 0, so that its verdict disagrees
    with the kernel, stops the run."""
    real = search.criteria_by_blocks

    def flip_one(dim, counters):
        reports = real(dim, counters)
        r = reports[len(reports) // 2]
        reports[len(reports) // 2] = SwReport(r.dim, r._w1, r._w3, 0)
        return reports
    monkeypatch.setattr(search, "criteria_by_blocks", flip_one)
    with pytest.raises(AssertionError, match="disagreed"):
        enumerate_space(spec)


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


@pytest.mark.parametrize("d", range(6, 12))
def test_block_counters_are_linear_in_the_rank(d):
    """The counter of rank base + n is the XOR of the block's counter and
    the table entry of n, for every lane n of seeded aligned bases, in full
    blocks and in short blocks of fewer lane bits."""
    rng = random.Random(60 + d)
    rank_bits = search.rank_bit_count(d)
    for lane_bits in (min(search.LANE_BITS, rank_bits), 5, 1):
        low = search._low_counters(d)[:1 << lane_bits]
        assert len(low) == 1 << lane_bits
        for _ in range(2 if lane_bits > 5 else 8):
            base = rng.randrange(1 << rank_bits) & -(1 << lane_bits)
            top = search._counter_from_rank(d, base)
            assert [top ^ c for c in low] == [
                search._counter_from_rank(d, base + n)
                for n in range(1 << lane_bits)]


def test_short_range_hits_match_brute_criterion():
    """A range of 300 ranks is decided in blocks of 2^9 ranks, fewer lane
    bits than a full block; its hits are the criterion's, wherever the
    range starts."""
    d = 8
    first = search._even_rank(d, GOLDEN_D8_FIRST_HIT)
    for r_lo in (first - 100, first + 7):
        lo = search._counter_from_rank(d, r_lo)
        hi = search._counter_from_rank(d, r_lo + 300)
        hits = []
        stats = search._enumerate_range(SearchSpec(dim=d), lo, hi,
                                        hits.append)
        assert stats.tested == 300
        brute = [c for c in range(lo, hi)
                 if orientable_by_rowsums(m := matrix_from_counter(d, c))
                 and counterexample_criterion(m).verdict]
        assert brute
        assert [h.candidate_index for h in hits] == brute
        assert all(counter_from_matrix(h.matrix) == h.candidate_index
                   for h in hits)


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
        stats, hits = run_partitioned(
            SearchSpec(dim=8, partition=(k, parts)), 1)
        brute = [c for c in range(lo, hi)
                 if counterexample_criterion(matrix_from_counter(8, c)).verdict]
        assert [h.candidate_index for h in hits] == brute
        assert stats.hits == len(brute)


def test_random_hits_match_brute_criterion():
    for d in range(9, 14):
        # about 24 orientable draws: all d - 1 rows of a draw are even
        # with probability 2^-(d-1)
        spec = SearchSpec(dim=d, mode="random", limit=24 << (d - 1), seed=d)
        stats, hits = run_partitioned(spec, 1)
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
    full, full_hits = run_partitioned(SearchSpec(dim=6), 1)
    for parts in (2, 4, 8):
        cand = tested = pruned = 0
        ordinals = []
        for k in range(parts):
            s, h = run_partitioned(SearchSpec(dim=6, partition=(k, parts)), 1)
            cand += s.candidates
            tested += s.tested
            pruned += s.pruned
            ordinals.extend(hh.candidate_index for hh in h)
        assert cand == full.candidates
        assert tested == full.tested
        assert pruned == full.pruned
        assert ordinals == [h.candidate_index for h in full_hits]


def test_random_partition_union():
    spec = SearchSpec(dim=9, mode="random", limit=4000, seed=7)
    full = run_partitioned(spec, 1)
    ordinals = []
    for k in range(4):
        _, h = run_partitioned(replace(spec, partition=(k, 4)), 1)
        ordinals.extend(hh.candidate_index for hh in h)
    assert sorted(ordinals) == [h.candidate_index for h in full[1]]


def test_run_partitioned_merges_like_serial():
    serial, serial_hits = run_partitioned(SearchSpec(dim=6), 1)
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


def test_random_parts_hold_about_one_kernel_batch():
    """Random-mode parts grow no longer with the run: past
    PARTS_PER_JOB * jobs parts, none holds more than 2^(LANE_BITS + d - 1)
    draws, about one kernel batch of orientable ones.  A d=20 batch takes
    2^32 draws, so 10^9 of them keep PARTS_PER_JOB parts per worker."""
    total = 10 ** 9
    for d, jobs, parts, most in ((9, 2, 477, 1 << 21), (9, 7, 477, 1 << 21),
                                 (3, 2, 30518, 1 << 15),
                                 (20, 2, 16, total // 16)):
        spec = SearchSpec(dim=d, mode="random", limit=total)
        bounds = search._part_bounds(spec, 0, total, jobs)
        sizes = [b - a for a, b in pairwise(bounds)]
        assert bounds[0] == 0 and bounds[-1] == total
        assert len(sizes) == parts
        assert max(sizes) <= most
        assert max(sizes) - min(sizes) <= 1


def test_random_parts_are_never_empty():
    """A short run splits into one part per draw at most, and a run of
    one draw, or of none, runs without a pool."""
    for limit in range(1, 41):
        spec = SearchSpec(dim=9, mode="random", limit=limit)
        bounds = search._part_bounds(spec, *search._spec_range(spec), 2)
        assert all(a < b for a, b in pairwise(bounds))
        assert len(bounds) - 1 == min(limit, search.PARTS_PER_JOB * 2)
    assert search._part_bounds(spec, 7, 7, 2) == [7, 7]


def test_run_partitioned_random_many_parts_match_serial():
    """A d=3 run of 2^20 draws splits into 32 parts, more than
    PARTS_PER_JOB per worker, and merges to the serial run."""
    spec = SearchSpec(dim=3, mode="random", limit=1 << 20, seed=11)
    assert len(search._part_bounds(spec, 0, 1 << 20, 2)) - 1 == 32
    serial, serial_hits = run_partitioned(spec, 1)
    merged, merged_hits = run_partitioned(spec, 2)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert merged.tested > 0 and merged_hits == serial_hits == []


def test_run_partitioned_streams_to_sink():
    # the pool also splits the range of a partition, here into 4 parts
    spec = SearchSpec(dim=8, partition=(219, 512))
    assert len(search._part_bounds(spec, *search._spec_range(spec), 2)) == 5
    serial, serial_hits = run_partitioned(spec, 1)
    streamed = []
    merged, returned = run_partitioned(spec, 2, streamed.append)
    assert returned == []
    assert (merged.candidates, merged.tested, merged.pruned) == \
        (serial.candidates, serial.tested, serial.pruned)
    assert merged.hits == serial.hits == len(streamed) > 0
    assert [h.candidate_index for h in streamed] == \
        [h.candidate_index for h in serial_hits]
    assert [h.report for h in streamed] == [h.report for h in serial_hits]


def test_pooled_hit_pickles_as_plain_values():
    """A hit that came through the pool pickles back to an equal hit, and
    its report carries the kernel values, not polynomial objects."""
    spec = SearchSpec(dim=9, mode="random", limit=6000, seed=42)
    _, hits = run_partitioned(spec, 2)
    assert hits == run_partitioned(spec, 1)[1]
    for hit in hits[:20]:
        assert pickle.loads(pickle.dumps(hit)) == hit
        assert {type(hit.report._w1), type(hit.report._w3sq)} == {int}
    assert "Gf2Poly" not in repr(pickle.dumps(hits))


@pytest.mark.parametrize("enabled", [True, False])
def test_run_partitioned_restores_gc_state(enabled):
    """The collector is paused while the parts merge, and left as it was
    found after a normal return and after a sink that raises."""
    spec = SearchSpec(dim=9, mode="random", limit=20000, seed=3)

    def failing_sink(hit):
        raise RuntimeError("sink failed")
    try:
        gc.enable() if enabled else gc.disable()
        seen = []
        stats, _ = run_partitioned(spec, 2,
                                   lambda h: seen.append(gc.isenabled()))
        assert len(seen) == stats.hits > 0 and not any(seen)
        assert gc.isenabled() == enabled
        with pytest.raises(RuntimeError):
            run_partitioned(spec, 2, failing_sink)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_run_partitioned_lets_parts_finish_before_terminating(monkeypatch):
    """After a sink raises, no part is in flight when the pool is left (and
    so terminated): a worker killed while it sends its result can leave the
    pool waiting on half a message for ever."""
    import multiprocessing
    real_pool = multiprocessing.Pool
    submitted, in_flight = [], []

    class WatchedPool:
        def __init__(self, jobs):
            self.pool = real_pool(jobs)

        def apply_async(self, *args):
            submitted.append(self.pool.apply_async(*args))
            return submitted[-1]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            in_flight.append(sum(not r.ready() for r in submitted))
            return self.pool.__exit__(*exc)

    def failing_sink(hit):
        raise RuntimeError("sink failed")
    monkeypatch.setattr(multiprocessing, "Pool", WatchedPool)
    with pytest.raises(RuntimeError):
        run_partitioned(SearchSpec(dim=8, partition=(27, 64)), 2,
                        failing_sink)
    assert len(submitted) > 1 and in_flight == [0]


def test_run_partitioned_runs_one_block_without_a_pool(monkeypatch):
    # the ranks of shard 1740/4096 of d=8 are one lane block
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a single part")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    spec = SearchSpec(dim=8, partition=(1740, 4096))
    merged, hits = run_partitioned(spec, 2)
    serial, serial_hits = run_partitioned(spec, 1)
    assert merged.hits == serial.hits == len(hits) > 0
    assert [h.candidate_index for h in hits] == \
        [h.candidate_index for h in serial_hits]


@pytest.mark.parametrize("d, limit", [
    (7, 100000), (8, GOLDEN_D8_FIRST_HIT + (1 << 15))])
def test_run_partitioned_exhaustive_limit_matches_serial(d, limit):
    # the pool splits the serial run's range, not each part's own limit
    spec = SearchSpec(dim=d, limit=limit)
    serial, serial_hits = run_partitioned(spec, 1)
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
    serial, serial_hits = run_partitioned(spec, 1)
    merged, merged_hits = run_partitioned(spec, 2)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert [h.candidate_index for h in merged_hits] == \
        [h.candidate_index for h in serial_hits]


@pytest.mark.parametrize("spec", [
    SearchSpec(dim=1, mode="random", limit=10),
    SearchSpec(dim=9, mode="random", limit=3, seed=5, partition=(0, 4)),
], ids=["d1-empty-draws", "empty-partition"])
def test_run_partitioned_random_without_steps_matches_serial(spec):
    # no part makes a jump: a d = 1 draw has no free bits, and partition 0
    # of 4 over 3 draws is empty
    serial, serial_hits = run_partitioned(spec, 1)
    merged, merged_hits = run_partitioned(spec, 2)
    assert (merged.candidates, merged.tested, merged.pruned, merged.hits) == \
        (serial.candidates, serial.tested, serial.pruned, serial.hits)
    assert merged_hits == serial_hits


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
    stats, hits = run_partitioned(spec, 1)
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
    full, full_hits = run_partitioned(spec, 1)
    parts = [run_partitioned(replace(spec, partition=(k, 3)), 1)
             for k in range(3)]
    assert (full.candidates, full.tested, full.pruned, full.hits) == expected
    assert tuple(sum(getattr(st, f) for st, _ in parts) for f in (
        "candidates", "tested", "pruned", "hits")) == expected
    assert [h.candidate_index for h in full_hits] == brute
    assert [h.candidate_index for _, hs in parts for h in hs] == brute
    assert orientable > 4


def _scalar_orientable(d, seed, lo, hi, skip=0):
    # the stream reaches draw ``skip`` by a jump, which
    # test_jump_matches_stepping pins to plain stepping
    words = -(-free_bit_count(d) // 64)
    stream = xorshift_stream(
        search._xs_jump(search._xs_seed_state(seed), skip * words))
    draws = [draw_counter(stream, free_bit_count(d)) for _ in range(skip, hi)]
    return [(i, c) for i, c in enumerate(draws, skip) if i >= lo and all(
        r.bit_count() % 2 == 0 for r in matrix_from_counter(d, c).rows)]


def test_orientable_draws_match_scalar_stream():
    # d = 4 runs windows of 2^15 draws, so the first range spans four of
    # them; the second runs one full window and then one of five lanes, the
    # top one even and partly past hi; at d = 12 row 9 runs over bits 63
    # and 64, so its parity carries into the second word; d = 64 draws 32
    # words a draw
    odd_tail = search.LANES * 128 + 5 * 128 - 7
    for d, seed, lo, hi in [(4, 7, 5000, 105000), (4, 5, 5, 5 + odd_tail),
                            (9, 0, 0, 1),
                            (12, 3, 7, 7 + 3 * search.LANES << 5),
                            (64, 11, 3, 3 + 2 * search.LANES)]:
        assert list(search._orientable_draws(d, seed, lo, hi)) == \
            _scalar_orientable(d, seed, lo, hi)
    # d = 9 steps a lane 2^12 times a window, so this range runs two full
    # windows and one of 129 lanes, the top one even and partly past hi;
    # the scalar stream checks an even and an odd lane at each end and in
    # the middle of each window
    lo, hi, run = 1000, 1000 + (5 << 19) + 77, 1 << 12
    draws = list(search._orientable_draws(9, 42, lo, hi))
    for window in range(lo, hi, search.LANES * run):
        for a in [window + lane * run for lane in (0, 127, 128, 255)]:
            if a < hi:
                b = min(a + run, hi)
                assert [x for x in draws if a <= x[0] < b] == \
                    _scalar_orientable(9, 42, a, b, skip=a)


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


def test_no_row_ends_on_bit_63_of_a_word():
    # the orientable flag of a 64-bit lane sits at bit 63
    for d in range(1, 65):
        for mask, mult, ends, stages in search._draw_words(d):
            assert not ends >> 63 & 1
            assert ends & mask == ends


def _row_parts(d):
    """Per draw word, the (start, stop) bits of each row's part of it and
    the bits on which a row ends, by brute force over the free positions."""
    row_of = [i for i, _ in search.free_positions(d)] + [None]
    words = []
    for at in range(0, len(row_of) - 1, 64):
        rows = row_of[at:at + 65]
        starts = [p for p in range(len(rows) - 1)
                  if not p or rows[p] != rows[p - 1]]
        ends = sum(1 << p for p in range(len(rows) - 1)
                   if rows[p] != rows[p + 1])
        words.append((list(zip(starts, starts[1:] + [len(rows) - 1])), ends))
    return words


def test_draw_words_fold_each_row_part_within_itself():
    # d = 9 draws one 36-bit word whose widest row part has 8 bits, where a
    # prefix XOR over the word shifted 6 times; no word ever folds in more
    # stages than such a prefix XOR shifts
    assert [len(stages) for *_, stages in search._draw_words(9)] == [3]
    rng = random.Random(17)
    for d in range(1, 65):
        words = search._draw_words(d)
        assert len(words) == len(_row_parts(d))
        for (mask, mult, ends, stages), (parts, row_ends) in zip(
                words, _row_parts(d)):
            assert ends == row_ends
            widest = max(stop - start for start, stop in parts)
            assert [k for k, _ in stages] == \
                [1 << i for i in range(7) if 1 << i < widest]
            assert len(stages) <= (mask.bit_length() - 1).bit_length()
            # a stage keeps exactly the bits whose source k below lies in
            # the same row part, so no stage crosses a row start
            for k, keep in stages:
                assert keep == sum(1 << p for start, stop in parts
                                   for p in range(start + k, stop))
            for _ in range(20):
                x = rng.getrandbits(64) & mask
                fold = x
                for k, keep in stages:
                    fold ^= fold << k & keep
                for start, stop in parts:
                    parity = (x >> start & (1 << stop - start) - 1).bit_count()
                    assert fold >> stop - 1 & 1 == parity & 1
                y = rng.getrandbits(64)
                assert y * mult & mask == y * search._XS_MULT & mask
            assert mult <= mask


def test_lanes_of_lists_set_bits_in_order():
    rng = random.Random(3)
    for mask in [0, 1, 1 << 8191] + [rng.getrandbits(8192) for _ in range(3)]:
        assert search._lanes_of(mask) == \
            [n for n in range(mask.bit_length()) if mask >> n & 1]


def test_random_pool_builds_jump_tables_in_the_parent():
    # the parts of 20000 one-word draws start less than 2^15 steps in, and
    # the workers inherit the tables of those jumps at fork
    search._step_power.cache_clear()
    run_partitioned(SearchSpec(dim=9, mode="random", limit=20000, seed=42), 2)
    assert search._step_power.cache_info().currsize == (20000).bit_length()


@pytest.mark.parametrize("lane_bits", [search.LANE_BITS, 5])
def test_random_batches_emit_in_index_order(monkeypatch, lane_bits):
    # 48 orientable draws, in one kernel call or in a batch of 32 and a
    # partial last batch
    monkeypatch.setattr(search, "LANE_BITS", lane_bits)
    d, seed = 9, 5
    spec = SearchSpec(dim=d, mode="random", limit=64 << (d - 1), seed=seed)
    stats, hits = run_partitioned(spec, 1)
    orientable, brute = _brute_random(d, xorshift_stream(seed), spec.limit)
    assert (stats.tested, stats.hits) == (orientable, len(brute))
    assert [h.candidate_index for h in hits] == brute
    assert orientable == 48 and len(brute) > 8


# ------------------------------------------------------------- random mode

def test_random_mode_deterministic():
    spec = SearchSpec(dim=9, mode="random", limit=2000, seed=42)
    a, b = run_partitioned(spec, 1), run_partitioned(spec, 1)
    assert [h.candidate_index for h in a[1]] == [h.candidate_index for h in b[1]]
    assert a[0].tested == b[0].tested


def test_random_mode_frozen_seed42_sequence():
    stats, hits = run_partitioned(
        SearchSpec(dim=9, mode="random", limit=10000, seed=42), 1)
    assert [h.candidate_index for h in hits[:8]] == GOLDEN_D9_RANDOM_PREFIX
    for h in hits:
        assert h.report.verdict


def test_random_mode_million_draw_capture():
    stats, hits = run_partitioned(
        SearchSpec(dim=9, mode="random", limit=1_000_000, seed=42), 1)
    assert stats.candidates == 1_000_000
    assert stats.hits == 1216
    assert [h.candidate_index for h in hits[:8]] == GOLDEN_D9_RANDOM_PREFIX
    assert hits[-1].candidate_index == 999693


def test_random_different_seeds_differ():
    spec = SearchSpec(dim=9, mode="random", limit=3000, seed=1)
    a = run_partitioned(spec, 1)
    b = run_partitioned(replace(spec, seed=2), 1)
    assert [h.candidate_index for h in a[1]] != [h.candidate_index for h in b[1]]


# ------------------------------------------------------------- hit records

def test_benchmark_trace_hooks_resolve(monkeypatch):
    """The traced benchmark runs (perfbench/workloads.py) patch these names
    in the search module, and derive specs with dataclasses.replace; the
    search calls none of the names, which must keep resolving there, and
    runs as before with traced stand-ins in their place."""
    from types import SimpleNamespace

    from bottforge import charclass, gf2ring
    assert search.RingContext is gf2ring.RingContext
    assert callable(search.RingContext.from_column_supports)
    assert search.stiefel_whitney is charclass.stiefel_whitney
    assert search.square is gf2ring.square
    assert search.counterexample_criterion is charclass.counterexample_criterion
    spec = SearchSpec(dim=8, partition=(870, 2048))
    assert replace(spec, limit=1) == SearchSpec(
        dim=8, partition=(870, 2048), limit=1)
    assert replace(spec, partition=(1, 2)).partition == (1, 2)
    expected = enumerate_space(replace(spec, limit=1 << 16)).hits
    for name in ("stiefel_whitney", "square", "counterexample_criterion"):
        monkeypatch.setattr(search, name, getattr(search, name))
    monkeypatch.setattr(search, "RingContext", SimpleNamespace(
        from_column_supports=search.RingContext.from_column_supports))
    assert enumerate_space(replace(spec, limit=1 << 16)).hits == expected > 0


def test_hit_record_shape():
    _, hits = run_partitioned(
        SearchSpec(dim=9, mode="random", limit=2000, seed=42), 1)
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


def test_hit_json_is_json_dumps_of_hit_record():
    """Byte for byte, on the hits of a d=8 shard and of random runs at
    d=9..12, and on a report that is no hit (false, null)."""
    runs = [SearchSpec(dim=8, partition=(870, 2048))] + [
        SearchSpec(dim=d, mode="random", limit=limit, seed=d)
        for d, limit in [(9, 30000), (10, 100000), (11, 100000),
                         (12, 200000)]]
    hits = []
    for spec in runs:
        run_hits = run_partitioned(spec, 1)[1]
        assert run_hits
        hits += run_hits
    zero = BottMatrix.zero(9)
    hits.append(search.SearchHit(dim=9, counter=0,
                                 report=counterexample_criterion(zero),
                                 candidate_index=0))
    for h in hits:
        assert hit_json(h) == json.dumps(hit_record(h),
                                         separators=(", ", ": "))


def test_row_runs_cover_every_row_once():
    """The runs of each dimension are whole rows, in order, each row in
    one run, the last run ending with the empty last row; a run holds at
    most RUN_BITS counter bits unless it is one row wider than that.  No
    run's table of strings grows past 2^RUN_BITS, also after 10^4 seeded
    counters at d=20, whose top row alone is a run of 19 bits."""
    assert search.RUN_BITS == 12
    runs8 = search._row_runs(8)
    assert [(m.bit_length() - m.bit_count(), m.bit_count())
            for m, _, _ in runs8] == [(0, 7), (7, 11), (18, 10)]
    for d in range(1, 21):
        runs = search._row_runs(d)
        assert runs[0][1] == 0 and runs[-1][2] == d
        assert all(a[2] == b[1] for a, b in zip(runs, runs[1:]))
        chunks = _row_chunks(d)
        for mask, first, end in runs:
            assert first < end
            assert mask == sum(((1 << w) - 1) << off
                               for off, w in chunks[first:end])
            assert mask.bit_count() <= search.RUN_BITS or end - first == 1
        assert sum(m for m, _, _ in runs) == (1 << free_bit_count(d)) - 1
    rng = random.Random(2020)
    report = SwReport(20, 0, 0, frozenset())
    for n in range(10 ** 4):
        hit = search.SearchHit(20, rng.getrandbits(free_bit_count(20)),
                               report, n)
        line = hit_json(hit)
    assert json.loads(line) == hit_record(hit)
    sizes = [len(table) for *_, table in search._run_tables(20)]
    assert max(sizes) <= 1 << search.RUN_BITS and sizes[0] > 0


def test_hit_json_rows_match_the_row_renderer():
    """For d = 1..20, on seeded counters, 0 and all ones, the matrix of a
    hit line is the ``_row_string`` join of ``_counter_rows``, read cold
    and again from the run cache, beside a report without a witness, one
    whose witness is the top monomial and one with w1 = x1, in the kernel
    of d."""
    rng = random.Random(1414)
    for d in range(1, 21):
        top = (1 << d) - 1
        reports = [SwReport(d, 0, 0, 0), SwReport(
            d, 0, 0, 1 << top if d <= 12 else frozenset({top})), SwReport(
            d, 1 << 1 if d <= 12 else frozenset({1}), 0, 0)]
        witnesses = [None, "".join(f"x{i + 1}" for i in range(d)), None]
        bits = free_bit_count(d)
        for n, c in enumerate([0, (1 << bits) - 1] +
                              [rng.getrandbits(bits) for _ in range(20)]):
            hit = search.SearchHit(d, c, reports[n % 3], c)
            want = '", "'.join(_row_string(d, row)
                               for row in _counter_rows(d, c))
            for line in (hit_json(hit), hit_json(hit)):
                body = line.split('"matrix": ["', 1)[1]
                assert body.split('"], "orientable"', 1)[0] == want
                assert json.loads(line) == hit_record(hit)
                assert hit_record(hit)["witness"] == witnesses[n % 3]
                assert hit_record(hit)["orientable"] == (n % 3 < 2)


def test_hit_record_semantics():
    """Hits are compared and hashed by value, so equal hits built apart
    dedupe in a set; the fields and their order are pinned, the repr
    shows the report's repr without its kernel values, and ``replace``
    and a pickle round trip give equal hits of the same class."""
    spec = SearchSpec(dim=9, mode="random", limit=3000, seed=42)
    first, second = run_partitioned(spec, 1)[1], run_partitioned(spec, 1)[1]
    assert first == second and first[0] is not second[0]
    assert [hash(h) for h in first] == [hash(h) for h in second]
    assert len(set(first + second)) == len(first) > 1
    assert [f.name for f in fields(search.SearchHit)] == [
        "dim", "counter", "report", "candidate_index"]
    hit = first[0]
    assert repr(hit) == (f"SearchHit(dim=9, counter={hit.counter}, "
                         f"report={hit.report!r}, "
                         f"candidate_index={hit.candidate_index})")
    assert "_w" not in repr(hit)
    moved = replace(hit, candidate_index=-1)
    assert type(moved) is search.SearchHit and moved != hit
    assert moved.report is hit.report
    for h in (hit, moved):
        back = pickle.loads(pickle.dumps(h))
        assert type(back) is search.SearchHit
        assert back == h and hash(back) == hash(h)


def test_hits_build_their_matrix_when_read():
    """A hit keeps its dimension and counter: two equal hits stay equal,
    and pickle to the same payload of plain ints, when one of them has had
    its matrix read; the matrix maps back to the counter."""
    spec = SearchSpec(dim=9, mode="random", limit=30000, seed=7)
    first, second = run_partitioned(spec, 1)[1], run_partitioned(spec, 1)[1]
    assert first and first == second
    for h in first:
        assert counter_from_matrix(h.matrix) == h.counter
        assert h.matrix.dim == h.dim == 9
    assert first == second
    assert [pickle.dumps(h) for h in first] == \
        [pickle.dumps(h) for h in second]
    payload = pickle.dumps(first[0])
    assert b"BottMatrix" not in payload and b"Gf2Poly" not in payload
    assert pickle.loads(payload) == first[0]
    # slotted: reading the matrix can leave nothing behind on the hit
    assert not hasattr(first[0], "__dict__")
    assert first[0].__slots__ == ("dim", "counter", "report",
                                  "candidate_index")
    _, hits = run_partitioned(SearchSpec(dim=8, partition=(870, 2048)), 1)
    assert all(counter_from_matrix(h.matrix) == h.counter == h.candidate_index
               for h in hits[::97])


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


def test_survey_min_example_is_the_first_hit(monkeypatch):
    """The d=8 survey row's min_example is the first hit's matrix, read
    from its hit; every run stops just past that hit."""
    real = search.enumerate_space

    def up_to_first_hit(spec, sink=None):
        return real(replace(spec, limit=GOLDEN_D8_FIRST_HIT + 1), sink)
    monkeypatch.setattr(search, "enumerate_space", up_to_first_hit)
    rows = minimal_dimension_survey(8)
    assert [r.min_example for r in rows[:7]] == [None] * 7
    assert (rows[7].hits, rows[7].min_example) == \
        (1, matrix_from_counter(8, GOLDEN_D8_FIRST_HIT))
    assert rows[7].min_example.to_row_strings() == GOLDEN_D8_FIRST_ROWS
