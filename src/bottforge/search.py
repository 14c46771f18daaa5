"""Enumeration of Bott matrices against the orientable w3-square criterion.

A candidate is a strictly upper triangular binary d x d matrix, encoded as
a counter of d(d-1)/2 bits packed row-major: scanning rows top to bottom
and each row left to right, the b-th free entry is bit b of the counter.
Exhaustive mode visits counters in increasing order; random mode draws
counters from a seeded xorshift64* stream.  Either mode can be split into
K contiguous parts which together reproduce the unpartitioned run exactly,
including candidate indices.

Candidates whose row sums are not all even are never orientable; they
get no ring work and are counted as pruned.  The orientable candidates
are decided 2^LANE_BITS at a time by the bit-sliced kernel
:func:`charclass.w3_square_lanes`: entry (i, j) of every candidate of a
batch sits in one int, bit n for candidate n, so one big-int operation
acts on the whole batch.  The hits of a batch leave in candidate order,
and each is re-checked by the full criterion on a fresh ring context, a
separate route.

Exhaustive mode numbers the all-even counters by rank.  A rank drops
entry (i, i+1) of every row, the parity of the rest of the row, so ranks
map one to one and in order onto the all-even counters.  A counter range
becomes a rank range by counting the all-even counters below each end,
row by row, without a walk from counter 0, and the entry lanes of an
aligned block of ranks are periodic patterns.
Random mode jumps the xorshift64* stream straight to the first draw of
its range with powers of the GF(2) matrix of one state step (Haramoto et
al., INFORMS J. Comput. 20, 2008), then steps LANES runs of consecutive
draws at once, packed in 128-bit lanes of one int, and prunes them all
with a few big-int operations per step; each batch of orientable draws,
in index order, is transposed into entry lanes.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .charclass import SwReport, counterexample_criterion, w3_square_lanes
from .gf2ring import BottMatrix, _bits, _free_slots, format_monomial
# importable from here for the benchmark's trace hooks, which patch them by
# name; the search itself no longer calls them
from .charclass import stiefel_whitney  # noqa: F401
from .gf2ring import RingContext, square  # noqa: F401

MAX_EXHAUSTIVE_SPAN = 1 << 36
# w3^2 sits in degree 6, above the top class of a smaller ring
MIN_HIT_DIM = 6
# The criterion decides 2^LANE_BITS candidates per call of the bit-sliced
# kernel, one per bit of its lane ints; 2^12 and 2^13 measure alike, 2^11
# and 2^14 slower.
LANE_BITS = 13


class SpecTooLargeError(ValueError):
    """Raised when a run would enumerate more than 2^36 candidates."""


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one enumeration run.

    ``partition = (k, K)`` restricts the run to the k-th of K equal chunks
    (0-based) of the counter range in exhaustive mode, or of the draw index
    range in random mode.
    """

    dim: int
    mode: str = "exhaustive"
    limit: int | None = None
    seed: int = 0
    partition: tuple[int, int] | None = None


@dataclass(frozen=True)
class SearchHit:
    matrix: BottMatrix
    report: SwReport
    candidate_index: int


@dataclass
class SearchStats:
    dim: int
    mode: str
    candidates: int = 0
    tested: int = 0
    pruned: int = 0
    hits: int = 0
    wall_time_s: float = 0.0


def free_bit_count(d: int) -> int:
    return d * (d - 1) // 2


def free_positions(d: int) -> list[tuple[int, int]]:
    """(row, col) pairs, 0-based, in counter bit order."""
    return [(i, j) for i in range(d - 1) for j in range(i + 1, d)]


def matrix_from_counter(d: int, counter: int) -> BottMatrix:
    # row i holds entries (i, i+1) .. (i, d-1): its chunk shifted by i + 1
    rows = [(counter >> off & ((1 << width) - 1)) << d - width
            for off, width in _row_chunks(d)]
    return BottMatrix(d, tuple(rows) + (0,))


def counter_from_matrix(matrix: BottMatrix) -> int:
    counter = 0
    for i, (off, width) in enumerate(_row_chunks(matrix.dim)):
        counter |= (matrix.rows[i] >> i + 1 & ((1 << width) - 1)) << off
    return counter


@lru_cache(maxsize=None)
def _row_chunks(d: int) -> tuple:
    """(offset, width) of each row's slice of the counter, top row first."""
    return tuple((i * (2 * d - i - 1) // 2, d - 1 - i) for i in range(d - 1))


# Ranks number the all-even-row counters in increasing order.  A rank drops
# entry (i, i+1) of every row, the lowest bit of the row's chunk, because
# that entry is the parity of the row's other entries; row i's part of a
# rank sits at offset off_i - i.

def rank_bit_count(d: int) -> int:
    return free_bit_count(d) - (d - 1)


def _even_rank(d: int, counter: int) -> int:
    """Number of all-even-row counters below ``counter``.

    Such a counter agrees with ``counter`` on the rows after some row i,
    the more significant ones, and has a smaller even-weight value in
    row i: of the values below v, one of each pair (2k, 2k+1) has even
    weight, and so does v - 1 when v is odd with odd weight.  Rows 0..i-1
    are then any all-even rows, 2^(off_i - i) choices.  The sum runs from
    the last row to the first and stops after an odd row, which no
    all-even counter shares.
    """
    if counter >> free_bit_count(d):
        return 1 << rank_bit_count(d)
    chunks = _row_chunks(d)
    rank = 0
    for i in range(d - 2, -1, -1):
        off, width = chunks[i]
        v = counter >> off & ((1 << width) - 1)
        odd = v.bit_count() & 1
        rank += ((v >> 1) + (v & odd)) << off - i
        if odd:
            break
    return rank


def _counter_from_rank(d: int, rank: int) -> int:
    counter = 0
    for i, (off, width) in enumerate(_row_chunks(d)):
        v = rank >> off - i & ((1 << width - 1) - 1)
        counter |= (v << 1 | v.bit_count() & 1) << off
    return counter


def _block_entries(d: int, base: int, lane_bits: int) -> list:
    """Entry lanes of the 2^lane_bits ranks from ``base`` (a multiple of
    2^lane_bits), rank base + n in lane n.

    Rank bit t below lane_bits is bit t of the lane number, a periodic
    pattern; a higher rank bit is fixed over the block, so its lane is 0
    or all ones; entry (i, i+1) is the XOR of the rest of row i.
    """
    full = (1 << (1 << lane_bits)) - 1
    free = _free_slots(lane_bits)
    entries = [[0] * j for j in range(d)]
    for i, (off, _) in enumerate(_row_chunks(d)):
        parity = 0
        for t, j in enumerate(range(i + 2, d), off - i):
            lane = full ^ free[t] if t < lane_bits else -(base >> t & 1) & full
            entries[j][i] = lane
            parity ^= lane
        entries[i + 1][i] = parity
    return entries


def _draw_entries(d: int, counters: list) -> list:
    """Entry lanes of ``counters``, counter n in lane n: their bit matrix
    transposed."""
    bits = free_bit_count(d)
    # format() puts bit 0 last, and the last counter first puts lane 0 last
    columns = list(zip(*(format(c, f"0{bits}b") for c in reversed(counters))))
    entries = [[0] * j for j in range(d)]
    for b, (i, j) in enumerate(free_positions(d)):
        entries[j][i] = int("".join(columns[bits - 1 - b]), 2)
    return entries


MASK64 = (1 << 64) - 1
_XS_MULT = 0x2545F4914F6CDD1D
_XS_ZERO_SEED = 0x9E3779B97F4A7C15


def _xs_seed_state(seed: int) -> int:
    """Initial xorshift64* state of a seed in 0..2^64-1; a zero seed is
    replaced by a fixed odd constant because the all-zero state is a fixed
    point."""
    return seed or _XS_ZERO_SEED


def _xs_step(state: int) -> int:
    """One xorshift64* state step, a GF(2)-linear map of 64-bit words."""
    state ^= state >> 12
    state ^= state << 25 & MASK64
    return state ^ state >> 27


def _gf2_apply(columns, v: int) -> int:
    """Image of ``v`` under the GF(2) matrix with these 64 columns."""
    out = 0
    while v:
        low = v & -v
        out ^= columns[low.bit_length() - 1]
        v ^= low
    return out


def _gf2_byte_tables(columns) -> list:
    """The GF(2) matrix with these 64 columns as 8 tables: table k maps
    each byte b to the image of b << 8k."""
    tables = []
    for at in range(0, 64, 8):
        table = [0]
        for column in columns[at:at + 8]:
            table += [x ^ column for x in table]
        tables.append(table)
    return tables


def _gf2_apply_bytes(tables, v: int) -> int:
    """Image of ``v`` under a matrix given by :func:`_gf2_byte_tables`."""
    out = 0
    for table in tables:
        out ^= table[v & 255]
        v >>= 8
    return out


@lru_cache(maxsize=None)
def _step_power(i: int) -> tuple:
    """Columns of the GF(2) matrix of 2^i state steps, squared up lazily."""
    if i == 0:
        return tuple(_xs_step(1 << j) for j in range(64))
    half = _step_power(i - 1)
    return tuple(_gf2_apply(half, c) for c in half)


def _xs_jump(state: int, n: int) -> int:
    """The state ``n`` steps after ``state``: one product per set bit of n."""
    i = 0
    while n:
        if n & 1:
            state = _gf2_apply(_step_power(i), state)
        n >>= 1
        i += 1
    return state


# Random mode steps LANES runs of consecutive draws at once, each run in a
# 128-bit lane of one int, so a lane's 64x64-bit product never carries into
# the next.  A window steps every lane at most 2^12 times, and fewer below
# d = 9, so that it expects at most 2^12 orientable draws.
LANES = 256
WINDOW_STEP_BITS = 12


@lru_cache(maxsize=None)
def _draw_words(d: int) -> tuple:
    """(mask, row-end bits, prefix shifts) of each 64-bit word of a draw.

    A draw takes one xorshift output per word, the first in the least
    significant bits.  Its rows are all even exactly when the prefix XOR
    of its bits is 0 at the last bit of every row.
    """
    bits = free_bit_count(d)
    ends = [off + width - 1 for off, width in _row_chunks(d)]
    words = []
    for at in range(0, bits, 64):
        width = min(64, bits - at)
        words.append(((1 << width) - 1,
                      sum(1 << (e - at) for e in ends if at <= e < at + 64),
                      [1 << k for k in range((width - 1).bit_length())]))
    return tuple(words)


def _orientable_draws(d: int, seed: int, lo: int, hi: int):
    """(index, counter) of the all-even-row draws among draws [lo, hi), in
    index order.

    Draw i is the counter made of xorshift outputs i*w+1 .. i*w+w, w words
    per draw.  The stream jumps straight to draw ``lo``, then runs in
    windows of at most LANES lanes, each lane owning ``steps`` consecutive
    draws.  A step moves every lane one draw: xorshift and multiply, a
    prefix XOR whose row-end bits are 0 in an orientable lane (the parity
    carries from word to word), and one borrow-free subtraction that sets
    bit 64 of exactly those lanes.
    """
    words = _draw_words(d)
    w = len(words)
    steps = 1 << min(WINDOW_STEP_BITS, d + 3,
                     (-(-(hi - lo) // LANES) - 1).bit_length())
    state = _xs_jump(_xs_seed_state(seed), lo * w)
    # the jump by one lane's run, as byte tables: it is applied once per
    # lane of every window
    lane_jump = _gf2_byte_tables(
        [_xs_jump(1 << j, steps * w) for j in range(64)])
    base = lo
    while base < hi:
        lanes = min(LANES, -(-(hi - base) // steps))
        starts = [state]
        for _ in range(lanes - 1):
            starts.append(_gf2_apply_bytes(lane_jump, starts[-1]))
        s = int.from_bytes(b"".join(x.to_bytes(16, "little") for x in starts),
                           "little")
        ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
        low = MASK64 * ones
        flag = ones << 64
        lane_words = [(mask * ones, ends * ones, shifts)
                      for mask, ends, shifts in words]
        found = []
        for t in range(base, base + steps):
            odd = carry = 0
            outs = []
            for mask, ends, shifts in lane_words:
                s ^= s >> 12 & low
                s ^= s << 25 & low
                s ^= s >> 27 & low
                out = s * _XS_MULT & mask
                outs.append(out)
                prefix = out ^ carry
                for k in shifts:
                    prefix ^= prefix << k
                odd |= prefix & ends
                carry = prefix >> 63 & ones
            even = flag - odd & flag
            if even:
                # one byte per lane: 1 where the lane's draw is orientable
                marks = (even >> 64).to_bytes(lanes << 4, "little")[::16]
                lane = marks.find(1)
                while lane >= 0:
                    counter = 0
                    for k, out in enumerate(outs):
                        counter |= (out >> (lane << 7) & MASK64) << (k << 6)
                    found.append((t + lane * steps, counter))
                    lane = marks.find(1, lane + 1)
        found.sort()
        for index, counter in found:
            if index >= hi:
                break
            yield index, counter
        state = s >> ((lanes - 1) << 7) & MASK64
        base += lanes * steps


def _partition_range(total: int, partition) -> tuple[int, int]:
    if partition is None:
        return 0, total
    k, parts = partition
    if parts < 1 or not 0 <= k < parts:
        raise ValueError(f"bad partition {partition!r}")
    return k * total // parts, (k + 1) * total // parts


def _validate_spec(spec: SearchSpec) -> None:
    if not 1 <= spec.dim <= 64:
        raise ValueError(f"dimension {spec.dim} outside 1..64")
    if spec.mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {spec.mode!r}")
    if spec.mode == "random":
        if spec.limit is None or spec.limit < 1:
            raise ValueError("random mode needs a positive limit")
        if not 0 <= spec.seed <= MASK64:
            raise ValueError(f"seed {spec.seed} outside 0..2^64-1")
    if spec.limit is not None and spec.limit < 0:
        raise ValueError("limit must be non-negative")


def _spec_range(spec: SearchSpec) -> tuple[int, int]:
    """The validated range [lo, hi) of a run: counters in exhaustive mode,
    draw indices in random mode."""
    _validate_spec(spec)
    if spec.mode == "random":
        return _partition_range(spec.limit, spec.partition)
    lo, hi = _partition_range(1 << free_bit_count(spec.dim), spec.partition)
    if spec.limit is not None:
        hi = min(hi, lo + spec.limit)
    if hi - lo > MAX_EXHAUSTIVE_SPAN:
        raise SpecTooLargeError(
            f"{hi - lo} candidates in one run exceeds 2^36; "
            f"use partition to split the range")
    return lo, hi


def enumerate_space(spec: SearchSpec, sink=None) -> SearchStats:
    """Run one enumeration, feeding every hit to ``sink`` as a SearchHit.

    Returns the run statistics; ``candidates`` counts every visited
    candidate including pruned ones.  Hits arrive in candidate order for a
    single run, but consumers must tolerate arbitrary order when partition
    runs are merged.
    """
    lo, hi = _spec_range(spec)
    return _enumerate_range(spec, lo, hi, sink)


def _enumerate_range(spec: SearchSpec, lo: int, hi: int, sink) -> SearchStats:
    """:func:`enumerate_space` over the range [lo, hi) of ``spec``'s mode."""
    d = spec.dim
    stats = SearchStats(dim=d, mode=spec.mode, candidates=hi - lo)
    start = time.perf_counter()

    def emit(counter: int, index: int) -> None:
        matrix = matrix_from_counter(d, counter)
        report = counterexample_criterion(matrix)
        if not report.verdict:
            raise AssertionError("fast path disagreed with full criterion")
        stats.hits += 1
        if sink is not None:
            sink(SearchHit(matrix=matrix, report=report, candidate_index=index))

    # below MIN_HIT_DIM no candidate needs the criterion
    decide = d >= MIN_HIT_DIM
    if spec.mode == "exhaustive":
        r_lo, r_hi = _even_rank(d, lo), _even_rank(d, hi)
        stats.tested = r_hi - r_lo
        # a short range needs no full-width block
        lane_bits = min(LANE_BITS, rank_bit_count(d),
                        (r_hi - r_lo).bit_length())
        width = 1 << lane_bits
        # aligned blocks of ranks, each decided in one kernel call
        blocks = range(r_lo & -width, r_hi, width) if decide else ()
        for base in blocks:
            valid = (1 << min(r_hi - base, width)) - (1 << max(r_lo - base, 0))
            if not valid:
                continue
            hits = valid & w3_square_lanes(
                d, _block_entries(d, base, lane_bits), width)
            for n in _bits(hits):
                counter = _counter_from_rank(d, base + n)
                emit(counter, counter)
    else:
        draws = _orientable_draws(d, spec.seed, lo, hi)
        while batch := list(islice(draws, 1 << LANE_BITS)):
            stats.tested += len(batch)
            if decide:
                hits = w3_square_lanes(
                    d, _draw_entries(d, [c for _, c in batch]), len(batch))
                for n in _bits(hits):
                    index, counter = batch[n]
                    emit(counter, index)
    stats.pruned = stats.candidates - stats.tested
    stats.wall_time_s = time.perf_counter() - start
    return stats


def _range_worker(spec: SearchSpec, lo: int, hi: int
                  ) -> tuple[SearchStats, list[SearchHit]]:
    hits: list[SearchHit] = []
    stats = _enumerate_range(spec, lo, hi, hits.append)
    return stats, hits


def collect_hits(spec: SearchSpec) -> tuple[SearchStats, list[SearchHit]]:
    return _range_worker(spec, *_spec_range(spec))


# Parts per worker: the hits are uneven across equal parts (at d=8 all of
# them lie in a quarter of the orientable counters), so the pool hands out
# many small parts in order instead of one large part per worker.
PARTS_PER_JOB = 8


def _part_bounds(spec: SearchSpec, lo: int, hi: int, jobs: int) -> list[int]:
    """Bounds of the contiguous parts of [lo, hi) for a pool of ``jobs``:
    ``PARTS_PER_JOB * jobs`` equal draw ranges in random mode.  Exhaustive
    parts are the aligned lane blocks of ranks that the range meets, so
    that each part is one kernel call (equal counter ranges would leave
    most parts without an orientable counter) and its hits stay few at
    any dimension."""
    if spec.mode == "random":
        parts = PARTS_PER_JOB * jobs
        return [lo + k * (hi - lo) // parts for k in range(parts + 1)]
    d = spec.dim
    width = 1 << LANE_BITS
    cuts = range(_even_rank(d, lo) // width + 1,
                 -(-_even_rank(d, hi) // width))
    return [lo, *(_counter_from_rank(d, c * width) for c in cuts), hi]


def run_partitioned(spec: SearchSpec, jobs: int, sink=None
                    ) -> tuple[SearchStats, list[SearchHit]]:
    """Split the range of a run, or of its partition, into parts over a
    pool of ``jobs`` processes and merge them in order; a range of one
    part runs in this process.

    Each part's hits go to ``sink`` once the parts before it have; with at
    most two parts per worker out at once, a slow sink holds the pool back
    instead of finished parts piling up here.  Without a sink the hits are
    collected and returned.  Hits and counters match the single-process
    run; wall time is the elapsed time of the whole fan-out.
    """
    hits: list[SearchHit] = []
    if sink is None:
        sink = hits.append
    start = time.perf_counter()
    lo, hi = _spec_range(spec)
    bounds = _part_bounds(spec, lo, hi, jobs) if jobs > 1 else [lo, hi]
    if len(bounds) == 2:
        return _enumerate_range(spec, lo, hi, sink), hits
    import multiprocessing

    merged = SearchStats(dim=spec.dim, mode=spec.mode, candidates=hi - lo)
    parts = ((spec, a, b) for a, b in zip(bounds, bounds[1:]))
    with multiprocessing.Pool(jobs) as pool:
        ahead = deque(pool.apply_async(_range_worker, part)
                      for part in islice(parts, 2 * jobs))
        while ahead:
            part_stats, part_hits = ahead.popleft().get()
            ahead.extend(pool.apply_async(_range_worker, part)
                         for part in islice(parts, 1))
            merged.tested += part_stats.tested
            merged.hits += part_stats.hits
            for hit in part_hits:
                sink(hit)
    merged.pruned = merged.candidates - merged.tested
    merged.wall_time_s = time.perf_counter() - start
    return merged, hits


def hit_record(hit: SearchHit) -> dict:
    """Wire form of one hit for NDJSON output."""
    report = hit.report
    return {
        "dim": hit.matrix.dim,
        "matrix": hit.matrix.to_row_strings(),
        "orientable": report.orientable,
        "w3sq_nonzero": bool(report.w3sq),
        "witness": format_monomial(report.witness) if report.witness is not None else None,
        "candidate_index": hit.candidate_index,
    }


def hit_json(hit: SearchHit) -> str:
    return json.dumps(hit_record(hit), separators=(", ", ": "))


# Reference matrices with known verdicts: the 9 x 9 witness and the two
# 10 x 10 variants (zero-padded, and the longer chain with a full last
# column).  Rows are 0/1 strings, top row first.

REFERENCE_D9 = BottMatrix.from_row_strings((
    "010000001",
    "001000001",
    "000100001",
    "000010001",
    "000001001",
    "000000101",
    "000000011",
    "000000000",
    "000000000",
))

REFERENCE_D10_PADDED = BottMatrix.from_row_strings((
    "0100000010",
    "0010000010",
    "0001000010",
    "0000100010",
    "0000010010",
    "0000001010",
    "0000000110",
    "0000000000",
    "0000000000",
    "0000000000",
))

REFERENCE_D10_CHAIN = BottMatrix.from_row_strings((
    "0100000001",
    "0010000001",
    "0001000001",
    "0000100001",
    "0000010001",
    "0000001001",
    "0000000101",
    "0000000011",
    "0000000000",
    "0000000000",
))

REFERENCE_MATRICES = (REFERENCE_D9, REFERENCE_D10_PADDED, REFERENCE_D10_CHAIN)

# coefficient target for the 9 x 9 check: x1x2x4x5x6x7
REFERENCE_D9_WITNESS_MASK = 0b1111011


def reproduce_reference() -> list[SwReport]:
    """Criterion reports for the three bundled reference matrices."""
    return [counterexample_criterion(m) for m in REFERENCE_MATRICES]


@dataclass(frozen=True)
class SurveyRow:
    dim: int
    candidates: int
    hits: int
    min_example: BottMatrix | None


def minimal_dimension_survey(d_max: int) -> list[SurveyRow]:
    """Exhaustive hit counts for d = 1..d_max (d_max <= 8).

    ``min_example`` is the hit with the smallest counter, None when the
    dimension has no hits.
    """
    if not 1 <= d_max <= 8:
        raise ValueError("survey supports d_max in 1..8")
    out = []
    for d in range(1, d_max + 1):
        first: list[BottMatrix] = []

        def sink(hit: SearchHit) -> None:
            if not first:
                first.append(hit.matrix)

        stats = enumerate_space(SearchSpec(dim=d), sink)
        out.append(SurveyRow(dim=d, candidates=stats.candidates,
                             hits=stats.hits,
                             min_example=first[0] if first else None))
    return out
