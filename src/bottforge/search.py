"""Enumeration of Bott matrices against the orientable w3-square criterion.

A candidate is a strictly upper triangular binary d x d matrix, encoded as
a counter of d(d-1)/2 bits packed row-major: scanning rows top to bottom
and each row left to right, the b-th free entry is bit b of the counter.
Exhaustive mode visits counters in increasing order; random mode draws
counters from a seeded xorshift64* stream.  Either mode can be split into
K contiguous parts which together reproduce the unpartitioned run exactly,
including candidate indices.

Candidates whose row sums are not all even are never orientable and get
no ring work; with orientability pruning they are counted as pruned,
without it as tested.  Exhaustive mode seeks straight to the first
all-even counter of its range, then walks aligned blocks of all-even
counters: each block is sorted by column supports and evaluated with one
retargeted ring context, and its hits are emitted together in increasing
counter order.  Every hit is re-checked by the full criterion.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .charclass import SwReport, counterexample_criterion, stiefel_whitney
from .gf2ring import BottMatrix, RingContext, format_monomial, square

MAX_EXHAUSTIVE_SPAN = 1 << 36
# w3^2 sits in degree 6, above the top class of a smaller ring
MIN_HIT_DIM = 6


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
    prune_orientable: bool = True
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
    rows = [0] * d
    b = 0
    for i in range(d - 1):
        for j in range(i + 1, d):
            if (counter >> b) & 1:
                rows[i] |= 1 << j
            b += 1
    return BottMatrix(d, tuple(rows))


def counter_from_matrix(matrix: BottMatrix) -> int:
    counter = 0
    b = 0
    for i in range(matrix.dim - 1):
        for j in range(i + 1, matrix.dim):
            if matrix.entry(i, j):
                counter |= 1 << b
            b += 1
    return counter


def _row_chunks(d: int) -> list[tuple[int, int]]:
    """(offset, width) of each row's slice of the counter, top row first."""
    out = []
    offset = 0
    for i in range(d - 1):
        width = d - 1 - i
        out.append((offset, width))
        offset += width
    return out


def _rows_even(counter: int, chunks) -> bool:
    for offset, width in chunks:
        if (counter >> offset & ((1 << width) - 1)).bit_count() % 2:
            return False
    return True


def _column_supports(d: int, counter: int) -> list[int]:
    sup = [0] * d
    b = 0
    for i in range(d - 1):
        for j in range(i + 1, d):
            if (counter >> b) & 1:
                sup[j] |= 1 << i
            b += 1
    return sup


def _next_even_counter(counter: int, chunks, row: int) -> int | None:
    """Smallest all-even-row counter above ``counter``, by per-row carry.

    Assumes no such counter agrees with ``counter`` on rows ``row`` and up
    (row ``row`` is odd, or is row 0) and that the rows above it are even:
    row ``row`` then moves to its next even-weight value and the rows below
    it to zero, carrying upward on overflow.  None past the last counter.
    """
    for off, width in chunks[row:]:
        v = (counter >> off & ((1 << width) - 1)) + 1
        while v.bit_count() & 1:
            v += 1
        if not v >> width:
            top = off + width
            return counter >> top << top | v << off
    return None


def _even_parity_counters(d: int, lo: int, hi: int):
    """All-even-row counters in increasing order, restricted to [lo, hi).

    The top row occupies the least significant bits.  The first counter
    carries from the highest odd row of ``lo`` and each later one from row
    0, so nothing below ``lo`` is ever visited.
    """
    chunks = _row_chunks(d)
    counter = lo
    for row in range(len(chunks) - 1, -1, -1):
        off, width = chunks[row]
        if (lo >> off & ((1 << width) - 1)).bit_count() & 1:
            counter = _next_even_counter(lo, chunks, row)
            break
    while counter is not None and counter < hi:
        yield counter
        counter = _next_even_counter(counter, chunks, 0)


# A block is an aligned run of counters holding at most 2^16 all-even ones.
BLOCK_TESTED_BITS = 16


def _column_fields(d: int) -> list[tuple[int, int]]:
    """(shift, mask) of each column support in a packed key, column 0 first.

    Column j takes j bits and column 0 is the most significant, above the
    ``free_bit_count(d)`` counter bits, so sorting packed keys orders
    candidates by (y_0, y_1, ..., y_{d-1}).
    """
    top = 2 * free_bit_count(d)
    return [(top - j * (j + 1) // 2, (1 << j) - 1) for j in range(d)]


def _column_pack(d: int, counter: int) -> int:
    """The packed key of ``counter`` without its counter bits."""
    fields = _column_fields(d)
    out = 0
    for b, (i, j) in enumerate(free_positions(d)):
        if counter >> b & 1:
            out |= 1 << (fields[j][0] + i)
    return out


@lru_cache(maxsize=None)
def _block_layout(d: int) -> tuple[int, list]:
    """Block width s (in counter bits) and byte tables mapping the low s
    bits of a counter to their part of :func:`_column_pack`."""
    chunks = _row_chunks(d)

    def tested_bits(s):
        # all-even counters in an aligned run of 2^s, as a power of two
        return sum(max(min(width, s - off), 1) - 1
                   for off, width in chunks if s > off)

    s = 0
    while s < free_bit_count(d) and tested_bits(s + 1) <= BLOCK_TESTED_BITS:
        s += 1
    low = (1 << s) - 1
    tables = [(base, [_column_pack(d, v << base & low) for v in range(256)])
              for base in range(0, s, 8)]
    return s, tables


def _sorted_blocks(d: int, lo: int, hi: int):
    """Packed keys of the all-even counters of [lo, hi), one sorted list per
    aligned block, blocks in increasing counter order."""
    shift, tables = _block_layout(d)
    for block, counters in groupby(_even_parity_counters(d, lo, hi),
                                   key=lambda c: c >> shift):
        high = _column_pack(d, block << shift)
        keys = []
        for c in counters:
            key = high + c
            for base, table in tables:
                key += table[c >> base & 255]
            keys.append(key)
        keys.sort()
        yield keys


def _block_hits(d: int, keys: list) -> list[int]:
    """Hit counters of one block of sorted keys, in increasing order.

    ``keys`` is emptied once walked, so that the non-hit keys are freed
    before the block's hits are re-checked and printed.

    Neighbouring keys share their leading columns, so one retargeted
    context keeps most rewrite memos from one candidate to the next.
    """
    hits = []
    if d >= MIN_HIT_DIM:
        fields = _column_fields(d)
        ctx = RingContext.from_column_supports(d, (0,) * d)
        for key in keys:
            ctx.retarget([key >> at & m for at, m in fields])
            if _verdict(ctx):
                hits.append(key)
    keys.clear()
    counter_mask = (1 << free_bit_count(d)) - 1
    return sorted(key & counter_mask for key in hits)


MASK64 = (1 << 64) - 1
_XS_MULT = 0x2545F4914F6CDD1D
_XS_ZERO_SEED = 0x9E3779B97F4A7C15


def _xorshift_stream(seed: int):
    """xorshift64* output stream; a zero seed is replaced by a fixed odd
    constant because the all-zero state is a fixed point."""
    state = seed & MASK64
    if state == 0:
        state = _XS_ZERO_SEED
    while True:
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK64
        state ^= state >> 27
        yield (state * _XS_MULT) & MASK64


def _draw_counter(stream, bits: int) -> int:
    value = 0
    taken = 0
    while taken < bits:
        value |= next(stream) << taken
        taken += 64
    return value & ((1 << bits) - 1)


def _verdict(ctx: RingContext) -> bool:
    """Criterion tail for an orientable candidate: w3 != 0 and w3^2 != 0."""
    w3 = stiefel_whitney(ctx, 3)
    return bool(w3) and bool(square(ctx, w3))


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
    if spec.limit is not None and spec.limit < 0:
        raise ValueError("limit must be non-negative")


def enumerate_space(spec: SearchSpec, sink=None) -> SearchStats:
    """Run one enumeration, feeding every hit to ``sink`` as a SearchHit.

    Returns the run statistics; ``candidates`` counts every visited
    candidate including pruned ones.  Hits arrive in candidate order for a
    single run, but consumers must tolerate arbitrary order when partition
    runs are merged.
    """
    _validate_spec(spec)
    d = spec.dim
    bits = free_bit_count(d)
    stats = SearchStats(dim=d, mode=spec.mode)
    start = time.perf_counter()

    def emit(counter: int, index: int) -> None:
        matrix = matrix_from_counter(d, counter)
        report = counterexample_criterion(matrix)
        if not report.verdict:
            raise AssertionError("fast path disagreed with full criterion")
        stats.hits += 1
        if sink is not None:
            sink(SearchHit(matrix=matrix, report=report, candidate_index=index))

    if spec.mode == "exhaustive":
        total = 1 << bits
        lo, hi = _partition_range(total, spec.partition)
        if spec.limit is not None:
            hi = min(hi, lo + spec.limit)
        if hi - lo > MAX_EXHAUSTIVE_SPAN:
            raise SpecTooLargeError(
                f"{hi - lo} candidates in one run exceeds 2^36; "
                f"use partition to split the range")
        stats.candidates = hi - lo
        for keys in _sorted_blocks(d, lo, hi):
            stats.tested += len(keys)
            for counter in _block_hits(d, keys):
                emit(counter, counter)
        if spec.prune_orientable:
            stats.pruned = stats.candidates - stats.tested
        else:
            # the odd-row counters count as tested; they all fail w1 = 0
            stats.tested = stats.candidates
    else:
        lo, hi = _partition_range(spec.limit, spec.partition)
        stream = _xorshift_stream(spec.seed)
        for _ in range(lo):
            _draw_counter(stream, bits)
        chunks = _row_chunks(d)
        ctx = RingContext.from_column_supports(d, (0,) * d)
        for index in range(lo, hi):
            counter = _draw_counter(stream, bits)
            stats.candidates += 1
            if not _rows_even(counter, chunks):
                if spec.prune_orientable:
                    stats.pruned += 1
                    continue
                stats.tested += 1
                continue
            stats.tested += 1
            if d < MIN_HIT_DIM:
                continue
            ctx.retarget(_column_supports(d, counter))
            if _verdict(ctx):
                emit(counter, index)

    stats.wall_time_s = time.perf_counter() - start
    return stats


def collect_hits(spec: SearchSpec) -> tuple[SearchStats, list[SearchHit]]:
    hits: list[SearchHit] = []
    stats = enumerate_space(spec, hits.append)
    return stats, hits


def _partition_worker(args) -> tuple[SearchStats, list[SearchHit]]:
    spec_fields, k, parts = args
    spec = SearchSpec(**spec_fields, partition=(k, parts))
    return collect_hits(spec)


def run_partitioned(spec: SearchSpec, jobs: int) -> tuple[SearchStats, list[SearchHit]]:
    """Split a run into ``jobs`` partitions over a process pool and merge.

    The merged hit list and counters match the single-process run; wall
    time is the elapsed time of the whole fan-out.
    """
    if spec.partition is not None:
        raise ValueError("run_partitioned needs an unpartitioned spec")
    if jobs < 2:
        return collect_hits(spec)
    import multiprocessing

    start = time.perf_counter()
    fields = {"dim": spec.dim, "mode": spec.mode, "limit": spec.limit,
              "seed": spec.seed, "prune_orientable": spec.prune_orientable}
    merged = SearchStats(dim=spec.dim, mode=spec.mode)
    hits: list[SearchHit] = []
    with multiprocessing.Pool(jobs) as pool:
        for part_stats, part_hits in pool.imap(
                _partition_worker, [(fields, k, jobs) for k in range(jobs)]):
            merged.candidates += part_stats.candidates
            merged.tested += part_stats.tested
            merged.pruned += part_stats.pruned
            merged.hits += part_stats.hits
            hits.extend(part_hits)
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
