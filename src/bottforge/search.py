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
acts on the whole batch.  The hits of a batch leave in candidate order.
Each is re-checked straight from its counter by a separate route,
:func:`charclass.criteria_by_blocks`, whose reports are those of the full
criterion: in the ring of the hit's top-left (d-2) x (d-2) block, as many
at a time as one ring context stacks, each counter whole in its own slot,
with the row sums of every counter checked.  Below d = 6 the kernel finds
no hit, since w3^2 lives in degree 6.  A hit stays plain ints until
something reads it: it builds its matrix when read, its report keeps w1,
w3 and w3^2 of its slot and reads its flags and witness off them.  The
NDJSON line reads the row strings of each run of whole rows of the
counter from the run's own table, indexed by the run's chunk bits and
holding at most 2^RUN_BITS strings, and its flags and witness from one
bounded cache.

Exhaustive mode numbers the all-even counters by rank.  A rank drops
entry (i, i+1) of every row, the parity of the rest of the row, so ranks
map one to one and in order onto the all-even counters.  A counter range
becomes a rank range by counting the all-even counters below each end,
row by row, without a walk from counter 0, and the entry lanes of an
aligned block of ranks are periodic patterns.  The rank map is GF(2)-linear,
so the counter of each hit of a block is one XOR: the block's counter with
the counter of the hit's lane number, from a table built on first use.
Random mode jumps the xorshift64* stream straight to the first draw of
its range with powers of the GF(2) matrix of one state step (Haramoto et
al., INFORMS J. Comput. 20, 2008), each power kept as byte tables only.
It then steps LANES runs of consecutive draws at once, packed in 64-bit
lanes of one int, each lane started by a jump past the run before it,
prunes them by a parity fold within rows that never crosses a lane, and
transposes each batch of orientable draws, in index order, into entry lanes.
A pool builds the jump tables of its parts before it starts its workers.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice

from .charclass import SwReport, criteria_by_blocks, w3_square_lanes
from .gf2ring import (BottMatrix, _counter_rows, _free_slots, _row_chunks,
                      _row_fold, _row_string, format_monomial,
                      matrix_from_counter)
# importable from here for the benchmark only, which reads the counter
# codec's inverse and the d=9 reference from this module and patches the
# rest by name in its trace hooks; the search itself calls none of them
from .gf2ring import counter_from_matrix  # noqa: F401
from .charclass import REFERENCE_D9  # noqa: F401
from .charclass import counterexample_criterion, stiefel_whitney  # noqa: F401
from .gf2ring import RingContext, square  # noqa: F401

# bound at import: the benchmark's trace hooks swap RingContext in this
# module for a stand-in that has only the set-up call they time
_lowest = RingContext._lowest

MAX_EXHAUSTIVE_SPAN = 1 << 36
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
    range in random mode.  ``dim``, ``seed``, ``limit`` and the partition
    entries are ints (a bool is not); a run refuses any other value.
    """

    dim: int
    mode: str = "exhaustive"
    limit: int | None = None
    seed: int = 0
    partition: tuple[int, int] | None = None


@dataclass(unsafe_hash=True, slots=True)
class SearchHit:
    """A hit: the matrix of ``counter``, built when ``matrix`` is read.
    Read-only by convention and slotted, like its :class:`SwReport`."""

    dim: int
    counter: int
    report: SwReport
    candidate_index: int

    @property
    def matrix(self) -> BottMatrix:
        return matrix_from_counter(self.dim, self.counter)


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


@lru_cache(maxsize=None)
def _low_counters(d: int) -> tuple:
    """``_counter_from_rank(d, n)`` for every n of a full block, below
    2^min(LANE_BITS, rank_bit_count(d)), built on first use.

    The rank map is GF(2)-linear in the rank bits (a row's parity is a sum
    of its bits), so for a multiple ``base`` of 2^lane_bits and
    n < 2^lane_bits, the counter of rank base + n = base | n is the XOR of
    the counters of base and of n.  The table doubles one rank bit at a
    time, so the table of a shorter block is a prefix of this one.
    """
    table = [0]
    for t in range(min(LANE_BITS, rank_bit_count(d))):
        top = _counter_from_rank(d, 1 << t)
        table += [c ^ top for c in table]
    return tuple(table)


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


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _lanes_of(mask: int) -> list:
    """The set bits of a lane mask in increasing order, found in one
    linear pass over its binary digits.

    This is for kernel-width masks of thousands of bits, where
    ``gf2ring._bits`` is quadratic: it clears one bit of the whole int a
    step.  On the few-bit masks of the ring code ``_bits`` stays faster
    (0.50 against 0.94 us for 3 bits of 4 on a Xeon core)."""
    digits = format(mask, "b").encode().translate(_BINARY_DIGITS)[::-1]
    return list(compress(range(len(digits)), digits))


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


def _gf2_byte_tables(columns) -> tuple:
    """The GF(2) matrix with these 64 columns as 8 tables: table k maps
    each byte b to the image of b << 8k, so column j is
    ``tables[j >> 3][1 << (j & 7)]``.  The tables are unboxed 64-bit
    arrays, 2 KB each, as every squared power stays cached."""
    tables = []
    for at in range(0, 64, 8):
        table = [0]
        for column in columns[at:at + 8]:
            table += [x ^ column for x in table]
        tables.append(array("Q", table))
    return tuple(tables)


def _gf2_apply_bytes(tables, v: int) -> int:
    """Image of ``v`` under a matrix given by :func:`_gf2_byte_tables`."""
    out = 0
    for table in tables:
        out ^= table[v & 255]
        v >>= 8
    return out


@lru_cache(maxsize=None)
def _step_power(i: int) -> tuple:
    """Byte tables of the GF(2) matrix of 2^i state steps, squared up
    lazily."""
    if i == 0:
        return _gf2_byte_tables([_xs_step(1 << j) for j in range(64)])
    half = _step_power(i - 1)
    return _gf2_byte_tables([
        _gf2_apply_bytes(half, half[j >> 3][1 << (j & 7)])
        for j in range(64)])


def _xs_jump(state: int, n: int) -> int:
    """The state ``n`` steps after ``state``: one product per set bit of n."""
    i = 0
    while n:
        if n & 1:
            state = _gf2_apply_bytes(_step_power(i), state)
        n >>= 1
        i += 1
    return state


# Random mode steps LANES runs of consecutive draws at once, each run in a
# 64-bit lane of one int.  A window steps every lane at most 2^12 times, and
# fewer below d = 9, so that it expects at most 2^12 orientable draws.
LANES = 256
WINDOW_STEP_BITS = 12


@lru_cache(maxsize=None)
def _draw_words(d: int) -> tuple:
    """(mask, multiplier, row-end bits, fold stages) of each draw word.

    A draw takes one xorshift output per word, the first in the least
    significant bits, which the xorshift multiplier cut to the word's
    width gives alike.  Its rows are all even exactly when every row-end
    bit is 0 after the parity fold within rows of :func:`_row_fold`, cut
    to the word: stage ``(k, keep)`` keeps only the bits at least k into
    the word as well, so that no stage leaves the word's 64-bit lane, and
    a stage with nothing left to fold is dropped.
    """
    whole, ends = _row_fold(d)
    bits = free_bit_count(d)
    words = []
    for at in range(0, bits, 64):
        mask = (1 << min(64, bits - at)) - 1
        stages = [(k, cut) for k, keep in whole
                  if (cut := keep >> at & mask & -(1 << k))]
        words.append((mask, _XS_MULT & mask, ends >> at & mask, stages))
    return tuple(words)


def _orientable_draws(d: int, seed: int, lo: int, hi: int):
    """(index, counter) of the all-even-row draws among draws [lo, hi), in
    index order.

    Draw i is the counter made of xorshift outputs i*w+1 .. i*w+w, w words
    per draw.  The stream jumps straight to draw ``lo``, then runs in
    windows of at most LANES lanes of 64 bits, each lane owning ``steps``
    consecutive draws.  A step moves every lane one draw: xorshift with
    each shift masked to its lane, the multiply of the even and of the odd
    lanes apart, so that each product fills a lane pair of its own, a
    parity fold within rows whose row-end bits are 0 in an orientable lane
    (bit 63 carries its row's parity into the next word), and one
    borrow-free subtraction that keeps bit 63 of exactly those lanes.
    """
    words = _draw_words(d)
    w = len(words)
    steps = 1 << min(WINDOW_STEP_BITS, d + 3,
                     (-(-(hi - lo) // LANES) - 1).bit_length())
    state = _xs_jump(_xs_seed_state(seed), lo * w)
    base = lo
    while base < hi:
        lanes = min(LANES, -(-(hi - base) // steps))
        starts = [state]
        for _ in range(lanes - 1):
            starts.append(_xs_jump(starts[-1], steps * w))
        s = int.from_bytes(b"".join(x.to_bytes(8, "little") for x in starts),
                           "little")
        ones = int.from_bytes((b"\x01" + bytes(7)) * lanes, "little")
        evens = int.from_bytes((b"\x01" + bytes(15)) * (lanes + 1 >> 1),
                               "little")
        odds = ones ^ evens
        low52, low37 = (MASK64 >> 12) * ones, (MASK64 >> 27) * ones
        high39 = (MASK64 >> 25 << 25) * ones
        even_lanes, odd_lanes = MASK64 * evens, MASK64 * odds
        # No row ends on bit 63 of a word, so an orientable lane keeps the
        # flag and any other loses it to a borrow that stops at the flag.
        # Row i ends at draw bit S_i - 1, where 2 S_i = (i+1)(2d-2-i), and
        # bit 63 of a word would need 128 | 2 S_i.  The two factors sum to
        # 2d - 1, which is odd, so one of them would be a multiple of 128;
        # both are at most 2d - 2 < 128 for d <= 64.
        flag = ones << 63
        lane_words = [(mask * evens, mask * odds, mult, ends * ones,
                       [(k, keep * ones) for k, keep in stages])
                      for mask, mult, ends, stages in words]
        found = []
        for t in range(base, base + steps):
            odd = fold = 0
            outs = []
            for even_mask, odd_mask, mult, ends, stages in lane_words:
                s ^= s >> 12 & low52
                s ^= s << 25 & high39
                s ^= s >> 27 & low37
                out = (s & even_lanes) * mult & even_mask \
                    | (s & odd_lanes) * mult & odd_mask
                outs.append(out)
                # bit 63 of the last fold carries its row's parity so far
                fold = out ^ fold >> 63 & ones
                for k, keep in stages:
                    fold ^= fold << k & keep
                odd |= fold & ends
            even = flag - odd & flag
            if even:
                # one byte per lane: 1 where the lane's draw is orientable
                marks = (even >> 63).to_bytes(lanes << 3, "little")[::8]
                lane = marks.find(1)
                while lane >= 0:
                    counter = 0
                    for k, out in enumerate(outs):
                        counter |= (out >> (lane << 6) & MASK64) << (k << 6)
                    found.append((t + lane * steps, counter))
                    lane = marks.find(1, lane + 1)
        found.sort()
        for index, counter in found:
            if index >= hi:
                break
            yield index, counter
        state = s >> ((lanes - 1) << 6)
        base += lanes * steps


def _partition_range(total: int, partition) -> tuple[int, int]:
    if partition is None:
        return 0, total
    k, parts = partition
    if parts < 1 or not 0 <= k < parts:
        raise ValueError(f"bad partition {partition!r}")
    return k * total // parts, (k + 1) * total // parts


def _validate_spec(spec: SearchSpec) -> None:
    fields = [("dim", spec.dim), ("seed", spec.seed)]
    if spec.limit is not None:
        fields.append(("limit", spec.limit))
    fields += [("partition entry", x) for x in spec.partition or ()]
    for name, value in fields:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} {value!r} is not an integer")
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

    def emit(indices: list, counters: list) -> None:
        """Re-check the hits of one kernel call, in order, and pass them
        to the sink."""
        reports = criteria_by_blocks(d, counters)
        if not all(r.verdict for r in reports):
            raise AssertionError("fast path disagreed with full criterion")
        stats.hits += len(counters)
        if sink is not None:
            for index, counter, report in zip(indices, counters, reports):
                sink(SearchHit(d, counter, report, index))

    if spec.mode == "exhaustive":
        r_lo, r_hi = _even_rank(d, lo), _even_rank(d, hi)
        stats.tested = r_hi - r_lo
        # a short range needs no full-width block
        lane_bits = min(LANE_BITS, rank_bit_count(d),
                        (r_hi - r_lo).bit_length())
        width = 1 << lane_bits
        # aligned blocks of ranks, each decided in one kernel call
        for base in range(r_lo & -width, r_hi, width):
            valid = (1 << min(r_hi - base, width)) - (1 << max(r_lo - base, 0))
            hits = valid & w3_square_lanes(
                d, _block_entries(d, base, lane_bits), width)
            # the counters of the block's hits by the linear rank map
            top, low = _counter_from_rank(d, base), _low_counters(d)
            found = [top ^ low[n] for n in _lanes_of(hits)]
            emit(found, found)
    else:
        draws = _orientable_draws(d, spec.seed, lo, hi)
        while batch := list(islice(draws, 1 << LANE_BITS)):
            stats.tested += len(batch)
            hits = w3_square_lanes(
                d, _draw_entries(d, [c for _, c in batch]), len(batch))
            found = [batch[n] for n in _lanes_of(hits)]
            emit([i for i, _ in found], [c for _, c in found])
    stats.pruned = stats.candidates - stats.tested
    stats.wall_time_s = time.perf_counter() - start
    return stats


def _range_worker(spec: SearchSpec, lo: int, hi: int
                  ) -> tuple[SearchStats, list[SearchHit]]:
    hits: list[SearchHit] = []
    stats = _enumerate_range(spec, lo, hi, hits.append)
    return stats, hits


# Random mode splits its draws into PARTS_PER_JOB equal parts per pool
# worker, or into parts of one kernel batch of orientable draws if more;
# exhaustive parts are aligned rank blocks and do not use it.  The parts
# go out in order as workers free up, at most two per worker at once, so
# a worker slowed by other load takes fewer of them, and the parent holds
# the hits of a few parts at a time and a worker those of one, however
# long the range.
PARTS_PER_JOB = 8


def _part_bounds(spec: SearchSpec, lo: int, hi: int, jobs: int) -> list[int]:
    """Bounds of the contiguous parts of [lo, hi) for a pool of ``jobs``:
    in random mode ``PARTS_PER_JOB * jobs`` equal draw ranges, or more
    where a part would hold over 2^(LANE_BITS + d - 1) draws, about one
    kernel batch of orientable ones, and none empty unless the range is.
    Exhaustive parts are the aligned lane blocks of ranks that the range
    meets, so that each part is one kernel call (equal counter ranges
    would leave most parts without an orientable counter) and its hits
    stay few at any dimension."""
    if spec.mode == "random":
        span, batch = hi - lo, 1 << LANE_BITS + spec.dim - 1
        parts = min(span, max(PARTS_PER_JOB * jobs, -(-span // batch))) or 1
        return [lo + k * span // parts for k in range(parts + 1)]
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
    run; wall time is the elapsed time of the whole fan-out.  The cyclic
    garbage collector is off while the pool runs, and is left as it was
    found.
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

    if spec.mode == "random":
        # no jump of a part passes draw hi; built here, the tables reach
        # the workers at fork instead of being built in each of them
        steps = hi * len(_draw_words(spec.dim))
        if steps:  # 0 at d = 1, whose draws are empty
            _step_power(steps.bit_length() - 1)

    merged = SearchStats(dim=spec.dim, mode=spec.mode, candidates=hi - lo)
    parts = ((spec, a, b) for a, b in zip(bounds, bounds[1:]))
    # unpickling the parts' hits makes many objects and no reference
    # cycles, and each collection it triggers walks all the hits held here
    collecting = gc.isenabled()
    gc.disable()
    try:
        with multiprocessing.Pool(jobs) as pool:
            ahead = deque(pool.apply_async(_range_worker, part)
                          for part in islice(parts, 2 * jobs))
            try:
                while ahead:
                    part_stats, part_hits = ahead.popleft().get()
                    ahead.extend(pool.apply_async(_range_worker, part)
                                 for part in islice(parts, 1))
                    merged.tested += part_stats.tested
                    merged.hits += part_stats.hits
                    for hit in part_hits:
                        sink(hit)
            except Exception:
                # leaving the pool terminates it; a worker killed while it
                # sends a part's result can leave the pool waiting on half
                # a message for ever, so the parts in flight finish first
                for part in ahead:
                    part.wait()
                raise
    finally:
        if collecting:
            gc.enable()
    merged.pruned = merged.candidates - merged.tested
    merged.wall_time_s = time.perf_counter() - start
    return merged, hits


# hit_json takes a hit's rows in runs of at most RUN_BITS counter bits, each
# run from a table of its own
RUN_BITS = 12


@lru_cache(maxsize=None)
def _row_runs(d: int) -> tuple:
    """(counter mask, first row, end row) of each run of rows, top first;
    a row wider than RUN_BITS is a run alone, and the empty last row ends
    the last run."""
    runs, first, mask = [], 0, 0
    for i, (off, width) in enumerate(_row_chunks(d)):
        if i > first and mask.bit_count() + width > RUN_BITS:
            runs.append((mask, first, i))
            first, mask = i, 0
        mask |= (1 << width) - 1 << off
    return (*runs, (mask, first, d))


@lru_cache(maxsize=None)
def _run_tables(d: int) -> tuple:
    """(shift, mask, first, end, table) of each run of :func:`_row_runs`:
    the run's chunk bits are ``counter >> shift & mask``, and ``table``
    maps them to the strings of rows first..end-1 joined as
    :func:`hit_json` lists them, filled on first use.  A table holds at
    most 2^RUN_BITS strings: only a run one row wider than RUN_BITS has
    more keys, and it starts over when full."""
    out = []
    for mask, first, end in _row_runs(d):
        # d = 1 has one run, of the empty row, and no chunk bits
        shift = max((mask & -mask).bit_length() - 1, 0)
        out.append((shift, mask >> shift, first, end, {}))
    return tuple(out)


def hit_record(hit: SearchHit) -> dict:
    """Wire form of one hit for NDJSON output."""
    report = hit.report
    witness = report.witness
    return {
        "dim": hit.dim,
        "matrix": [_row_string(hit.dim, row)
                   for row in _counter_rows(hit.dim, hit.counter)],
        "orientable": report.orientable,
        "w3sq_nonzero": report.w3sq_nonzero,
        "witness": None if witness is None else format_monomial(witness),
        "candidate_index": hit.candidate_index,
    }


@lru_cache(maxsize=1 << 12)
def _flags_json(orientable: bool, witness: int | None) -> str:
    """The part of a hit line from the end of its matrix to its candidate
    index: the flags, and the witness, present exactly when w3sq is
    nonzero, which gives both of its fields."""
    return ('"], "orientable": %s, "w3sq_nonzero": %s, "witness": %s, '
            '"candidate_index": ' % (
                "true" if orientable else "false",
                "false" if witness is None else "true",
                "null" if witness is None
                else '"%s"' % format_monomial(witness)))


def hit_json(hit: SearchHit) -> str:
    """:func:`hit_record` as one JSON line, as ``json.dumps`` writes it
    with separators ", " and ": "; row strings and monomials need no
    escapes.  The rows come a run at a time from the tables of
    :func:`_run_tables`, rendered by :func:`hit_record`'s helper, as is
    the monomial.  The flags and the witness are read once, off the
    report's kernel values, into one cached piece of the line."""
    d, counter, report = hit.dim, hit.counter, hit.report
    runs = []
    for shift, mask, first, end, table in _run_tables(d):
        bits = counter >> shift & mask
        rows = table.get(bits)
        if rows is None:
            if len(table) >> RUN_BITS:
                table.clear()
            rows = table[bits] = '", "'.join([
                _row_string(d, row)
                for row in _counter_rows(d, bits << shift)[first:end]])
        runs.append(rows)
    return '{"dim": %d, "matrix": ["%s%s%d}' % (
        d, '", "'.join(runs),
        _flags_json(not report._w1, _lowest(report._w3sq)),
        hit.candidate_index)


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
