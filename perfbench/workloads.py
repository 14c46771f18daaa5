"""The three benchmark workloads: inputs from a seed, timed runs, traced
runs and the correctness gate.

Every workload is a closed loop with one caller: the next call starts only
after the previous one has returned.  The program sees only the inputs
built here.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from bottforge import abelian, cli, odometer, search
from bottforge.gf2ring import BottMatrix
from bottforge.search import SearchSpec, counter_from_matrix

from calib import SpeedProbe, one_core
from spans import Tracer

# Golden constants of tests/test_search.py, produced by the package itself.
GOLDEN_D8_FIRST_HIT = 114057603
GOLDEN_D9_RANDOM_PREFIX = [657, 1983, 2154, 2625, 6458, 7501, 8015, 9760]
GOLDEN_D9_MILLION_HITS = 1216
GOLDEN_D9_MILLION_LAST = 999693

# First hits of the d=8 shards (K = 2048) the seeds choose from, the golden
# shard 870 first.  All four have the shape of shard 870: 16384 tested
# candidates, 6208 hits, the first hit 24963 counters into the shard, and
# a start within 3% of its start, so the linear seek costs the same.
D8_FIRST_HITS = (GOLDEN_D8_FIRST_HIT, 114581891, 115630467, 117203331)
D8_COUNTER_BITS = 28
D8_SHARD_BITS = 17
# Smoke runs use the 2^11-counter sub-shard that holds the first hit.
D8_SMOKE_BITS = 11
# (candidates, tested, pruned, hits) per (k, K) partition, recorded by
# running enumerate_space on each of them when this benchmark was added.
D8_RECORDED = {
    (870, 2048): (131072, 16384, 114688, 6208),
    (874, 2048): (131072, 16384, 114688, 6208),
    (882, 2048): (131072, 16384, 114688, 6208),
    (894, 2048): (131072, 16384, 114688, 6208),
    (55692, 131072): (2048, 512, 1536, 192),
    (55948, 131072): (2048, 512, 1536, 224),
    (56460, 131072): (2048, 512, 1536, 224),
    (57228, 131072): (2048, 512, 1536, 192),
}

D9_DEFAULT_XORSHIFT_SEED = 42
POOL_JOBS = 2

# The limit-torsion system of the README and the odometer matrix it uses.
README_SYSTEM = {"generators": 2, "relations": [[0, 4]],
                 "beta": [[5, 0], [0, 5]], "n": 5,
                 "alpha": [[1, 0], [0, 1]]}
README_SYSTEM_LIMIT_TORSION = [4]
ODOMETER_MATRIX = "2\n2 1\n0 2\n"
ODOMETER_DET = 4
ODOMETER_LEVELS = 12
LARGE_CHAIN_DIM = 13


def _maxrss_mb(who) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def closed_loop(seconds: float, op) -> None:
    """Call ``op()`` back to back; stop before a call that would end after
    ``seconds``, judged by the length of the previous call.  At least one
    call is made."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        op()
        spent = time.perf_counter() - t
        if time.perf_counter() - start + spent > seconds:
            return


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    metrics: dict = field(default_factory=dict)    # contract name -> value
    detail: dict = field(default_factory=dict)     # name -> (value, unit)
    notes: dict = field(default_factory=dict)      # name -> explanation
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, errors) -> None:
        """Count one checked operation with its gate errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(errors[:3])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- search


def _span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _search_replacements(tracer: Tracer):
    """Traced stand-ins for the module-level names the search calls."""
    ring = search.RingContext
    return [
        (search, "RingContext", SimpleNamespace(
            from_column_supports=tracer.wrap(
                "gf2ring.setup", ring.from_column_supports))),
        (search, "stiefel_whitney",
         tracer.wrap("charclass.w3", search.stiefel_whitney)),
        (search, "square", tracer.wrap("gf2ring.square", search.square)),
        (search, "counterexample_criterion",
         tracer.wrap("charclass.recheck", search.counterexample_criterion)),
    ]


def _search_layers(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer times and call counts of traced search passes."""
    totals = tracer.totals()

    def get(name):
        t, n = totals.get(name, (0.0, 0))
        return t / passes, n / passes

    out = {}
    for span, metric in (("gf2ring.setup", "gf2ring.setup"),
                         ("charclass.w3", "charclass.w3"),
                         ("gf2ring.square", "gf2ring.square"),
                         ("charclass.recheck", "charclass.recheck")):
        t, n = get(span)
        out[metric + "_s"] = t
        out[metric + "_calls"] = n
    out["search.ndjson_s"] = get("search.ndjson")[0]
    out["search.self_s"] = tracer.self_time("search.enumerate_space") / passes
    return out


def _ndjson_errors(lines, dim: int, index_check) -> list:
    """Parse each NDJSON hit record and run ``index_check(index, matrix)``."""
    errors = []
    prev = -1
    for n, line in enumerate(lines):
        try:
            rec = json.loads(line)
            matrix = BottMatrix.from_row_strings(rec["matrix"])
            index = rec["candidate_index"]
            good = (rec["dim"] == dim and rec["orientable"] is True
                    and rec["w3sq_nonzero"] is True
                    and isinstance(rec["witness"], str))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"record {n} malformed: {exc}")
            break
        if not good:
            errors.append(f"record {n} does not describe a hit: {line}")
        elif not isinstance(index, int) or index <= prev:
            errors.append(f"record {n}: index {index!r} out of order")
        else:
            problem = index_check(index, matrix)
            if problem:
                errors.append(f"record {n}: {problem}")
        if errors:
            break
        prev = index
    return errors


class ExhaustiveD8:
    """One d=8 exhaustive shard, hits streamed as NDJSON into a buffer."""

    name = "exhaustive-d8"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.first_hit = D8_FIRST_HITS[seed % len(D8_FIRST_HITS)]
        bits = D8_SMOKE_BITS if smoke else D8_SHARD_BITS
        parts = 1 << (D8_COUNTER_BITS - bits)
        self.partition = (self.first_hit >> bits, parts)
        self.lo = self.partition[0] << bits
        self.hi = self.lo + (1 << bits)
        self.recorded = D8_RECORDED[self.partition]
        self.spec = SearchSpec(dim=8, partition=self.partition)

    def inputs(self) -> dict:
        return {"dim": 8, "partition": "%d/%d" % self.partition,
                "counters": self.hi - self.lo, "tested": self.recorded[1]}

    def _pass(self, tracer: Tracer | None = None):
        out = io.StringIO()

        def sink(hit):
            with _span(tracer, "search.ndjson"):
                out.write(search.hit_json(hit))
                out.write("\n")

        t = time.perf_counter()
        with _span(tracer, "search.enumerate_space"):
            stats = search.enumerate_space(self.spec, sink)
        return time.perf_counter() - t, stats, out.getvalue()

    def _gate(self, stats, ndjson: str) -> list:
        errors = []
        got = (stats.candidates, stats.tested, stats.pruned, stats.hits)
        if got != self.recorded:
            errors.append(f"stats {got} != recorded {self.recorded}")
        lines = ndjson.splitlines()
        if len(lines) != stats.hits:
            errors.append(f"{len(lines)} records for {stats.hits} hits")

        def index_check(index, matrix):
            if not self.lo <= index < self.hi:
                return f"index {index} outside the shard"
            if counter_from_matrix(matrix) != index:
                return f"matrix does not map back to index {index}"
            return None

        errors += _ndjson_errors(lines, 8, index_check)
        first = json.loads(lines[0])["candidate_index"] if lines else None
        if first != self.first_hit:
            errors.append(f"first hit {first} != {self.first_hit}")
        return errors

    def run(self, seconds: float) -> Outcome:
        res = Outcome()
        walls, cals = [], []
        last = {}
        probe = SpeedProbe()

        def op():
            mark = probe.mark()
            wall, stats, ndjson = self._pass()
            walls.append(wall)
            cals.append(probe.calibrated(mark, wall))
            last.update(stats=stats, nbytes=len(ndjson))
            res.record(self._gate(stats, ndjson))

        with one_core(), probe.running():
            closed_loop(seconds, op)
        cal = statistics.median(cals)
        tested = last["stats"].tested
        res.metrics = {
            "throughput_cal_per_s": tested / cal,
            "latency_cal_ms": cal * 1e3,
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        }
        res.detail = {
            "tested_per_s": (tested / cal, "1/s"),
            "shard_ms": (cal * 1e3, "ms"),
            "shard_wall_ms": (statistics.median(walls) * 1e3, "ms"),
            "shard_passes": (len(walls), "count"),
            "ndjson_bytes": (last["nbytes"], "bytes"),
            "probe_kernel_ms": (probe.kernel_ms(), "ms"),
        }
        return res

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        res = Outcome()
        plain, traced, seeks = [], [], []
        last = {}
        seek_spec = replace(self.spec, limit=1)

        def op():
            wall, stats, ndjson = self._pass()
            plain.append(wall)
            res.record(self._gate(stats, ndjson))
            with tracer.patched(_search_replacements(tracer)):
                wall, stats, ndjson = self._pass(tracer)
            traced.append(wall)
            last.update(stats=stats, nbytes=len(ndjson))
            res.record(self._gate(stats, ndjson))
            t = time.perf_counter()
            search.enumerate_space(seek_spec)
            seeks.append(time.perf_counter() - t)

        closed_loop(seconds, op)
        stats = last["stats"]
        layers = _search_layers(tracer, len(traced))
        layer_sum = sum(v for k, v in layers.items() if k.endswith("_s"))
        wall = statistics.fmean(traced)
        layers.update({
            "search.seek_s": statistics.median(seeks),
            "search.ndjson_bytes": last["nbytes"],
            "search.candidates": stats.candidates,
            "search.tested": stats.tested,
            "search.hits": stats.hits,
            "search.prune_ratio": _ratio(stats.tested, stats.candidates),
            "search.hit_ratio": _ratio(stats.hits, stats.tested),
            "trace.wall_s": wall,
            "trace.untraced_s": statistics.fmean(plain),
            "trace.overhead_s": wall - statistics.fmean(plain),
            "trace.unaccounted_s": wall - layer_sum,
        })
        res.metrics = layers
        res.notes["search.seek_s"] = (
            "enumerate_space on the same shard with limit=1; it is part of "
            "search.self_s, not an extra term")
        return res


def _xorshift_draws(seed: int, count: int, bits: int) -> list:
    """The first ``count`` counters of random mode, computed here from the
    xorshift64* definition rather than through the package."""
    mask64 = (1 << 64) - 1
    state = seed & mask64 or 0x9E3779B97F4A7C15
    words = -(-bits // 64)
    out = []
    for _ in range(count):
        value = 0
        for w in range(words):
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask64
            state ^= state >> 27
            value |= ((state * 0x2545F4914F6CDD1D) & mask64) << (64 * w)
        out.append(value & ((1 << bits) - 1))
    return out


class RandomD9:
    """Seeded d=9 random draws over a two-worker process pool."""

    name = "random-d9"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.draws = 10_000 if smoke else 2_000_000
        self.spec = SearchSpec(dim=9, mode="random", limit=self.draws,
                               seed=D9_DEFAULT_XORSHIFT_SEED + seed)

    def inputs(self) -> dict:
        return {"dim": 9, "draws": self.draws, "xorshift_seed": self.spec.seed,
                "jobs": POOL_JOBS}

    def _pool(self):
        t = time.perf_counter()
        stats, hits = search.run_partitioned(self.spec, POOL_JOBS)
        wall = time.perf_counter() - t
        t = time.perf_counter()
        lines = [search.hit_json(h) for h in hits]
        ndjson_s = time.perf_counter() - t
        return wall, ndjson_s, stats, hits, lines

    def _gate(self, stats, hits, lines) -> list:
        n = self.draws
        errors = []
        if (stats.candidates, stats.tested + stats.pruned) != (n, n):
            errors.append(f"stats {stats} do not cover {n} draws")
        if not stats.hits == len(hits) == len(lines):
            errors.append(f"{stats.hits} hits, {len(hits)} returned, "
                          f"{len(lines)} records")
        indices = [h.candidate_index for h in hits]

        def index_check(index, matrix):
            if index >= n:
                return f"index {index} beyond {n} draws"
            if any(r.bit_count() % 2 for r in matrix.rows):
                return "matrix is not orientable"
            return None

        errors += _ndjson_errors(lines, 9, index_check)
        if not errors and [json.loads(x)["candidate_index"]
                           for x in lines] != indices:
            errors.append("records are not the hits in order")
        if not all(h.report.verdict for h in hits):
            errors.append("a hit without a true verdict")
        if self.spec.seed == D9_DEFAULT_XORSHIFT_SEED:
            low = [i for i in indices if i < 1_000_000]
            if low[:8] != GOLDEN_D9_RANDOM_PREFIX:
                errors.append(f"first hits {low[:8]} != golden prefix")
            if n >= 1_000_000 and (len(low), low[-1:]) != (
                    GOLDEN_D9_MILLION_HITS, [GOLDEN_D9_MILLION_LAST]):
                errors.append(f"{len(low)} hits below 10^6 ending at "
                              f"{low[-1:]}, golden is 1216 ending at 999693")
        return errors

    def _serial_parts(self, tracer: Tracer | None = None):
        """Both partitions run one after the other in this process."""
        walls, parts = [], []
        for k in range(POOL_JOBS):
            spec = replace(self.spec, partition=(k, POOL_JOBS))
            hits = []

            def sink(hit):
                hits.append(hit)
                with _span(tracer, "search.ndjson"):
                    search.hit_json(hit)

            t = time.perf_counter()
            with _span(tracer, "search.enumerate_space"):
                stats = search.enumerate_space(spec, sink)
            walls.append(time.perf_counter() - t)
            parts.append((stats, hits))
        return walls, parts

    def _union_gate(self, stats, hits, parts) -> list:
        """The pool result is the serial partition union, and every hit is
        the draw at its index."""
        errors = []
        fields = ("candidates", "tested", "pruned", "hits")
        serial = tuple(sum(getattr(s, f) for s, _ in parts) for f in fields)
        if serial != tuple(getattr(stats, f) for f in fields):
            errors.append(f"pool stats differ from serial partitions {serial}")
        union = [h.candidate_index for _, part in parts for h in part]
        if union != [h.candidate_index for h in hits]:
            errors.append("pool hits differ from the serial partition union")
        if hits:
            draws = _xorshift_draws(self.spec.seed,
                                    hits[-1].candidate_index + 1, 36)
            for h in hits:
                if counter_from_matrix(h.matrix) != draws[h.candidate_index]:
                    errors.append(f"hit {h.candidate_index} is not the draw "
                                  f"at its index")
                    break
        return errors

    def run(self, seconds: float) -> Outcome:
        res = Outcome()
        walls, cals, ndjson = [], [], []
        last = {}
        probe = SpeedProbe()

        def op():
            mark = probe.mark()
            wall, ndjson_s, stats, hits, lines = self._pool()
            walls.append(wall)
            # the pool needs both cores, so the probe only samples the host
            cals.append(probe.calibrated(mark, wall, shares_core=False))
            ndjson.append(ndjson_s)
            last.update(stats=stats, hits=hits)
            res.record(self._gate(stats, hits, lines))

        with probe.running():
            closed_loop(seconds, op)
        peak = (_maxrss_mb(resource.RUSAGE_SELF)
                + POOL_JOBS * _maxrss_mb(resource.RUSAGE_CHILDREN))
        _, parts = self._serial_parts()
        res.record(self._union_gate(last["stats"], last["hits"], parts))
        cal = statistics.median(cals)
        res.metrics = {
            "throughput_cal_per_s": self.draws / cal,
            "latency_cal_ms": cal * 1e3,
            "peak_rss_mb": peak,
        }
        res.detail = {
            "candidates_per_s": (self.draws / cal, "1/s"),
            "pool_ms": (cal * 1e3, "ms"),
            "pool_wall_ms": (statistics.median(walls) * 1e3, "ms"),
            "ndjson_ms": (statistics.median(ndjson) * 1e3, "ms"),
            "pool_runs": (len(walls), "count"),
            "probe_kernel_ms": (probe.kernel_ms(), "ms"),
        }
        res.notes["peak_rss_mb"] = (
            "peak RSS of this process plus pool size times the largest peak "
            "of a pool worker: an upper bound on the concurrent footprint")
        return res

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        res = Outcome()
        pool, plain, traced = [], [], []
        last = {}

        def op():
            wall, _, stats, hits, lines = self._pool()
            pool.append(wall)
            res.record(self._gate(stats, hits, lines))
            walls, parts = self._serial_parts()
            plain.append(walls)
            res.record(self._union_gate(stats, hits, parts))
            with tracer.patched(_search_replacements(tracer)):
                walls, _ = self._serial_parts(tracer)
            traced.append(sum(walls))
            last.update(stats=stats, nbytes=sum(len(x) + 1 for x in lines))

        closed_loop(seconds, op)
        stats = last["stats"]
        part0 = statistics.median([w[0] for w in plain])
        part1 = statistics.median([w[1] for w in plain])
        untraced = statistics.fmean(sum(w) for w in plain)
        layers = _search_layers(tracer, len(traced))
        layer_sum = sum(v for k, v in layers.items() if k.endswith("_s"))
        wall = statistics.fmean(traced)
        layers.update({
            "search.skip_s": part1 - part0,
            "search.pool_s": statistics.median(pool) - max(part0, part1),
            "search.worker_imbalance": max(part0, part1) / min(part0, part1),
            "search.ndjson_bytes": last["nbytes"],
            "search.candidates": stats.candidates,
            "search.tested": stats.tested,
            "search.hits": stats.hits,
            "search.prune_ratio": _ratio(stats.tested, stats.candidates),
            "search.hit_ratio": _ratio(stats.hits, stats.tested),
            "trace.wall_s": wall,
            "trace.untraced_s": untraced,
            "trace.overhead_s": wall - untraced,
            "trace.unaccounted_s": wall - layer_sum,
        })
        res.metrics = layers
        res.notes.update({
            "search.skip_s": "serial time of partition 1/2 minus partition 0/2",
            "search.self_s": "both partitions, run one after the other in "
                             "this process; the pool's workers are not traced",
            "search.seek_s": "exhaustive mode only; random mode skips by "
                             "redrawing, which search.skip_s measures",
        })
        return res


# ------------------------------------------------------------------- cli


def large_check_matrix(seed: int) -> BottMatrix:
    """A d=14 matrix with a true verdict, above DENSE_DIM_LIMIT.

    It is the 13-dimensional chain (row i has ones in columns i+1 and 12,
    for i < 11), the shape of the 10-dimensional reference chain, with a
    zero row and column inserted at position ``seed % 14``.  A free
    generator keeps w3^2 nonzero, and every position gives the same ring up
    to renaming, so all seeds ask for the same amount of algebra.
    """
    d = LARGE_CHAIN_DIM
    chain = [(1 << (i + 1)) | (1 << (d - 1)) if i < d - 2 else 0
             for i in range(d)]
    k = seed % (d + 1)
    rows = [(r & ((1 << k) - 1)) | ((r >> k) << (k + 1)) for r in chain]
    rows.insert(k, 0)
    return BottMatrix(d + 1, tuple(rows))


class CliOneshot:
    """Fresh ``python -m bottforge.cli`` processes, five commands in turn."""

    name = "cli-oneshot"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        work = root / ".perfbench_out" / f"cli-inputs-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        files = {
            "d9": cli.format_matrix_file(search.REFERENCE_D9),
            "d14": cli.format_matrix_file(large_check_matrix(seed)),
            "system": json.dumps(README_SYSTEM),
            "odometer": ODOMETER_MATRIX,
        }
        paths = {}
        for key, text in files.items():
            paths[key] = str(work / key)
            Path(paths[key]).write_text(text, encoding="utf-8")
        self.commands = {
            "check": ["check", "--matrix", paths["d9"], "--full-sw",
                      "--sq", "3"],
            "check_large": ["check", "--matrix", paths["d14"], "--full-sw",
                            "--sq", "3"],
            "reproduce": ["reproduce", "--json"],
            "limit_torsion": ["limit-torsion", "--system", paths["system"]],
            "odometer": ["odometer", "--dim", "2", "--matrix",
                         paths["odometer"], "--levels", str(ODOMETER_LEVELS),
                         "--seed", str(seed)],
        }
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)

    def inputs(self) -> dict:
        root = str(self.root)
        return {"commands": {
                    key: " ".join(os.path.relpath(a, root)
                                  if a.startswith(root) else a for a in argv)
                    for key, argv in self.commands.items()},
                "large_dim": LARGE_CHAIN_DIM + 1,
                "large_free_position": self.seed % (LARGE_CHAIN_DIM + 1),
                "odometer_seed": self.seed}

    def _gate(self, key: str, rc: int, out: str) -> list:
        if rc != 0:
            return [f"{key}: exit code {rc}"]
        try:
            payload = json.loads(out)
            if key in ("check", "check_large"):
                dim = 9 if key == "check" else LARGE_CHAIN_DIM + 1
                ok = payload["verdict"] is True and payload["dim"] == dim
            elif key == "reproduce":
                ok = payload["ok"] is True
            elif key == "limit_torsion":
                ok = payload["limit_torsion"] == README_SYSTEM_LIMIT_TORSION
            else:
                ok = [lvl["order"] for lvl in payload["levels"]] == [
                    ODOMETER_DET ** i for i in range(ODOMETER_LEVELS + 1)]
        except (KeyError, TypeError, ValueError) as exc:
            return [f"{key}: malformed output: {exc}"]
        return [] if ok else [f"{key}: wrong output {out[:200]}"]

    def _spawn(self, argv):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              check=False)
        return time.perf_counter() - t, proc

    def run(self, seconds: float) -> Outcome:
        res = Outcome()
        lat = {key: [] for key in self.commands}
        walls = {key: [] for key in self.commands}
        cycles = []
        probe = SpeedProbe()

        def op():
            cycle = 0.0
            for key, argv in self.commands.items():
                mark = probe.mark()
                wall, proc = self._spawn(["-m", "bottforge.cli", *argv])
                cal = probe.calibrated(mark, wall)
                walls[key].append(wall)
                lat[key].append(cal)
                cycle += cal
                res.record(self._gate(key, proc.returncode, proc.stdout))
            cycles.append(cycle)

        with one_core(), probe.running():
            closed_loop(seconds, op)
        peak = _maxrss_mb(resource.RUSAGE_CHILDREN)
        check_ms = statistics.median(lat["check"]) * 1e3
        res.metrics = {
            "throughput_cal_per_s":
                len(self.commands) / statistics.median(cycles),
            "latency_cal_ms": check_ms,
            "peak_rss_mb": peak,
        }
        res.detail = {f"{key}_ms": (statistics.median(v) * 1e3, "ms")
                      for key, v in lat.items()}
        res.detail.update({f"{key}_wall_ms": (statistics.median(v) * 1e3, "ms")
                           for key, v in walls.items()})
        res.detail["probe_kernel_ms"] = (probe.kernel_ms(), "ms")
        tail, pct = tail_percentile(lat["check"])
        if tail is None:
            res.notes["check_tail_ms"] = (
                f"{len(lat['check'])} samples: no percentile has ten "
                "samples beyond it")
        else:
            res.detail["check_tail_ms"] = (tail * 1e3, "ms")
            res.detail["check_tail_percentile"] = (pct, "%")
        res.detail.update({
            "check_samples": (len(lat["check"]), "count"),
            "commands_per_s": (res.metrics["throughput_cal_per_s"], "1/s"),
        })
        res.notes["peak_rss_mb"] = "largest peak RSS of one CLI process"
        return res

    def _inprocess(self, key: str):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.commands[key])
        return time.perf_counter() - t, rc, out.getvalue()

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        res = Outcome()
        interp, imported = [], []
        for _ in range(5):
            interp.append(self._spawn(["-c", "pass"])[0])
            wall, proc = self._spawn(["-c", "import bottforge"])
            imported.append(wall)
            res.record([] if proc.returncode == 0 else
                       [f"import bottforge: exit code {proc.returncode}"])
        visited = []
        is_transitive = odometer.is_transitive

        def transitive(tower, i, budget=1_000_000):
            ok = is_transitive(tower, i, budget=budget)
            if ok:
                # the search saw every coset of the level
                visited.append(abs(tower.det) ** i)
            return ok

        wrap = tracer.wrap
        replacements = [
            (odometer, "expanding_check",
             wrap("odometer.expanding", odometer.expanding_check)),
            (odometer, "_snf_full", wrap("odometer.level", odometer._snf_full)),
            (odometer, "is_transitive", wrap("odometer.transitive", transitive)),
            (odometer, "escape_level",
             wrap("odometer.escape", odometer.escape_level)),
        ] + [(abelian, name, wrap("abelian.limit_torsion",
                                  getattr(abelian, name)))
             for name in ("torsion_subgroup", "check_beta_torsion_iso",
                          "direct_limit_torsion", "limit_torsion_bound")]
        plain, traced = [], []
        timings = {"check": [], "check_large": []}

        def op():
            for mode in ("plain", "traced"):
                walls = 0.0
                for key in self.commands:
                    if mode == "plain":
                        wall, rc, out = self._inprocess(key)
                    else:
                        with tracer.patched(replacements):
                            wall, rc, out = self._inprocess(key)
                    walls += wall
                    errors = self._gate(key, rc, out)
                    res.record(errors)
                    if key in timings and not errors:
                        timings[key].append(json.loads(out)["timings"])
                (plain if mode == "plain" else traced).append(walls)

        closed_loop(seconds, op)
        cycles = len(traced)
        totals = tracer.totals()

        def per_cycle(name):
            t, n = totals.get(name, (0.0, 0))
            return t / cycles, n / cycles

        layers = {
            "cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imported) - statistics.median(interp),
            "abelian.limit_torsion_s": per_cycle("abelian.limit_torsion")[0],
            "odometer.expanding_s": per_cycle("odometer.expanding")[0],
            "odometer.level_s": per_cycle("odometer.level")[0],
            "odometer.levels_built": per_cycle("odometer.level")[1],
            "odometer.transitive_s": per_cycle("odometer.transitive")[0],
            "odometer.cosets_visited": sum(visited) / cycles,
            "odometer.escape_s": per_cycle("odometer.escape")[0],
            "trace.wall_s": statistics.fmean(traced),
            "trace.untraced_s": statistics.fmean(plain),
            "trace.overhead_s": statistics.fmean(traced)
            - statistics.fmean(plain),
        }
        for key, suffix in (("check", ""), ("check_large", "_large")):
            for part in ("criterion", "full_sw", "sq"):
                layers[f"charclass.{part}{suffix}_s"] = statistics.median(
                    [t[part + "_s"] for t in timings[key]])
        res.metrics = layers
        res.notes.update({
            "cli": "traced commands run in this process through "
                   "bottforge.cli.main, so they exclude interpreter start "
                   "and import, which cli.interp_s and cli.import_s measure",
            "odometer.level_s": "time in the Smith normal forms of "
                                "OdometerTower.level misses, taken at "
                                "odometer._snf_full; the cached lookups are "
                                "not traced",
            "odometer.cosets_visited": "the level order of each level whose "
                                       "transitivity search returned true",
            "charclass": "medians of the timings field of the check reports",
        })
        return res


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile), or (None, None) when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


WORKLOADS = {w.name: w for w in (ExhaustiveD8, RandomD9, CliOneshot)}
