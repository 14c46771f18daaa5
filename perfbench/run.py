"""Benchmark of bottforge, run from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

It builds its inputs from ``--seed``, measures for ``--seconds`` seconds in
a closed loop, checks every output, prints each metric by name with its
unit, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from a
separate traced run.  ``--smoke`` swaps in tiny inputs for the benchmark's
own tests.  The full record (provenance, per-command numbers, notes) and
the trace spans are written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exhaustive-d8", "random-d9", "cli-oneshot")
SETUP_REPEATS = 9


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time; default run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import bottforge, build the inputs and exit "
                        "(what setup_s times)")
    return p.parse_args(argv)


def _import_package():
    """Import bottforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "bottforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bottforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bottforge
    if Path(bottforge.__file__).resolve().parent != SRC / "bottforge":
        raise SystemExit(f"perfbench: imported bottforge from "
                         f"{bottforge.__file__}, not from {SRC}")
    return bottforge


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown: unresolved " + name
        return ref
    except OSError:
        return "unknown: not a git checkout"


def _setup_seconds(args) -> float:
    """Median calibrated time of fresh interpreters that import bottforge
    and build this workload's inputs, then exit."""
    from calib import SpeedProbe, one_core

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    probe = SpeedProbe()
    with one_core(), probe.running():
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            t = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True)
            times.append(probe.calibrated(mark, time.perf_counter() - t))
    return statistics.median(times)


def _fill(declared, measured: dict, outcome, workload: str) -> dict:
    """Contract metrics in declaration order.  A per-layer metric the
    workload does not exercise reads 0, with a note saying so."""
    out = {}
    idle = []
    for m in declared:
        name = m["name"]
        if name not in measured:
            if "bound" in m:
                raise SystemExit(f"perfbench: {workload} did not measure "
                                 f"end-to-end metric {name}")
            idle.append(name)
        out[name] = {"value": measured.get(name, 0), "unit": m["unit"]}
    if idle:
        outcome.notes["not exercised"] = (
            f"{workload} does not run these layers, so they read 0: "
            + ", ".join(idle))
    extra = set(measured) - {m["name"] for m in declared}
    if extra:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(extra)}")
    return out


def run_one(args, spec) -> int:
    bottforge = _import_package()
    import workloads
    from spans import Tracer

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    load = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    if args.setup_only:
        return 0
    tracer = Tracer()
    if args.trace:
        outcome = workload.trace(seconds, tracer)
        declared = spec["per_layer"]
    else:
        outcome = workload.run(seconds)
        outcome.metrics["setup_s"] = _setup_seconds(args)
        declared = spec["end_to_end"]
    outcome.detail["failed_frac"] = (outcome.failed / outcome.attempted,
                                     "ratio")
    metrics = _fill(declared, outcome.metrics, outcome, args.workload)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": seconds,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "bottforge": bottforge.__version__,
            "git_commit": _git_commit(),
            "loadavg_at_start": load,
        },
        "inputs": workload.inputs(),
        "metrics": metrics,
        "detail": {k: {"value": v, "unit": u}
                   for k, (v, u) in outcome.detail.items()},
        "notes": outcome.notes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json")

    print(json.dumps({k: record[k] for k in ("provenance", "inputs")}))
    for failure in outcome.failures:
        print(f"{args.workload} FAILED {failure}")
    for name, m in {**metrics, **record["detail"]}.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, note in outcome.notes.items():
        print(f"{args.workload} note {name}: {note}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
