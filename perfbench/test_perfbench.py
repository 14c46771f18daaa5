"""Smoke tests of the benchmark itself: ``python3 -m pytest -q perfbench``.

They run every workload on its tiny ``--smoke`` inputs in both modes, so
every metric and gate path runs without the long workloads.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

from calib import KERNEL_NOMINAL_S, MIN_PROBES, SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import large_check_matrix, tail_percentile  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_the_result_contract(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0


def test_default_seed_passes_the_golden_gate():
    proc = _run(ROOT, "--workload", "all", "--seed", "0", "--seconds", "1",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert len(result["metrics"]) == 3 * len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exhaustive-d8", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_large_check_matrix_has_a_true_verdict_for_every_position():
    from bottforge.charclass import counterexample_criterion
    for seed in range(14):
        matrix = large_check_matrix(seed)
        assert matrix.dim == 14
        assert counterexample_criterion(matrix).verdict


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(10))) == (None, None)
    value, pct = tail_percentile(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for x in range(100) if x > value) == 10


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))

    def outer():
        inner()
        inner()
    tracer.wrap("outer", outer)()
    spans = {name: (start, end) for name, start, end, _ in tracer.spans}
    outer_total = spans["outer"][1] - spans["outer"][0]
    inner_total = sum(e - s for n, s, e, _ in tracer.spans if n == "inner")
    assert tracer.self_time("outer") == pytest.approx(outer_total - inner_total)
    assert tracer.totals()["inner"][1] == 2


def test_same_name_nesting_is_counted_once():
    tracer = Tracer()
    leaf = tracer.wrap("layer", lambda: None)
    tracer.wrap("layer", lambda: leaf())()
    assert tracer.totals()["layer"][1] == 1


def test_calibration_scales_to_the_nominal_kernel_time():
    probe = SpeedProbe()
    probe.samples = [0.002] * MIN_PROBES      # a core at half speed
    mark = probe.mark()
    probe.samples += [0.002] * 20             # 40 ms of probes in the call
    work = 1.0 * KERNEL_NOMINAL_S / 0.002
    assert probe.calibrated(mark, 1.04) == pytest.approx(work)
    assert probe.calibrated(mark, 1.0, shares_core=False) == \
        pytest.approx(work)
    # a call with too few probes of its own uses the last MIN_PROBES
    mark = probe.mark()
    probe.samples.append(0.001)
    basis = (0.002 * (MIN_PROBES - 1) + 0.001) / MIN_PROBES
    assert probe.calibrated(mark, 0.101) == pytest.approx(
        0.1 * KERNEL_NOMINAL_S / basis)


def test_probe_runs_during_a_call_and_stops_after():
    probe = SpeedProbe()
    with probe.running():
        mark = probe.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        during = len(probe.samples) - mark
    after = len(probe.samples)
    time.sleep(0.05)
    assert during >= 3
    assert len(probe.samples) == after
