"""End-to-end command line behaviour via in-process main() calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from bottforge import abelian, charclass, cli, odometer, search
from bottforge.gf2ring import BottMatrix


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_d9(tmp_path):
    path = tmp_path / "d9.txt"
    path.write_text(cli.format_matrix_file(search.REFERENCE_D9))
    return str(path)


# ------------------------------------------------------------------- check

def test_check_d9_report(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, ["check", "--matrix", write_d9(tmp_path)])
    assert rc == 0
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=cli.REPORT_SCHEMA)
    assert report["version"] == "bott-forge/1"
    assert report["dim"] == 9
    assert report["orientable"] is True
    assert report["w1"] == []
    assert report["w3_term_count"] == 25
    assert report["w3sq_nonzero"] is True
    assert report["witness"] == "x1x2x3x4x6x7"
    assert report["verdict"] is True
    assert {"criterion_s", "total_s"} <= set(report["timings"])
    assert "full_sw" not in report and "sq" not in report


def test_check_full_sw_and_sq(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, ["check", "--matrix", write_d9(tmp_path),
                                  "--full-sw", "--sq", "3"])
    assert rc == 0
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=cli.REPORT_SCHEMA)
    assert [len(piece) for piece in report["full_sw"]] == \
        [1, 0, 15, 25, 11, 3, 3, 1, 0, 0]
    assert report["sq"] == {
        "degree": 3,
        "value": ["x1x2x3x4x6x7", "x1x2x4x5x6x7"],
    }
    assert {"full_sw_s", "sq_s"} <= set(report["timings"])


def test_check_zero_matrix_negative_verdict(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("9\n" + ("0 " * 8 + "0\n") * 9)
    rc, out, _ = run_cli(capsys, ["check", "--matrix", str(path)])
    assert rc == 0
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=cli.REPORT_SCHEMA)
    assert report["orientable"] is True
    assert report["w3_term_count"] == 0
    assert report["w3sq_nonzero"] is False
    assert report["witness"] is None
    assert report["verdict"] is False


def test_check_bad_entry_diagnostic(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 2\n0 0\n")
    rc, _, err = run_cli(capsys, ["check", "--matrix", str(path)])
    assert rc == 1
    assert "entry (1, 2) is '2', expected 0 or 1" in err


def test_check_below_diagonal_diagnostic(capsys, tmp_path):
    path = tmp_path / "lower.txt"
    path.write_text("2\n0 0\n1 0\n")
    rc, _, err = run_cli(capsys, ["check", "--matrix", str(path)])
    assert rc == 1
    assert "nonzero entry (2, 1) on or below the diagonal" in err


def test_matrix_file_roundtrip(tmp_path):
    import random

    from bottforge.cli import format_matrix_file, read_bott_matrix_file
    from helpers import random_bott_matrix

    rng = random.Random(3)
    for _ in range(25):
        matrix = random_bott_matrix(rng, rng.randint(1, 12))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix_file(matrix))
        assert read_bott_matrix_file(str(path)) == matrix


def test_check_missing_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["check", "--matrix",
                                  str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", [
    ["check", "--matrix"],
    ["odometer", "--dim", "2", "--levels", "1", "--matrix"],
    ["limit-torsion", "--system"]])
def test_input_not_utf8_names_the_file(capsys, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2\n0 1\n0 0\xff\n")
    rc, out, err = run_cli(capsys, [*command, str(path)])
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec ")


def test_check_wrong_row_count(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n0 1 0\n0 0 0\n")
    rc, _, err = run_cli(capsys, ["check", "--matrix", str(path)])
    assert rc == 1
    assert "expected 3 matrix rows, got 2" in err


@pytest.mark.parametrize("text, message", [
    ("", "empty matrix file"),
    ("two\n0 1\n0 0\n", "first line must be the dimension, got 'two'"),
    ("2\n0 1 0\n0 0\n", "row 1 has 3 entries, expected 2"),
], ids=["empty", "non-integer-dimension", "wide-row"])
def test_check_rejects_malformed_matrix_file(capsys, tmp_path, text,
                                             message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, ["check", "--matrix", str(path)])
    assert (rc, out) == (1, "")
    assert err.strip() == f"error: {path}: {message}"


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("command", [
    ["check"], ["odometer", "--dim", "1", "--levels", "1"]])
def test_matrix_file_dimension_below_one(capsys, tmp_path, command, dim):
    path = tmp_path / "m.txt"
    path.write_text(f"{dim}\n")
    rc, out, err = run_cli(capsys, command + ["--matrix", str(path)])
    assert rc == 1
    assert out == ""
    assert f"{path}: dimension must be at least 1, got {dim}" in err


def test_check_sq_degree_out_of_range(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["check", "--matrix", write_d9(tmp_path),
                                  "--sq", "12"])
    assert rc == 1
    assert "outside 0..9" in err


def test_check_sq_degree_refused_before_ring_work(capsys, tmp_path,
                                                  monkeypatch):
    """An out-of-range --sq is refused once the matrix is read, before
    the criterion or any Stiefel-Whitney class is computed."""
    def reached(*args):
        raise AssertionError("ring work before the --sq check")
    for name in ("counterexample_criterion", "total_stiefel_whitney",
                 "total_steenrod_square"):
        monkeypatch.setattr(charclass, name, reached)
    for degree in ("99", "-1", "10"):
        rc, out, err = run_cli(capsys, ["check", "--matrix",
                                        write_d9(tmp_path), "--full-sw",
                                        "--sq", degree])
        assert (rc, out) == (1, "")
        assert err == f"error: --sq degree {degree} outside 0..9\n"


# ------------------------------------------------------------------ search

def test_search_dim5_no_hits(capsys):
    rc, out, err = run_cli(capsys, ["search", "--dim", "5"])
    assert rc == 0
    assert out == ""  # no hits below dimension 6
    stats = json.loads(err)
    assert stats["version"] == "bott-forge/1"
    assert stats["dim"] == 5
    assert stats["mode"] == "exhaustive"
    assert stats["candidates"] == 1024
    assert stats["hits"] == 0


def test_search_dim6_exhaustive(capsys):
    rc, out, err = run_cli(capsys, ["search", "--dim", "6"])
    assert rc == 0
    assert out == ""
    stats = json.loads(err)
    assert stats["candidates"] == 2 ** 15
    assert stats["hits"] == 0
    assert stats["tested"] + stats["pruned"] == stats["candidates"]


def test_search_random_seeded_sequence(capsys):
    argv = ["search", "--dim", "9", "--mode", "random",
            "--limit", "2000", "--seed", "42"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    hits = [json.loads(ln) for ln in out.splitlines()]
    assert [h["candidate_index"] for h in hits] == [657, 1983]
    for h in hits:
        assert h["dim"] == 9
        assert h["orientable"] is True
        assert h["w3sq_nonzero"] is True
        assert h["witness"]
        assert len(h["matrix"]) == 9
    stats = json.loads(err)
    assert stats["mode"] == "random"
    assert stats["candidates"] == 2000
    assert stats["hits"] == 2
    # identical invocation replays the identical stream
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc2 == 0 and out2 == out


def test_search_partition(capsys):
    rc, out, err = run_cli(capsys, ["search", "--dim", "6",
                                    "--partition", "0/8"])
    assert rc == 0
    assert out == ""
    stats = json.loads(err)
    assert stats["candidates"] == 2 ** 15 // 8


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_search_random_seed_outside_64_bits(capsys, seed):
    rc, out, err = run_cli(capsys, ["search", "--dim", "9", "--mode", "random",
                                    "--limit", "100", "--seed", seed])
    assert rc == 1
    assert out == ""
    assert err.strip() == f"error: seed {seed} outside 0..2^64-1"


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_search_exhaustive_seed_outside_64_bits(capsys, seed):
    # the seed is range-checked whatever the mode, as README states
    rc, out, err = run_cli(capsys, ["search", "--dim", "6", "--limit", "3",
                                    "--seed", seed])
    assert rc == 1
    assert out == ""
    assert err.strip() == f"error: seed {seed} outside 0..2^64-1"


def test_search_random_largest_seed(capsys):
    rc, _, err = run_cli(capsys, ["search", "--dim", "9", "--mode", "random",
                                  "--limit", "100",
                                  "--seed", str((1 << 64) - 1)])
    assert rc == 0
    assert json.loads(err)["candidates"] == 100


def test_search_bad_partition(capsys):
    rc, _, err = run_cli(capsys, ["search", "--dim", "6",
                                  "--partition", "eight"])
    assert rc == 1
    assert "must look like k/K" in err


def test_search_negative_limit(capsys):
    rc, out, err = run_cli(capsys, ["search", "--dim", "8", "--limit", "-1"])
    assert (rc, out) == (1, "")
    assert err.strip() == "error: limit must be non-negative"


def test_search_dimension_too_large_without_limit(capsys):
    rc, _, err = run_cli(capsys, ["search", "--dim", "12"])
    assert rc == 1
    assert "error:" in err


def test_search_reader_that_closes_early(tmp_path):
    # the d=8 listing is about 27 MB, far more than a pipe holds, so the
    # search is still writing when the reader goes: a closed pipe is a
    # normal end, exit 0 with nothing on stderr
    env = _fresh_env()
    env.pop("BOTT_THREADS", None)
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bottforge.cli", "search", "--dim", "8"],
            stdout=subprocess.PIPE, stderr=err, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    assert json.loads(first)["dim"] == 8
    assert rc == 0
    assert err_path.read_bytes() == b""


def test_search_threads_env_uses_partitioned_path(capsys, monkeypatch):
    calls = []
    real = search.run_partitioned

    def spy(spec, jobs, sink=None):
        calls.append(jobs)
        return real(spec, jobs, sink)

    monkeypatch.setenv("BOTT_THREADS", "2")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "run_partitioned", spy)
    rc, out, err = run_cli(capsys, ["search", "--dim", "6"])
    assert rc == 0
    assert calls == [2]
    stats = json.loads(err)
    assert stats["candidates"] == 2 ** 15
    assert stats["hits"] == 0


def test_search_threads_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("BOTT_THREADS", "many")
    rc, _, err = run_cli(capsys, ["search", "--dim", "5"])
    assert rc == 1
    assert "BOTT_THREADS" in err


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_search_threads_env_must_be_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv("BOTT_THREADS", raw)
    rc, out, err = run_cli(capsys, ["search", "--dim", "5"])
    assert (rc, out) == (1, "")
    assert f"BOTT_THREADS={raw!r} is not positive" in err


def test_search_threads_env_capped_at_cpu_count(monkeypatch):
    monkeypatch.setenv("BOTT_THREADS", "64")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._env_jobs() == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._env_jobs() == 1


# --------------------------------------------------------------- reproduce

def test_reproduce_text(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == ("dim=9 orientable=True w3sq_nonzero=True "
                        "verdict=True witness=x1x2x3x4x6x7")
    assert lines[1].startswith("dim=10 orientable=True w3sq_nonzero=True "
                               "verdict=True")
    assert lines[2].startswith("dim=10 orientable=True w3sq_nonzero=True "
                               "verdict=True")
    assert lines[3] == "coefficient of x1x2x4x5x6x7 in w3^2 (dim 9): 1"


def test_reproduce_json(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["reports"]) == 3
    for report in payload["reports"]:
        jsonschema.validate(instance=report, schema=cli.REPORT_SCHEMA)
        assert report["verdict"] is True
    assert [r["dim"] for r in payload["reports"]] == [9, 10, 10]


def test_reproduce_corrupt_builtin_fails(capsys, monkeypatch):
    # a zero matrix in place of the d=9 reference: not a counterexample
    broken = (BottMatrix.zero(9),) + charclass.REFERENCE_MATRICES[1:]
    monkeypatch.setattr(charclass, "REFERENCE_MATRICES", broken)
    rc, _, err = run_cli(capsys, ["reproduce"])
    assert rc == 3
    assert "reference verification FAILED" in err


def test_reproduce_corrupt_flag_rejected(capsys):
    rc, _, err = run_cli(capsys, ["reproduce", "--corrupt-builtin"])
    assert rc == 1
    assert "--corrupt-builtin" in err


# ----------------------------------------------------------- limit-torsion

def write_system(tmp_path, payload):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_limit_torsion_z_z4(capsys, tmp_path):
    path = write_system(tmp_path, {
        "generators": 2,
        "relations": [[0, 4]],
        "beta": [[5, 0], [0, 5]],
        "n": 5,
        "alpha": [[1, 0], [0, 1]],
    })
    rc, out, _ = run_cli(capsys, ["limit-torsion", "--system", path])
    assert rc == 0
    payload = json.loads(out)
    assert payload["generators"] == 2
    assert payload["invariant_factors"] == [4, 0]
    assert payload["torsion"] == [4]
    assert payload["torsion_order"] == 4
    assert payload["free_rank"] == 1
    assert payload["beta_torsion_bijective"] is True
    assert payload["limit_torsion"] == [4]
    assert payload["stage_bound"] == 4
    assert payload["stage_torsion_orders"] == [4] * 11
    assert payload["depth"] == 10


def test_limit_torsion_large_torsion(capsys, tmp_path):
    # Z/20000: bijectivity is decided without listing the torsion
    path = write_system(tmp_path, {
        "generators": 1,
        "relations": [[20000]],
        "beta": [[1]],
        "n": 1,
        "alpha": [[1]],
    })
    rc, out, _ = run_cli(capsys, ["limit-torsion", "--system", path])
    assert rc == 0
    payload = json.loads(out)
    assert payload["torsion_order"] == 20000
    assert payload["beta_torsion_bijective"] is True
    assert payload["limit_torsion"] == [20000]


def test_limit_torsion_depth_flag(capsys, tmp_path):
    path = write_system(tmp_path, {
        "generators": 1,
        "relations": [[2]],
        "beta": [[1]],
        "n": 3,
        "alpha": [[3]],
    })
    rc, out, _ = run_cli(capsys, ["limit-torsion", "--system", path,
                                  "--depth", "4"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["limit_torsion"] == [2]
    assert payload["stage_torsion_orders"] == [2] * 5
    assert payload["depth"] == 4


@pytest.mark.parametrize("depth", [0, -3])
def test_limit_torsion_rejects_nonpositive_depth(capsys, tmp_path, depth):
    # checked before the system file is read: this one does not exist
    argv = ["limit-torsion", "--system", str(tmp_path / "missing.json"),
            "--depth", str(depth)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.strip() == f"error: --depth must be positive, got {depth}"


def test_limit_torsion_invalid_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    rc, _, err = run_cli(capsys, ["limit-torsion", "--system", str(path)])
    assert rc == 1
    assert "invalid JSON" in err


def test_limit_torsion_hypothesis_violation(capsys, tmp_path):
    # alpha omitted: the limit computation needs it and must refuse
    path = write_system(tmp_path, {
        "generators": 2,
        "relations": [[0, 4]],
        "beta": [[5, 0], [0, 5]],
        "n": 5,
    })
    rc, _, err = run_cli(capsys, ["limit-torsion", "--system", str(path)])
    assert rc == 1
    assert "error:" in err


def test_limit_torsion_bad_relation_length(capsys, tmp_path):
    path = write_system(tmp_path, {
        "generators": 2,
        "relations": [[4]],
        "beta": [[1, 0], [0, 1]],
        "n": 5,
    })
    rc, _, err = run_cli(capsys, ["limit-torsion", "--system", str(path)])
    assert rc == 1
    assert "length 1, expected 2" in err


@pytest.mark.parametrize("field, value, message", [
    ("relations", [[0, 4.7]], "entry 4.7 is not an integer"),
    ("relations", [[0, True]], "entry True is not an integer"),
    ("relations", [0, 4], "relations must be a list of lists"),
    ("n", 5.9, "n must be an integer, got 5.9"),
    ("generators", True, "generators must be an integer, got True"),
    ("beta", 5, "malformed matrix"),
], ids=["float-entry", "bool-entry", "flat-relation", "float-n",
        "bool-generators", "scalar-beta"])
def test_limit_torsion_rejects_malformed_fields(capsys, tmp_path, field,
                                                value, message):
    payload = {"generators": 2, "relations": [[0, 4]],
               "beta": [[5, 0], [0, 5]], "n": 5, "alpha": [[1, 0], [0, 1]]}
    payload[field] = value
    rc, out, err = run_cli(capsys, ["limit-torsion", "--system",
                                    write_system(tmp_path, payload)])
    assert rc == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("change, message", [
    ({"beta": None}, "missing or malformed field: 'beta'"),
    ({"generators": 0, "relations": []}, "generators must be positive"),
    # a misspelt key must not read as an absent optional one: without
    # "relations" the system would be Z^2, with no torsion
    ({"relations": None, "relation": [[0, 4]]}, "unknown field 'relation'"),
    ({"Alpha": 1, "depth": 2}, "unknown field 'Alpha', 'depth'"),
    # the hypothesis failures, found after the file is read
    ({"beta": [[5, 0]]}, "beta is 1x2, expected 2x2"),
    ({"n": 0}, "multiplier 0 is not positive; alpha.beta differs from "
               "multiplication by 0 on generator 1"),
    ({"alpha": [[1, 0]]}, "alpha is 1x2, expected 2x2"),
    ({"alpha": [[1, 1], [0, 1]]},
     "alpha does not preserve the relation lattice"),
], ids=["missing-beta", "zero-generators", "misspelt-relations",
        "two-unknown", "beta-shape", "zero-n", "alpha-shape",
        "alpha-not-endomorphism"])
def test_limit_torsion_rejects_bad_keys(capsys, tmp_path, change, message):
    payload = {"generators": 2, "relations": [[0, 4]],
               "beta": [[5, 0], [0, 5]], "n": 5, "alpha": [[1, 0], [0, 1]]}
    payload.update(change)
    payload = {k: v for k, v in payload.items() if v is not None}
    path = write_system(tmp_path, payload)
    rc, out, err = run_cli(capsys, ["limit-torsion", "--system", path])
    assert (rc, out) == (1, "")
    assert err.strip() == f"error: {path}: {message}"


@pytest.mark.parametrize("payload", [[1, 2], None, 3],
                         ids=["array", "null", "number"])
def test_limit_torsion_rejects_a_non_object_file(capsys, tmp_path, payload):
    path = write_system(tmp_path, payload)
    rc, out, err = run_cli(capsys, ["limit-torsion", "--system", path])
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: the top level must be a JSON object\n"


# ---------------------------------------------------------------- odometer

def test_smith_forms_per_command(capsys, tmp_path, monkeypatch):
    # the odometer table needs no Smith form: level orders are |det M|^i
    # by theorem; the README limit-torsion system is constant, so its one
    # distinct stage takes a kernel and a quotient after the system group
    snf = abelian._snf_full
    calls = []

    def spy(m):
        calls.append(m)
        return snf(m)
    monkeypatch.setattr(abelian, "_snf_full", spy)
    monkeypatch.setattr(odometer, "_snf_full", spy)
    path = tmp_path / "m.txt"
    path.write_text("2\n2 1\n0 2\n")
    rc, _, _ = run_cli(capsys, ["odometer", "--dim", "2", "--matrix",
                                str(path), "--levels", "12"])
    assert rc == 0
    assert len(calls) == 0
    system = write_system(tmp_path, {
        "generators": 2, "relations": [[0, 4]], "beta": [[5, 0], [0, 5]],
        "n": 5, "alpha": [[1, 0], [0, 1]]})
    rc, _, _ = run_cli(capsys, ["limit-torsion", "--system", system])
    assert rc == 0
    assert len(calls) == 3


def test_cli_trace_hooks_resolve():
    # the traced cli-oneshot benchmark run (perfbench/workloads.py) patches
    # these names in the odometer and abelian modules; they must keep
    # resolving there
    assert odometer._snf_full is abelian._snf_full
    for name in ("expanding_check", "is_transitive", "escape_level"):
        assert callable(getattr(odometer, name))
    for name in ("torsion_subgroup", "check_beta_torsion_iso",
                 "direct_limit_torsion", "limit_torsion_bound"):
        assert callable(getattr(abelian, name))


def test_odometer_report(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 0\n0 2\n")
    rc, out, err = run_cli(capsys, ["odometer", "--dim", "2", "--matrix",
                                    str(path), "--levels", "3", "--seed", "5"])
    assert rc == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["det"] == 4
    assert payload["expanding"] is True
    assert payload["levels"] == [
        {"level": 0, "order": 1, "transitive": True},
        {"level": 1, "order": 4, "transitive": True},
        {"level": 2, "order": 16, "transitive": True},
        {"level": 3, "order": 64, "transitive": True},
    ]
    assert len(payload["escape_samples"]) == 5
    for sample in payload["escape_samples"]:
        assert any(sample["gamma"])
        assert 1 <= sample["escape_level"] <= 64


def test_odometer_binary_levels_10(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n2\n")
    rc, out, _ = run_cli(capsys, ["odometer", "--dim", "1", "--matrix",
                                  str(path), "--levels", "10"])
    assert rc == 0
    payload = json.loads(out)
    assert [lvl["order"] for lvl in payload["levels"]] == \
        [2 ** i for i in range(11)]
    assert all(lvl["transitive"] is True for lvl in payload["levels"])


def test_odometer_transitive_skipped_over_budget(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n3\n")
    rc, out, _ = run_cli(capsys, ["odometer", "--dim", "1", "--matrix",
                                  str(path), "--levels", "4",
                                  "--transitive-budget", "30"])
    assert rc == 0
    payload = json.loads(out)
    orders = [lvl["order"] for lvl in payload["levels"]]
    assert orders == [1, 3, 9, 27, 81]
    flags = [lvl["transitive"] for lvl in payload["levels"]]
    assert flags == [True, True, True, True, None]


def test_odometer_rejects_unimodular(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n1\n")
    rc, _, err = run_cli(capsys, ["odometer", "--dim", "1", "--matrix",
                                  str(path), "--levels", "2"])
    assert rc == 1
    assert "not expanding" in err


def test_odometer_dim_mismatch(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 0\n0 2\n")
    rc, _, err = run_cli(capsys, ["odometer", "--dim", "3", "--matrix",
                                  str(path), "--levels", "2"])
    assert rc == 1
    assert "--dim says 3" in err


def test_odometer_non_expanding_reports_false(capsys, tmp_path):
    # eigenvalues 2 and 1: |det| >= 2 but not expanding, tower still valid
    path = tmp_path / "m.txt"
    path.write_text("2\n2 0\n0 1\n")
    rc, out, err = run_cli(capsys, ["odometer", "--dim", "2", "--matrix",
                                    str(path), "--levels", "2"])
    assert rc == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["expanding"] is False
    assert [lvl["order"] for lvl in payload["levels"]] == [1, 2, 4]


@pytest.mark.parametrize("flag, value", [
    ("--levels", -2), ("--samples", -3), ("--transitive-budget", -1)])
def test_odometer_rejects_negative_count(capsys, tmp_path, flag, value):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 1\n0 2\n")
    argv = ["odometer", "--dim", "2", "--matrix", str(path), "--levels", "2"]
    rc, out, err = run_cli(capsys, argv + [flag, str(value)])
    assert rc == 1
    assert out == ""
    assert f"{flag} must be non-negative, got {value}" in err


@pytest.mark.parametrize("value", [0, -1])
def test_odometer_rejects_nonpositive_max_escape(capsys, tmp_path, value):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 1\n0 2\n")
    argv = ["odometer", "--dim", "2", "--matrix", str(path), "--levels", "2",
            "--max-escape", str(value)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.strip() == f"error: --max-escape must be positive, got {value}"


@pytest.fixture
def int_digit_limit():
    """Set Python's integer string digit limit for one test, then restore
    it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("rows, det", [
    ("2\n2 1\n0 2\n", 4), ("1\n3\n", 3), ("1\n-5\n", -5)])
def test_odometer_levels_at_the_digit_limit(capsys, tmp_path,
                                            int_digit_limit, rows, det):
    """--levels is refused before any level is built exactly when the top
    order |det|^levels would have more digits than Python prints; one
    level fewer runs and prints every order, and with no limit the
    refused count runs too."""
    path = tmp_path / "m.txt"
    path.write_text(rows)
    dim = rows.split()[0]
    int_digit_limit(640)
    bound, first = 10 ** 640, 0
    while abs(det) ** first < bound:
        first += 1
    argv = ["odometer", "--dim", dim, "--matrix", str(path), "--samples", "0",
            "--transitive-budget", "0", "--levels"]
    rc, out, err = run_cli(capsys, argv + [str(first)])
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: --levels {first} is too large")
    rc, out, err = run_cli(capsys, argv + [str(first - 1)])
    assert (rc, err) == (0, "")
    orders = [lvl["order"] for lvl in json.loads(out)["levels"]]
    assert orders == [abs(det) ** i for i in range(first)]
    int_digit_limit(0)
    rc, out, _ = run_cli(capsys, argv + [str(first)])
    assert rc == 0
    assert json.loads(out)["levels"][-1]["order"] == abs(det) ** first


@pytest.mark.parametrize("sign", ["", "-"])
def test_odometer_det_at_the_digit_limit(capsys, tmp_path, int_digit_limit,
                                         sign):
    """A determinant with more digits than Python prints is refused as a
    usage error even at --levels 0, where |det|^levels is 1; one digit
    fewer runs, and with no limit the refused matrix runs too."""
    int_digit_limit(640)
    path = tmp_path / "m.txt"
    argv = ["odometer", "--dim", "2", "--matrix", str(path), "--levels", "0",
            "--samples", "0"]
    # entries of 321 digits, det 10^640 with 641
    path.write_text(f"2\n{10 ** 320} 0\n0 {sign}{10 ** 320}\n")
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (1, "")
    assert err == ("error: |det| has more than 640 digits, Python's limit "
                   "for printing an integer\n")
    path.write_text(f"2\n{10 ** 320 - 1} 0\n0 {sign}{10 ** 320 - 1}\n")
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["det"] == int(f"{sign}{(10 ** 320 - 1) ** 2}")
    int_digit_limit(0)
    path.write_text(f"2\n{10 ** 320} 0\n0 {sign}{10 ** 320}\n")
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert json.loads(out)["det"] == int(f"{sign}1" + "0" * 640)


def test_odometer_default_digit_limit_refuses_levels(capsys, tmp_path):
    # 4^8000 has 4,817 digits, above the default limit of 4,300
    path = tmp_path / "m.txt"
    path.write_text("2\n2 1\n0 2\n")
    rc, out, err = run_cli(capsys, ["odometer", "--dim", "2", "--matrix",
                                    str(path), "--levels", "8000"])
    assert rc == 1
    assert out == ""
    assert "--levels 8000" in err and "set_int_max_str_digits" not in err


# ------------------------------------------------------------- error paths

def test_no_subcommand_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, [])
    assert rc == 1
    assert "error:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, ["frobnicate"])
    assert rc == 1
    assert "error:" in err


def test_internal_error_maps_to_2(capsys, tmp_path, monkeypatch):
    def boom(_matrix):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(charclass, "counterexample_criterion", boom)
    rc, _, err = run_cli(capsys, ["check", "--matrix", write_d9(tmp_path)])
    assert rc == 2
    assert err.startswith("internal error: RuntimeError")


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports this checkout of
    the package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this
    checkout of the package."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60, env=_fresh_env())
    return proc.stdout


def test_cli_imports_only_stdlib():
    # diff against the modules already loaded, since site hooks may
    # preload third-party modules before any bottforge code runs
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import bottforge.cli\n"
            "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print('\\n'.join(sorted(added)))\n")
    added = set(_fresh_python(code).split())
    assert "bottforge" in added
    assert added - {"bottforge"} <= set(sys.stdlib_module_names)


def test_cli_import_builds_no_jump_table():
    # the random-mode jump powers are built on first use, never at import
    code = ("import bottforge.cli\n"
            "from bottforge import search\n"
            "print(search._step_power.cache_info().currsize)\n")
    assert _fresh_python(code).split() == ["0"]


def test_cli_import_builds_no_slot_masks():
    # the slot-repeated masks of stacked contexts are copied on first use,
    # once per dimension, whatever the sizes of the stacks; the search
    # re-checks in the rings of (d-2)-blocks
    code = ("import bottforge.cli\n"
            "from bottforge import gf2ring, search\n"
            "print(len(gf2ring._SLOT_COPIES))\n"
            "sizes = set()\n"
            "load = gf2ring.RingContext._load\n"
            "def spy(self, dim, counters, d):\n"
            "    sizes.add(len(counters))\n"
            "    load(self, dim, counters, d)\n"
            "gf2ring.RingContext._load = spy\n"
            "for d, limit in ((9, 30000), (10, 60000), (11, 120000),\n"
            "                 (12, 240000)):\n"
            "    for seed in range(3):\n"
            "        search.enumerate_space(search.SearchSpec(\n"
            "            dim=d, mode='random', limit=limit, seed=seed))\n"
            "print(len(sizes))\n"
            "print(*sorted(gf2ring._SLOT_COPIES))\n"
            "print(max(len(c) - d for d, c in gf2ring._SLOT_COPIES.items()))\n")
    empty, sizes, dims, extra = _fresh_python(code).splitlines()
    assert empty == "0"
    assert int(sizes) >= 8
    assert dims == "7 8 9 10"
    # beyond the d free-generator masks: the unit, the row ends, the
    # stages of the row-parity fold of d <= 12, and the degree cuts of the
    # criterion
    assert int(extra) <= 9


def test_cli_import_builds_no_counter_table():
    # the exhaustive block counters are tabled on first use, never at import
    code = ("import bottforge.cli\n"
            "from bottforge import search\n"
            "print(search._low_counters.cache_info().currsize)\n"
            "search.enumerate_space(search.SearchSpec(dim=6))\n"
            "print(search._low_counters.cache_info().currsize)\n")
    assert _fresh_python(code).split() == ["0", "1"]


# the bottforge submodules a fresh process holds after each command
COMMAND_LAYERS = {
    "import": set(),
    "limit-torsion": {"cli", "_record", "abelian"},
    "odometer": {"cli", "_record", "abelian", "odometer"},
    "check": {"cli", "_record", "gf2ring", "charclass"},
    "reproduce": {"cli", "_record", "gf2ring", "charclass"},
    "search": {"cli", "_record", "gf2ring", "charclass", "search"},
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(tmp_path, command):
    # a fresh process compiles every module it imports, so a one-shot
    # command must leave the layers it does not run unloaded
    odometer_matrix = tmp_path / "odometer.txt"
    odometer_matrix.write_text("2\n2 1\n0 2\n")
    argv = {
        "limit-torsion": ["limit-torsion", "--system", write_system(tmp_path, {
            "generators": 2, "relations": [[0, 4]], "beta": [[5, 0], [0, 5]],
            "n": 5, "alpha": [[1, 0], [0, 1]]})],
        "odometer": ["odometer", "--dim", "2", "--matrix",
                     str(odometer_matrix), "--levels", "12"],
        "check": ["check", "--matrix", write_d9(tmp_path), "--full-sw",
                  "--sq", "3"],
        "reproduce": ["reproduce", "--json"],
        "search": ["search", "--dim", "6"],
    }.get(command)
    code = "import bottforge\nrc = 0\n"
    if argv:
        code = ("import contextlib, io\n"
                "from bottforge.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main({argv!r})\n")
    code += ("import sys\n"
             "print(rc, *sorted(m for m in sys.modules\n"
             "                  if m.startswith('bottforge.')))\n")
    rc, *loaded = _fresh_python(code).split()
    assert rc == "0"
    assert set(loaded) == {f"bottforge.{m}" for m in COMMAND_LAYERS[command]}


def _imports_of(args) -> set:
    """The modules a new interpreter imports to run ``args``, start-up
    included, as ``-X importtime`` lists them; the run must succeed."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60,
                          env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("command",
                         ["check", "limit-torsion", "odometer", "reproduce"])
def test_one_shot_commands_skip_dataclasses(tmp_path, command):
    # dataclasses pulls in inspect, ast, dis and tokenize, which cost a
    # fresh process more than these commands' work, and array, which only
    # stacked ring contexts and the search need, costs 0.3 ms; compare
    # with a bare interpreter, since site hooks may import any of them
    bare = _imports_of(["-c", "pass"])
    probe = _imports_of(["-c", "import dataclasses"]) - bare
    assert {"dataclasses", "inspect"} <= probe
    odometer_matrix = tmp_path / "odometer.txt"
    odometer_matrix.write_text("2\n2 1\n0 2\n")
    argv = {
        "check": ["check", "--matrix", write_d9(tmp_path), "--full-sw",
                  "--sq", "3"],
        "limit-torsion": ["limit-torsion", "--system", write_system(tmp_path, {
            "generators": 2, "relations": [[0, 4]], "beta": [[5, 0], [0, 5]],
            "n": 5, "alpha": [[1, 0], [0, 1]]})],
        "odometer": ["odometer", "--dim", "2", "--matrix",
                     str(odometer_matrix), "--levels", "12"],
        "reproduce": ["reproduce", "--json"],
    }[command]
    added = _imports_of(["-m", "bottforge.cli", *argv]) - bare
    assert "bottforge._record" in added
    assert not {"dataclasses", "inspect", "array"} & added


PUBLIC_NAMES = [
    "BottMatrix", "BudgetExceeded", "FgAbGroup", "Gf2Poly",
    "HypothesisViolation", "IntMatrix", "InvalidMatrixError", "LevelPoint",
    "OdometerTower", "RingContext", "SearchHit", "SearchSpec", "SearchStats",
    "SingularMatrixError", "SmithDecomposition", "SpecTooLargeError",
    "StationarySystem", "SwReport", "__version__", "act", "basis_masks",
    "check_beta_torsion_iso", "counterexample_criterion",
    "direct_limit_torsion", "enumerate_space", "escape_level", "expanding_check", "format_monomial", "hit_record",
    "is_transitive", "level_order", "limit_torsion_bound", "make_context",
    "minimal_dimension_survey", "multiply", "pairing_matrix", "parse_monomial",
    "project", "reduce_exponents", "relation_strings", "reproduce_reference",
    "run_partitioned", "smith_normal_form", "square", "stiefel_whitney",
    "torsion_subgroup", "total_steenrod_square", "total_stiefel_whitney",
]


def test_lazy_namespace_keeps_public_api():
    import bottforge

    assert sorted(bottforge.__all__) == PUBLIC_NAMES
    for name in bottforge.__all__:
        if name == "__version__":
            continue
        value = getattr(bottforge, name)
        # the very object of the module that defines it
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(bottforge.__all__) <= set(dir(bottforge))
    star = {}
    exec("from bottforge import *", star)
    assert set(bottforge.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        bottforge.no_such_name
    code = ("import sys, bottforge\n"
            "print(bottforge.__version__,\n"
            "      *[m for m in sys.modules if m.startswith('bottforge.')])\n")
    assert _fresh_python(code).split() == ["0.1.0"]
