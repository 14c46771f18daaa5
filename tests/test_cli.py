"""End-to-end command line behaviour via in-process main() calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from bottforge import cli, search


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


def test_check_wrong_row_count(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n0 1 0\n0 0 0\n")
    rc, _, err = run_cli(capsys, ["check", "--matrix", str(path)])
    assert rc == 1
    assert "expected 3 matrix rows, got 2" in err


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


def test_search_dimension_too_large_without_limit(capsys):
    rc, _, err = run_cli(capsys, ["search", "--dim", "12"])
    assert rc == 1
    assert "error:" in err


def test_search_threads_env_uses_partitioned_path(capsys, monkeypatch):
    calls = []
    real = search.run_partitioned

    def spy(spec, jobs, sink=None):
        calls.append(jobs)
        return real(spec, jobs, sink)

    monkeypatch.setenv("BOTT_THREADS", "2")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli.search, "run_partitioned", spy)
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


def test_reproduce_corrupt_builtin_fails(capsys):
    rc, _, err = run_cli(capsys, ["reproduce", "--corrupt-builtin"])
    assert rc == 3
    assert "reference verification FAILED" in err


def test_reproduce_corrupt_flag_hidden(capsys):
    with pytest.raises(SystemExit):
        cli.main(["reproduce", "--help"])
    out = capsys.readouterr().out
    assert "corrupt" not in out


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


# ---------------------------------------------------------------- odometer

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

    monkeypatch.setattr(cli.charclass, "counterexample_criterion", boom)
    rc, _, err = run_cli(capsys, ["check", "--matrix", write_d9(tmp_path)])
    assert rc == 2
    assert err.startswith("internal error: RuntimeError")


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this
    checkout of the package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60, env=env)
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
