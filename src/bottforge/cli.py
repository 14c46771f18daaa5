"""Command line front end.

Subcommands: ``check`` evaluates one matrix file, ``search`` enumerates a
dimension and streams NDJSON hits, ``reproduce`` re-verifies the bundled
reference matrices, ``limit-torsion`` analyses a stationary system file,
and ``odometer`` prints a level table for an integer matrix.

Matrix file format: first line the dimension d, then d lines of d
whitespace-separated 0/1 entries.  Exit codes: 0 success, 1 invalid input,
2 internal error, 3 reference mismatch (reproduce only).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import abelian, charclass, odometer, search
from .abelian import FgAbGroup, HypothesisViolation, IntMatrix, StationarySystem
from .charclass import SwReport, total_steenrod_square, total_stiefel_whitney
from .gf2ring import BottMatrix, InvalidMatrixError, format_monomial, make_context

SCHEMA_VERSION = "bott-forge/1"

# Committed schema for `check` reports (jsonschema dialect).  Any key or
# type change here requires bumping SCHEMA_VERSION.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "dim": {"type": "integer", "minimum": 1, "maximum": 64},
        "orientable": {"type": "boolean"},
        "w1": {"type": "array", "items": {"type": "string"}},
        "w3_term_count": {"type": "integer", "minimum": 0},
        "w3sq_nonzero": {"type": "boolean"},
        "witness": {"type": ["string", "null"]},
        "verdict": {"type": "boolean"},
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "full_sw": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
        },
        "sq": {
            "type": "object",
            "properties": {
                "degree": {"type": "integer"},
                "value": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["degree", "value"],
            "additionalProperties": False,
        },
    },
    "required": ["version", "dim", "orientable", "w1", "w3_term_count",
                 "w3sq_nonzero", "witness", "verdict", "timings"],
    "additionalProperties": False,
}


class UsageError(ValueError):
    """Bad command line or input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_matrix_file(path: str, parse_entry, expected: str) -> list[list]:
    """Read a dimension line d, then d rows of d whitespace-separated entries.

    Each token goes through ``parse_entry``; a ValueError from it is reported
    as entry (row, col) of ``path`` not being ``expected``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"{path}: empty matrix file")
    try:
        d = int(lines[0])
    except ValueError:
        raise UsageError(f"{path}: first line must be the dimension, "
                         f"got {lines[0]!r}") from None
    if d < 1:
        raise UsageError(f"{path}: dimension must be at least 1, got {d}")
    if len(lines) != d + 1:
        raise UsageError(f"{path}: expected {d} matrix rows, got {len(lines) - 1}")
    entries = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != d:
            raise UsageError(f"{path}: row {i} has {len(tokens)} entries, "
                             f"expected {d}")
        row = []
        for j, tok in enumerate(tokens, start=1):
            try:
                row.append(parse_entry(tok))
            except ValueError:
                raise UsageError(f"{path}: entry ({i}, {j}) is {tok!r}, "
                                 f"expected {expected}") from None
        entries.append(row)
    return entries


def _bit(tok: str) -> int:
    if tok not in ("0", "1"):
        raise ValueError(tok)
    return int(tok)


def read_bott_matrix_file(path: str) -> BottMatrix:
    """Parse the 0/1 matrix format, naming bad entries as (row, col)."""
    entries = _read_matrix_file(path, _bit, "0 or 1")
    try:
        return BottMatrix.from_entries(entries)
    except InvalidMatrixError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def format_matrix_file(matrix: BottMatrix) -> str:
    lines = [str(matrix.dim)]
    for i in range(matrix.dim):
        lines.append(" ".join(str(matrix.entry(i, j)) for j in range(matrix.dim)))
    return "\n".join(lines) + "\n"


def read_system_file(path: str) -> tuple[StationarySystem, dict]:
    """Parse a stationary system JSON file.

    Expected keys: "generators" (int), "relations" (list of relation
    vectors, each of length generators), "beta" (matrix as rows), "n"
    (multiplier), optionally "alpha".
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    try:
        gens = data["generators"]
        relations = data.get("relations", [])
        beta_rows = data["beta"]
        multiplier = data["n"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{path}: missing or malformed field: {exc}") from exc
    for key, value in (("generators", gens), ("n", multiplier)):
        # bool is a subclass of int, and JSON true must not read as 1
        if type(value) is not int:
            raise UsageError(f"{path}: {key} must be an integer, got {value!r}")
    if gens < 1:
        raise UsageError(f"{path}: generators must be positive")
    if not (isinstance(relations, list)
            and all(isinstance(v, list) for v in relations)):
        raise UsageError(f"{path}: relations must be a list of lists")
    for v in relations:
        if len(v) != gens:
            raise UsageError(f"{path}: relation {v!r} has length {len(v)}, "
                             f"expected {gens}")
    try:
        rel_matrix = IntMatrix.from_rows(
            [[v[i] for v in relations] for i in range(gens)])
        beta = IntMatrix.from_rows(beta_rows)
        alpha = None
        if data.get("alpha") is not None:
            alpha = IntMatrix.from_rows(data["alpha"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: malformed matrix: {exc}") from exc
    group = FgAbGroup(rel_matrix)
    return StationarySystem(group=group, beta=beta, multiplier=multiplier,
                            alpha=alpha), data


def _poly_strings(poly) -> list[str]:
    return poly.monomial_strings()


def build_report(report: SwReport, timings: dict,
                 full_sw=None, sq=None) -> dict:
    """Assemble the check report dict in stable key order."""
    out = {
        "version": SCHEMA_VERSION,
        "dim": report.dim,
        "orientable": report.orientable,
        "w1": _poly_strings(report.w1),
        "w3_term_count": len(report.w3),
        "w3sq_nonzero": bool(report.w3sq),
        "witness": format_monomial(report.witness)
                   if report.witness is not None else None,
        "verdict": report.verdict,
        "timings": timings,
    }
    if full_sw is not None:
        out["full_sw"] = [_poly_strings(p) for p in full_sw]
    if sq is not None:
        degree, value = sq
        out["sq"] = {"degree": degree, "value": _poly_strings(value)}
    return out


def cmd_check(args) -> int:
    matrix = read_bott_matrix_file(args.matrix)
    t0 = time.perf_counter()
    report = charclass.counterexample_criterion(matrix)
    t1 = time.perf_counter()
    timings = {"criterion_s": t1 - t0}
    full_sw = None
    sq = None
    if args.full_sw or args.sq is not None:
        ctx = make_context(matrix)
        if args.full_sw:
            t = time.perf_counter()
            full_sw = total_stiefel_whitney(ctx)
            timings["full_sw_s"] = time.perf_counter() - t
        if args.sq is not None:
            if not 0 <= args.sq <= matrix.dim:
                raise UsageError(f"--sq degree {args.sq} outside 0..{matrix.dim}")
            t = time.perf_counter()
            graded = total_steenrod_square(ctx, report.w3)
            sq = (args.sq, graded[args.sq])
            timings["sq_s"] = time.perf_counter() - t
    timings["total_s"] = time.perf_counter() - t0
    print(json.dumps(build_report(report, timings, full_sw, sq)))
    return 0


def _env_jobs() -> int:
    raw = os.environ.get("BOTT_THREADS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise UsageError(f"BOTT_THREADS={raw!r} is not an integer") from None
    return max(1, min(jobs, os.cpu_count() or 1))


def cmd_search(args) -> int:
    partition = None
    if args.partition:
        try:
            k, parts = args.partition.split("/")
            partition = (int(k), int(parts))
        except ValueError:
            raise UsageError(
                f"--partition must look like k/K, got {args.partition!r}") from None
    spec = search.SearchSpec(dim=args.dim, mode=args.mode, limit=args.limit,
                             seed=args.seed, partition=partition)

    def sink(hit):
        print(search.hit_json(hit), flush=True)
    stats, _ = search.run_partitioned(spec, _env_jobs(), sink)
    print(json.dumps({
        "version": SCHEMA_VERSION,
        "dim": stats.dim,
        "mode": stats.mode,
        "candidates": stats.candidates,
        "tested": stats.tested,
        "pruned": stats.pruned,
        "hits": stats.hits,
        "wall_time_s": stats.wall_time_s,
    }), file=sys.stderr)
    return 0


def cmd_reproduce(args) -> int:
    matrices = list(search.REFERENCE_MATRICES)
    if getattr(args, "corrupt_builtin", False):
        # negative-control hook for tests: break the first reference
        matrices[0] = BottMatrix.zero(matrices[0].dim)
    reports = [charclass.counterexample_criterion(m) for m in matrices]
    ok = all(r.verdict for r in reports)
    coeff_ok = search.REFERENCE_D9_WITNESS_MASK in reports[0].w3sq.terms
    if args.json:
        payload = {
            "version": SCHEMA_VERSION,
            "ok": ok and coeff_ok,
            "reports": [build_report(r, {}) for r in reports],
        }
        print(json.dumps(payload))
    else:
        for r in reports:
            witness = (format_monomial(r.witness)
                       if r.witness is not None else "-")
            print(f"dim={r.dim} orientable={r.orientable} "
                  f"w3sq_nonzero={bool(r.w3sq)} verdict={r.verdict} "
                  f"witness={witness}")
        target = format_monomial(search.REFERENCE_D9_WITNESS_MASK)
        print(f"coefficient of {target} in w3^2 (dim 9): "
              f"{1 if coeff_ok else 0}")
    if not (ok and coeff_ok):
        print("reference verification FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_limit_torsion(args) -> int:
    if args.depth < 1:
        raise UsageError(f"--depth must be positive, got {args.depth}")
    system, raw = read_system_file(args.system)
    group = system.group
    payload = {
        "version": SCHEMA_VERSION,
        "generators": group.generators,
        "invariant_factors": list(group.invariant_factors()),
        "torsion": abelian.torsion_subgroup(group),
        "torsion_order": group.torsion_order(),
        "free_rank": group.free_rank(),
    }
    try:
        payload["beta_torsion_bijective"] = abelian.check_beta_torsion_iso(system)
        payload["limit_torsion"] = abelian.direct_limit_torsion(system)
    except HypothesisViolation as exc:
        raise UsageError(f"{args.system}: {exc}") from exc
    bound, orders = abelian.limit_torsion_bound(
        group, [system.beta], args.depth)
    payload["stage_bound"] = bound
    payload["stage_torsion_orders"] = orders
    payload["depth"] = args.depth
    print(json.dumps(payload))
    return 0


def cmd_odometer(args) -> int:
    for flag, value in (("--levels", args.levels), ("--samples", args.samples),
                        ("--transitive-budget", args.transitive_budget)):
        if value < 0:
            raise UsageError(f"{flag} must be non-negative, got {value}")
    if args.max_escape < 1:
        raise UsageError(
            f"--max-escape must be positive, got {args.max_escape}")
    matrix = IntMatrix.from_rows(
        _read_matrix_file(args.matrix, int, "an integer"))
    if matrix.nrows != args.dim:
        raise UsageError(f"matrix is {matrix.nrows}x{matrix.ncols}, "
                         f"--dim says {args.dim}")
    det = matrix.det()
    if abs(det) < 2:
        print(f"matrix is not expanding: |det| = {abs(det)} < 2",
              file=sys.stderr)
        return 1
    verdict = odometer.expanding_check(matrix)
    tower = odometer.OdometerTower(matrix)
    levels = []
    for i in range(args.levels + 1):
        order = odometer.level_order(tower, i)
        if order <= args.transitive_budget:
            transitive = odometer.is_transitive(tower, i,
                                                budget=args.transitive_budget)
        else:
            transitive = None
        levels.append({"level": i, "order": order, "transitive": transitive})
    rng = random.Random(args.seed)
    samples = []
    for _ in range(args.samples):
        gamma = [0] * args.dim
        while all(x == 0 for x in gamma):
            gamma = [rng.randint(-10, 10) for _ in range(args.dim)]
        esc = odometer.escape_level(tower, gamma, args.max_escape)
        samples.append({"gamma": gamma, "escape_level": esc})
    print(json.dumps({
        "version": SCHEMA_VERSION,
        "dim": args.dim,
        "det": det,
        "expanding": verdict,
        "levels": levels,
        "escape_samples": samples,
    }))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bottforge",
                     description="Bott matrix cohomology toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one matrix file")
    p.add_argument("--matrix", required=True, help="matrix file path")
    p.add_argument("--full-sw", action="store_true",
                   help="include every graded Stiefel-Whitney class")
    p.add_argument("--sq", type=int, default=None, metavar="DEGREE",
                   help="include Sq^DEGREE applied to w3")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="enumerate candidates in one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partition", default=None, metavar="k/K",
                   help="run only the k-th of K equal chunks (0-based)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce",
                       help="re-verify the bundled reference matrices")
    p.add_argument("--json", action="store_true", help="machine readable output")
    p.add_argument("--corrupt-builtin", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("limit-torsion",
                       help="analyse a stationary system JSON file")
    p.add_argument("--system", required=True, help="system file path")
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_limit_torsion)

    p = sub.add_parser("odometer", help="level table for an integer matrix")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--matrix", required=True, help="integer matrix file path")
    p.add_argument("--levels", type=int, required=True, metavar="K")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-escape", type=int, default=64)
    p.add_argument("--transitive-budget", type=int, default=100_000)
    p.set_defaults(func=cmd_odometer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidMatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal failure, keep the contract explicit
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
