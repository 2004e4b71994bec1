"""Command line interface.

    segre-cusp surface-report  --config FILE [--seed S --json PATH]
    segre-cusp line-report     --config FILE --line K
    segre-cusp point-case      --config FILE (--point "a,b,c,d,e" | --random)
    segre-cusp verify-appendix
    segre-cusp table1          [--symbols "[11111],[5]"]

No command takes a truncation order: each computation starts low and
escalates until the order settles its answer.

All commands print deterministic JSON on standard output and exit nonzero
when an assertion-bearing record fails.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from importlib import resources

from .errors import SegreCuspError
from .fields import parse_rational
from .pencil import TABLE1_SYMBOLS, SegreSymbol
from .report import (SCHEMA_VERSION, SurfaceConfig, canonical_dumps,
                     line_payload, point_payload)
from .surface import ProjectivePoint
from .fields import QQ


def _load_table1_fixture():
    path = resources.files("segrecusp").joinpath("data", "table1.json")
    with path.open() as fh:
        return json.load(fh)


def _emit(payload, path=None):
    text = canonical_dumps(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_surface_report(args):
    if args.offline_points < 0:
        raise SegreCuspError("--offline-points must not be negative, "
                             f"got {args.offline_points}")
    config, surface = _build(args)
    from .cusplocus import branch_scan, cusp_locus_summary
    from .lines import enumerate_lines

    census = enumerate_lines(surface)
    scan = branch_scan(surface, offline_points=args.offline_points)
    summary = cusp_locus_summary(surface)
    # an uncertified census is a wrong answer the report cannot rule out
    scan.anomalies.extend(census.warnings)
    notes = []

    from .surface import singular_sweep_numeric
    _, unresolved = singular_sweep_numeric(surface, seed=config.seed)
    for hit in unresolved:
        scan.anomalies.append(
            "UNRESOLVED numeric singular candidate: "
            + "[" + ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in hit) + "]")

    point_cases = []
    try:
        from .cusplocus import sample_point_cases
        for p, pc in sample_point_cases(surface, 3,
                                        rng=random.Random(config.seed + 11)):
            point_cases.append({"point": point_payload(p), "case": pc.case})
    except SegreCuspError as exc:
        notes.append(f"point sampling unavailable: {exc}")

    lines_out = []
    for rec in scan.records:
        entry = line_payload(rec.line)
        entry["m"] = rec.m
        entry["disc_order"] = rec.disc_order
        entry["branch_mult"] = rec.branch_mult
        entry["exact_report"] = rec.exact
        entry["order_used"] = rec.order_used
        lines_out.append(entry)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": config.echo(),
        "symbol": str(surface.pencil.segre_symbol()),
        "singularities": [{"point": point_payload(p), "type": str(ade)}
                          for p, ade in surface.singularities()],
        "line_counts": list(census.counts),
        "lines": lines_out,
        "double_conic_pencils": surface.pencil.double_conic_pencil_count(),
        "point_cases": point_cases,
        "cusp_locus": summary.classification,
        "offline_points_checked": scan.offline_points_checked,
        "offline_all_two_roots": scan.offline_all_two_roots,
        "anomalies": scan.anomalies,
        "notes": notes,
    }
    _emit(payload, args.json)
    return 1 if scan.anomalies or not scan.offline_all_two_roots else 0


def cmd_line_report(args):
    config, surface = _build(args)
    from .cusplocus import line_branch_record
    from .lines import enumerate_lines

    census = enumerate_lines(surface)
    if not 0 <= args.line < len(census.lines):
        raise SegreCuspError(
            f"line index {args.line} out of range 0..{len(census.lines) - 1}")
    line = census.lines[args.line]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": config.echo(),
        "line": line_payload(line),
    }
    rec = line_branch_record(surface, line)
    payload.update({"m": rec.m, "disc_order": rec.disc_order,
                    "branch_mult": rec.branch_mult, "exact": rec.exact})
    status = 0
    if rec.exact:
        payload.update({
            "coefficient_orders": [str(o) for o in rec.coefficient_orders],
            "order_used": rec.order_used,
        })
    else:
        payload["evidence"] = {k: v for k, v in rec.evidence.items()
                               if k in ("m_slopes", "disc_slopes", "status")}
        status = 0 if rec.evidence.get("status") == "ok" else 1
    _emit(payload, args.json)
    return status


def cmd_point_case(args):
    point = _parse_point(args.point) if args.point else None
    if point is None and args.count < 1:
        raise SegreCuspError(f"--count must be positive, got {args.count}")
    config, surface = _build(args)
    from .cusplocus import point_case, sample_point_cases
    from .lines import enumerate_lines

    enumerate_lines(surface)
    if point is not None:
        pairs = [(point, point_case(surface, point))]
    else:
        pairs = sample_point_cases(surface, args.count,
                                   rng=random.Random(config.seed))
    cases = []
    for p, pc in pairs:
        cases.append({"point": point_payload(p), "case": pc.case,
                      "root_sections": [str(c) for c in pc.root_classes]})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": config.echo(),
        "symbol": str(surface.pencil.segre_symbol()),
        "cases": cases,
    }
    _emit(payload, args.json)
    return 0


def _parse_point(text):
    try:
        coords = [parse_rational(c) for c in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise SegreCuspError(f"--point: {exc}") from exc
    if len(coords) != 5:
        raise SegreCuspError("--point needs five comma-separated rationals")
    if not any(coords):
        raise SegreCuspError("--point must not be the zero vector")
    return ProjectivePoint.make(QQ, coords)


def cmd_verify_appendix(args):
    from .appendix import verify_appendix
    results = verify_appendix()
    ok = all(r["pass"] for r in results)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": results,
        "all_pass": ok,
    }
    _emit(payload, args.json)
    return 0 if ok else 1


def _table1_spelling(text):
    """Table 1's spelling of a symbol written in any unit order: the
    fixture's rows are keyed by it."""
    try:
        sym = SegreSymbol.parse(text)
    except ValueError as exc:
        raise SegreCuspError(f"--symbols: {exc}") from exc
    for s in TABLE1_SYMBOLS:
        if s == sym:
            return str(s)
    raise SegreCuspError(f"--symbols: {text.strip()} is not in Table 1")


def cmd_table1(args):
    fixture = _load_table1_fixture()
    if args.symbols is None:
        wanted = [str(s) for s in TABLE1_SYMBOLS]
    else:
        wanted = [_table1_spelling(s) for s in args.symbols.split(",")
                  if s.strip()]
        if not wanted:
            # an empty table would pass vacuously
            raise SegreCuspError(
                f"--symbols: {args.symbols!r} names no symbol")
    from .instances import table1_instance
    from .lines import enumerate_lines
    from .cusplocus import line_report

    ds_name = {0: "irreducible", 1: "reducible", 2: "cuspidal-image-empty"}
    rows = []
    all_ok = True
    for canon in wanted:
        expected = fixture["rows"][canon]
        surface = table1_instance(canon, seed=args.seed or 0)
        cells = {}
        sing = surface.singularity_multiset()
        cells["sing"] = {"got": sing, "want": sorted(expected["sing"]),
                         "pass": sing == sorted(expected["sing"])}
        census = enumerate_lines(surface)
        cells["lines"] = {"got": list(census.counts),
                          "want": expected["lines"],
                          "pass": list(census.counts) == expected["lines"]}
        got_x = None
        for line in census.lines:
            if (line.exactness == "exact" and line.n_incident == 2
                    and line.field() == QQ):
                got_x = line_report(surface, line).m
                break
        cells["x"] = {"got": got_x, "want": expected["x"],
                      "pass": got_x == expected["x"]}
        ds = ds_name[surface.pencil.double_conic_pencil_count()]
        cells["DS"] = {"got": ds, "want": expected["DS"],
                       "pass": ds == expected["DS"]}
        ok = all(c["pass"] for c in cells.values())
        all_ok = all_ok and ok
        rows.append({"symbol": canon, "cells": cells, "pass": ok,
                     "warnings": census.warnings})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "fixture_version": fixture["version"],
        "rows": rows,
        "all_pass": all_ok,
    }
    _emit(payload, args.json)
    return 0 if all_ok else 1


def _build(args):
    """The config named by --config, with --seed applied, and the surface
    it describes."""
    config = SurfaceConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config, config.build()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segre-cusp",
        description="Exact cuspidal-locus data of Segre quartic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="surface config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", default=None, help="also write the report here")

    p = sub.add_parser("surface-report", help="full report for one surface")
    common(p)
    p.add_argument("--offline-points", type=int, default=5)
    p.set_defaults(func=cmd_surface_report)

    p = sub.add_parser("line-report", help="Hessian data along one line")
    common(p)
    p.add_argument("--line", type=int, required=True,
                   help="index into the deterministic line census")
    p.set_defaults(func=cmd_line_report)

    p = sub.add_parser("point-case", help="the trichotomy at a point")
    common(p)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--point", default=None,
                       help="five comma-separated rationals (homogeneous)")
    where.add_argument("--random", action="store_true",
                       help="--count generic rational points")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_point_case)

    p = sub.add_parser("verify-appendix",
                       help="replay the seven explicit line computations")
    common(p, config=False)
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("table1", help="regression against the expected table")
    common(p, config=False)
    p.add_argument("--symbols", default=None,
                   help="comma-separated Segre symbols (default: all 16)")
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SegreCuspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
