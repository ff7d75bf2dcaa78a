"""Command-line interface: analyze a case document or run the catalog.

Exit codes: 0 when every normative check passed, 2 when at least one
normative check failed, 1 on operational errors (bad input, caps
exceeded, missing files).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from .casefile import _OPTION_KEYS, CaseParseError, load_case
from .catalog import FAMILY_NAMES, builtin_cases
from .errors import ConvergenceError, SizeLimitError, StructureError
from .pipeline import (
    AnalyzeOptions,
    CaseAnalysisError,
    CSV_COLUMNS,
    analyze_case,
    analyze_many,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabgap",
        description=(
            "Construct the bipartite double of a vertex-transitive group "
            "action, compute its singular values, and verify the norm, "
            "convolution, and stabilizer-bound identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a single case document")
    analyze.add_argument("--input", required=True, help="path to a JSON case document")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument(
        "--dump-matrix",
        action="store_true",
        help="also emit the bipartite matrix, one integer row per line",
    )

    catalog = sub.add_parser("catalog", help="run the built-in catalog")
    catalog.add_argument(
        "--families",
        default="all",
        help=f"comma-separated families, or 'all' ({', '.join(FAMILY_NAMES)})",
    )
    catalog.add_argument("--out", required=True, help="path of the CSV report")
    for command in (analyze, catalog):
        for key, kind in _OPTION_KEYS.items():
            command.add_argument("--" + key.replace("_", "-"), type=kind, default=None)
    return parser


def _flags(args: argparse.Namespace) -> dict:
    """The option flags given explicitly on the command line."""
    return {
        key: getattr(args, key)
        for key in _OPTION_KEYS
        if getattr(args, key) is not None
    }


def _run_analyze(args: argparse.Namespace) -> int:
    spec = load_case(args.input)
    spec = replace(spec, options=replace(spec.options, **_flags(args)))
    report = analyze_case(spec, dump_matrix=args.dump_matrix)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerow(report.csv_row())
        if args.dump_matrix and report.matrix_dump is not None:
            print(report.matrix_dump)
    return 0 if report.normative_ok else 2


def _parse_families(raw: str) -> list[str] | None:
    raw = raw.strip()
    if raw == "all":
        return None
    families = [part.strip() for part in raw.split(",") if part.strip()]
    if not families:
        raise ValueError("no families selected")
    return families


def _run_catalog(args: argparse.Namespace) -> int:
    families = _parse_families(args.families)
    specs = builtin_cases(families)
    result = analyze_many(specs, replace(AnalyzeOptions(), **_flags(args)))
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in result.reports:
            writer.writerow(report.csv_row())
    failures = [r.name for r in result.reports if not r.normative_ok]
    print(
        f"{len(specs)} cases: {len(result.reports) - len(failures)} passed, "
        f"{len(failures)} failed, {len(result.errors)} errored"
    )
    for _, message in result.errors:
        print(f"error: {message}", file=sys.stderr)
    for name in failures:
        print(f"normative failure: {name}", file=sys.stderr)
    if result.errors:
        return 1
    return 0 if not failures else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_catalog(args)
    except (
        CaseParseError,
        CaseAnalysisError,
        SizeLimitError,
        StructureError,
        ConvergenceError,
        OSError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
