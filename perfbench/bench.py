"""Workloads, reference rows and the ``analyze_many`` passes.

Importing this module puts the checkout's ``src`` directory on the path
and imports ``stabgap``; it raises ImportError when the package source
is not there.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.csv"
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"

if not (SRC / "stabgap" / "__init__.py").is_file():
    raise ImportError(f"stabgap source not found under {SRC}")
sys.path.insert(0, str(SRC))

from stabgap import (  # noqa: E402
    CSV_COLUMNS,
    CatalogResult,
    analyze_case,
    analyze_many,
    pipeline,
)
from workloads import WORKLOADS  # noqa: E402

#: Columns compared against the reference; ``seed`` is the per-case seed
#: derived from the run's seed, so it is the one column that varies.
REFERENCE_COLUMNS = tuple(c for c in CSV_COLUMNS if c != "seed")
_SEED_INDEX = CSV_COLUMNS.index("seed")


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def all_cases() -> list:
    """Every distinct case of every workload, in workload order."""
    specs = {}
    for build in WORKLOADS.values():
        for spec in build():
            specs.setdefault(spec.name, spec)
    return list(specs.values())


def reference_row(report) -> list[str]:
    row = report.csv_row()
    del row[_SEED_INDEX]
    return row


def load_reference() -> dict[str, list[str]]:
    with open(REFERENCE, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if tuple(rows[0]) != REFERENCE_COLUMNS:
        raise ValueError(f"{REFERENCE} header differs from the report columns")
    return {row[0]: row for row in rows[1:]}


def count_failures(names, result, reference) -> int:
    """Cases of an ``analyze_many`` result that errored, failed a
    normative check, or whose report row differs from the reference
    (every column but ``seed``)."""
    by_name = {r.name: r for r in result.reports}
    errors = dict(result.errors)
    failed = 0
    for name in names:
        report = by_name.get(name)
        if (
            report is None
            or name in errors
            or not report.normative_ok
            or reference_row(report) != reference.get(name)
        ):
            failed += 1
    return failed


def run_pass(specs, options, analyze):
    """``analyze_many(specs, options)`` with ``analyze`` in place of
    ``pipeline.analyze_case``, the function ``analyze_many`` runs once per
    case.  Returns (seconds from the call to the last report, the
    ``CatalogResult``)."""
    pipeline.analyze_case = analyze
    try:
        start = time.perf_counter()
        result = analyze_many(specs, options)
        wall = time.perf_counter() - start
    finally:
        pipeline.analyze_case = analyze_case
    return wall, result


@dataclass(frozen=True)
class PassResult:
    wall_s: float
    #: ``time.perf_counter`` at the start and end of each case, in spec order.
    cases: list[tuple[float, float]]
    result: CatalogResult


def timed_pass(specs, options) -> PassResult:
    """One untraced ``analyze_many`` pass with per-case times, in spec order.

    The per-case timer adds two clock reads per case and no layer tracing.
    """
    cases: list[tuple[float, float]] = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return analyze_case(*args, **kwargs)
        finally:
            cases.append((start, time.perf_counter()))

    wall, result = run_pass(specs, options, timed)
    if len(cases) != len(specs):
        raise RuntimeError(
            f"timed {len(cases)} of {len(specs)} cases: analyze_many no longer "
            "calls pipeline.analyze_case per case"
        )
    return PassResult(wall, cases, result)
