"""Write ``reference.csv``: the report row of every workload case.

    python3 perfbench/capture_reference.py

Rows hold every report column except ``seed`` and are captured once from
a known-good commit; ``run.py`` compares each run, at any seed, against
them, so a later change that alters any report byte on a workload shows
up as a failed case.
"""

from __future__ import annotations

import csv

import bench
from stabgap import AnalyzeOptions


def main() -> None:
    result = bench.analyze_many(bench.all_cases(), AnalyzeOptions(seed=0))
    if result.errors or not result.all_normative_ok:
        raise SystemExit(f"refusing to capture a failing run: {result.errors}")
    with open(bench.REFERENCE, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(bench.REFERENCE_COLUMNS)
        for report in result.reports:
            writer.writerow(bench.reference_row(report))
    print(f"wrote {len(result.reports)} rows to {bench.REFERENCE}")


if __name__ == "__main__":
    main()
