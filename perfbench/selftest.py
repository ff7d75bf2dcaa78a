"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. The traced mirror must give, for every workload case, a report equal
   field by field to ``analyze_case``'s: the verdicts, the exact
   ``lambda1`` and ``lambda2``, and values that depend on the random
   stream (the norm-identity deviations), so the mirror cannot drift
   from ``pipeline._analyze``.  Its spans must nest in one case.
2. Those rows must match ``reference.csv``, and a perturbed reference row
   must be counted as a failed case.

Prints one line per check and exits with 1 if any check fails.
"""

from __future__ import annotations

import sys

import bench
import mirror
from stabgap import AnalyzeOptions, CatalogResult, analyze_case


def main() -> int:
    options = AnalyzeOptions(seed=0)
    reference = bench.load_reference()
    problems = []

    specs = bench.all_cases()
    reports = []
    for spec in specs:
        expected = analyze_case(spec, options)
        tracer = mirror.Tracer()
        mirrored = mirror.traced_analyze(spec, options, tracer, spec.name)
        reports.append(mirrored)
        same = mirrored == expected
        if not same:
            problems.append(f"mirror differs from analyze_case on {spec.name}")
        spans = tracer.spans
        if spans[0][1] != mirror.CASE_SPAN or any(
            s[3] is None or (i and s[4] is None) for i, s in enumerate(spans)
        ):
            problems.append(f"spans of {spec.name} do not nest in one case span")
        print(f"{'PASS' if same else 'FAIL'} mirror == analyze_case: {spec.name}")

    names = [spec.name for spec in specs]
    result = CatalogResult(tuple(reports), ())
    failed = bench.count_failures(names, result, reference)
    print(f"{'PASS' if failed == 0 else 'FAIL'} reference rows match ({failed} differ)")
    if failed:
        problems.append(f"{failed} rows differ from {bench.REFERENCE}")

    for column in ("lambda2", "chain_ok"):
        at = bench.REFERENCE_COLUMNS.index(column)
        perturbed = dict(reference)
        row = list(perturbed[names[0]])
        row[at] = row[at] + "0" if column == "lambda2" else "false"
        perturbed[names[0]] = row
        caught = bench.count_failures(names, result, perturbed) == failed + 1
        print(f"{'PASS' if caught else 'FAIL'} perturbed reference {column} is counted")
        if not caught:
            problems.append(f"a perturbed {column} reference was not counted")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
