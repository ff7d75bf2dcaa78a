"""Run one stabgap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the run repeats untraced ``analyze_many`` passes for
about ``--seconds`` seconds (at least one pass), with set-up probes
between them, and reports the end-to-end metrics of ``BENCHMARK.json``
from each case's median time over the passes, each time scaled to
reference speed by the samples ``speed.Sampler`` took while it ran.
With ``--trace 1`` it alternates an untraced pass with a traced pass,
``analyze_many`` with the mirror in ``mirror.py`` in place of
``analyze_case`` (at least one of each), and reports the per-layer
metrics, each case's spans scaled in the same way; the spans are
written to ``perfbench/out/`` at exit as measured.  Every pass checks
each case's report row against ``reference.csv``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bench
import mirror
import speed
from stabgap import AnalyzeOptions

#: Seconds of pass time per ``setup_s`` probe.  The probes run between
#: the passes, so they sample the same stretch of the run as the passes;
#: the median is reported.
SETUP_EVERY_S = 4.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, repeats: int) -> list[tuple[float, float]]:
    """``time.perf_counter`` at the start and end of a fresh interpreter
    that imports stabgap and builds the workload's case specs, once per
    repeat."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.WORKLOADS[sys.argv[3]]()"
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(bench.SRC), str(bench.HERE), name],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append((start, time.perf_counter()))
    return times


def keep_going(start: float, passes: int, seconds: float) -> bool:
    """True while one more pass of average length fits in the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def walls_note(label: str, walls) -> str:
    return f"{label}: " + " ".join(f"{w:.3f}" for w in walls)


def scaled(sampler, interval) -> float:
    """Seconds of ``interval`` (start, end) at reference speed."""
    start, end = interval
    return (end - start) * sampler.factor(start, end)


def run_untraced(workload, specs, options, reference, seconds, sampler):
    """End-to-end metrics from each case's median time over the passes,
    and ``setup_s`` from the probes run between them, all at reference
    speed (see ``speed.py``)."""
    names = [s.name for s in specs]
    walls, passes, probes = [], [], []
    attempted = failed = 0
    with sampler:
        probes += measure_setup(workload, 1)
        start = time.perf_counter()
        while True:
            timed = bench.timed_pass(specs, options)
            walls.append(timed.wall_s)
            passes.append(timed.cases)
            attempted += len(specs)
            failed += bench.count_failures(names, timed.result, reference)
            probes += measure_setup(workload, max(1, round(timed.wall_s / SETUP_EVERY_S)))
            if not keep_going(start, len(walls), seconds):
                break
    per_case = list(zip(*passes))
    typical = [statistics.median(scaled(sampler, c) for c in cases) for cases in per_case]
    measured = [statistics.median(end - start for start, end in cases) for cases in per_case]
    metrics = {
        "wall_s": sum(typical),
        "case_s.p50": statistics.median(typical),
        "case_s.max": max(typical),
        "setup_s": statistics.median(scaled(sampler, p) for p in probes),
    }
    notes = [
        f"{len(walls)} passes of {len(specs)} cases",
        walls_note("pass walls as measured (s)", walls),
        sampler.describe(),
        f"sum of per-case medians as measured (s): {sum(measured):.3f}",
        walls_note("setup runs as measured (s)", (end - start for start, end in probes)),
    ]
    return metrics, attempted, failed, notes


def layer_metrics(tracer, first: int, last: int, scale) -> dict[str, float]:
    """Per-layer seconds of the traced pass whose spans are
    ``tracer.spans[first:last]``, each case's scaled by ``scale``."""
    spans = tracer.spans[first:last]
    own = mirror.self_times(spans, first, scale)
    total = mirror.total_times(spans, scale)
    metrics = {f"{name}_s": own.get(name, 0.0) for name in mirror.LAYER_SPANS}
    metrics.update(
        {
            "casefile.realize_s": total[mirror.REALIZE_SPAN],
            "casefile.self_s": own[mirror.REALIZE_SPAN],
            "pipeline.self_s": own[mirror.CASE_SPAN],
            "trace.case_s": total[mirror.CASE_SPAN],
        }
    )
    return metrics


def work_counts(reports, options) -> dict[str, int]:
    """Exact work done, summed over the workload's cases."""
    return {
        "count.cases": len(reports),
        "count.n": sum(r.n_vertices for r in reports),
        "count.group_order": sum(r.group_order for r in reports),
        "count.stabilizer_order": sum(r.stabilizer_order for r in reports),
        "count.s_size": sum(r.s_size for r in reports),
        "count.n_double_cosets": sum(r.n_double_cosets for r in reports),
        "spectral.dense_bytes": sum(8 * r.n_vertices**2 for r in reports),
        "spectral.contraction_trials": options.contraction_trials * len(reports),
        "harmonic.eq2_trials": 2 * options.matrix_trials * len(reports),
        "harmonic.lemma4_trials": sum(r.identity_report.trials for r in reports),
    }


def write_spans(tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for case, name, start, end, parent in tracer.spans:
            record = {"case": case, "name": name, "start": start, "end": end, "parent": parent}
            handle.write(json.dumps(record) + "\n")


def run_traced(specs, options, reference, seconds, out, sampler):
    names = [s.name for s in specs]
    tracer = mirror.Tracer()
    untraced, firsts = [], []
    attempted = failed = 0
    with sampler:
        start = time.perf_counter()
        while True:
            timed = bench.timed_pass(specs, options)
            untraced.append(timed.cases)
            firsts.append(len(tracer.spans))
            _, traced = mirror.traced_pass(specs, options, tracer, tag=str(len(firsts)))
            for result in (timed.result, traced):
                attempted += len(specs)
                failed += bench.count_failures(names, result, reference)
            if not keep_going(start, len(firsts), seconds):
                break
    scale = {
        case: sampler.factor(begin, end)
        for case, name, begin, end, _ in tracer.spans
        if name == mirror.CASE_SPAN
    }
    per_pass = [
        layer_metrics(tracer, first, last, scale)
        for first, last in zip(firsts, firsts[1:] + [len(tracer.spans)])
    ]
    untraced = [sum(scaled(sampler, c) for c in cases) for cases in untraced]
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = metrics["trace.case_s"] - statistics.median(untraced)
    metrics.update(work_counts(traced.reports, options))
    write_spans(tracer, out)

    notes = [
        f"{len(per_pass)} traced passes of {len(specs)} cases",
        sampler.describe(),
        walls_note("untraced case sums at reference speed (s)", untraced),
        walls_note("traced case sums at reference speed (s)", (p["trace.case_s"] for p in per_pass)),
        "self time share of summed case time:",
    ]
    shares = [f"{n}_s" for n in mirror.LAYER_SPANS] + ["casefile.self_s", "pipeline.self_s"]
    for name in sorted(shares, key=lambda n: -metrics[n]):
        notes.append(f"  {name:<28} {100 * metrics[name] / metrics['trace.case_s']:6.2f} %")
    notes.append("per case: name n |G| |G_v| |S| double_cosets dense_bytes")
    for r in traced.reports:
        notes.append(
            f"  {r.name} {r.n_vertices} {r.group_order} {r.stabilizer_order} "
            f"{r.s_size} {r.n_double_cosets} {8 * r.n_vertices**2}"
        )
    notes.append(f"spans: {out}")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run, its set-up probes and the speed sampler, so the
    # sampler measures the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    benchmark = bench.load_benchmark()
    metrics_key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[metrics_key]}
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}[args.workload]
    reference = bench.load_reference()
    specs = bench.WORKLOADS[args.workload]()
    options = AnalyzeOptions(seed=args.seed)
    sampler = speed.Sampler(bench.OUT / f"speed-{os.getpid()}.txt")

    if args.trace:
        out = bench.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed, notes = run_traced(
            specs, options, reference, args.seconds, out, sampler
        )
    else:
        metrics, attempted, failed, notes = run_untraced(
            args.workload, specs, options, reference, args.seconds, sampler
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics differ from {bench.BENCHMARK.name}: "
            f"{sorted(set(metrics) ^ set(units))}"
        )

    print(f"workload {args.workload}: {why}")
    for line in notes:
        print(line)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} cases)")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
