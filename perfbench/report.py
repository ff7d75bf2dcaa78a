"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 60] [--workloads a,b]

Runs ``run.py`` once untraced and once traced per workload, one process
at a time, and passes its lines through: the end-to-end metrics, the
per-layer metrics and each layer's share of the summed case time.  It
then checks that the workloads separate the layers: realize plus double
cosets dominate the group ladder and the eigensolve stays idle on it,
and the lemma-4 trials are the largest span on the catalog.  Exits with 1
when a run fails its correctness check or a separation check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bench
from mirror import LAYER_SPANS

RUN = bench.HERE / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True,
        capture_output=True,
        text=True,
    )
    *lines, last = proc.stdout.strip().splitlines()
    for line in lines:
        print(f"  {line}")
    return json.loads(last)


def share(layers: dict, *names: str) -> float:
    return sum(layers[n]["value"] for n in names) / layers["trace.case_s"]["value"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = parser.parse_args()

    ok = True
    traced = {}
    for name in args.workloads.split(","):
        for trace in (0, 1):
            print(f"== {name}, {'traced' if trace else 'untraced'}")
            result = run(name, args.seed, args.seconds, trace)
            ok &= result["correct"]
        traced[name] = result["metrics"]

    checks = []
    if "group-ladder" in traced:
        g = traced["group-ladder"]
        checks += [
            ("spectral.eigensolve_s < 5% of group-ladder",
             share(g, "spectral.eigensolve_s") < 0.05),
            ("casefile.realize_s + groups.double_coset_s >= 80% of group-ladder",
             share(g, "casefile.realize_s", "groups.double_coset_s") >= 0.80),
        ]
    if "catalog" in traced:
        c = traced["catalog"]
        largest = max(LAYER_SPANS, key=lambda n: c[f"{n}_s"]["value"])
        checks.append(("harmonic.lemma4_s is the largest span on catalog",
                       largest == "harmonic.lemma4"))
    print("== layer separation")
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} {label}")
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
