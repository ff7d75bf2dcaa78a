"""The host's speed during a run, sampled by a helper process.

On a shared host other tenants slow a vCPU by up to 2x for stretches of
seconds to many minutes, so seconds measured a few minutes apart differ
by up to 30 %.  ``Sampler`` starts this file as a helper process on the
benchmark's own CPU.  Every ``PERIOD_S`` it runs ``reference_loop`` and
records the CPU time the loop took.  The time the scheduler gives the
benchmark instead is not counted, so that CPU time follows only how fast
the CPU runs.  ``Sampler.factor(start, end)`` scales the seconds of work
between two ``time.perf_counter`` readings to reference speed, the speed
at which the loop takes ``REFERENCE_LOOP_S`` of CPU time.  A change to
stabgap moves the work and not the loop, so it shows in full.

    python3 perfbench/speed.py OUT_FILE     # the helper process itself
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: Seconds between samples.  Each sample takes about 5-10 ms of CPU, so
#: the helper takes 2-4 % of the CPU from the benchmark.
PERIOD_S = 0.25

#: CPU seconds ``reference_loop`` takes on an unloaded vCPU of the machine
#: the benchmark was defined on (a 2-vCPU Intel Xeon VM).
REFERENCE_LOOP_S = 0.006

#: Seconds ``Sampler`` waits for the helper's first sample.
START_TIMEOUT_S = 30.0

_LOOP_PERM = tuple((7 * i + 3) % 64 for i in range(64))
_LOOP_MATRIX = np.arange(64.0).reshape(8, 8) / 64


def reference_loop() -> None:
    """A fixed piece of work of the kinds stabgap does: tuple permutation
    products, set and dict inserts, a sort and small numpy products.  It
    shares no code with stabgap."""
    for _ in range(10):
        perm, seen, index = _LOOP_PERM, set(), {}
        for k in range(120):
            perm = tuple(perm[j] for j in _LOOP_PERM)
            seen.add(perm)
            index[perm] = k
        matrix = _LOOP_MATRIX
        for _ in range(60):
            matrix = (matrix @ _LOOP_MATRIX) / (1.0 + np.abs(matrix).sum())
        sorted(seen)


def sample(path: str) -> None:
    """Append ``start end cpu_seconds`` of one ``reference_loop`` to
    ``path`` every ``PERIOD_S`` until the parent process is gone."""
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:
            start, cpu = time.perf_counter(), time.process_time()
            reference_loop()
            cpu = time.process_time() - cpu
            out.write(f"{start} {time.perf_counter()} {cpu}\n")
            out.flush()
            time.sleep(PERIOD_S)


class Sampler:
    """Context manager that runs the helper process for its body.

    ``path`` is the helper's output file; it is removed on exit.
    ``factor`` and ``describe`` may be called once the body has ended.
    """

    def __init__(self, path):
        self.path = path
        self._mids: list[float] = []
        self._cpu: list[float] = []

    def __enter__(self) -> "Sampler":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        self._helper = subprocess.Popen([sys.executable, __file__, str(self.path)])
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.path.read_text():
            if self._helper.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.01)
        return self

    def _stop(self) -> None:
        self._helper.terminate()
        self._helper.wait()

    def __exit__(self, *exc) -> None:
        self._stop()
        lines = self.path.read_text().splitlines(keepends=True)
        self.path.unlink()
        for line in lines:
            if line.endswith("\n"):
                start, end, cpu = map(float, line.split())
                self._mids.append((start + end) / 2)
                self._cpu.append(cpu)

    def factor(self, start: float, end: float) -> float:
        """What scales the seconds of work between ``start`` and ``end`` to
        reference speed: ``REFERENCE_LOOP_S`` over the mean CPU time of the
        samples taken within ``PERIOD_S`` of the interval, or of the
        nearest sample when none was."""
        lo = bisect.bisect_left(self._mids, start - PERIOD_S)
        hi = bisect.bisect_right(self._mids, end + PERIOD_S)
        if lo == hi:
            middle = (start + end) / 2
            nearest = min(range(len(self._mids)), key=lambda i: abs(self._mids[i] - middle))
            lo, hi = nearest, nearest + 1
        return REFERENCE_LOOP_S / statistics.fmean(self._cpu[lo:hi])

    def describe(self) -> str:
        return (
            f"speed samples: {len(self._cpu)}, loop CPU seconds median "
            f"{statistics.median(self._cpu):.4f}, min {min(self._cpu):.4f}, "
            f"max {max(self._cpu):.4f}; reference {REFERENCE_LOOP_S}"
        )


if __name__ == "__main__":
    sample(sys.argv[1])
