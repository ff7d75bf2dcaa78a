"""The benchmark runs as part of the test suite: its self-test, and one
short pass of the benchmark command on each workload, so a change to the
library that breaks the benchmark's traced mirror of the pipeline, its
replay of the random stream, its reference rows or the command itself
fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_benchmark_selftest_passes():
    done = run(str(ROOT / "perfbench" / "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["catalog", "group-ladder"])
def test_benchmark_command_runs_correctly(workload):
    done = run(
        str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seconds", "0"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0


def test_benchmark_command_runs_traced():
    # The traced mode reads every report's lemma 4 trial count and writes
    # its spans under perfbench/out/.
    done = run(
        str(ROOT / "perfbench" / "run.py"),
        "--workload", "group-ladder", "--seconds", "0", "--trace", "1",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
