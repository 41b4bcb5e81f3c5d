"""Smoke-sized self-test of the benchmark.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

For every workload it runs the benchmark briefly with tracing off and
on, and asserts that every metric named in ``BENCHMARK.json`` is printed
with its unit, that counters are integers, and that no scenario failed.
It then checks that the benchmark refuses to run, without printing a
result, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:2] == ["failed_fraction", "0"]
               for line in lines), "failed_fraction is not printed as 0"
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, sorted(metrics)
    for metric in wanted:
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float))
        if metric["unit"] == "count":
            assert isinstance(got["value"], int), (metric, got)
        if not trace:
            assert got["value"] > 0, (metric, got)
    print(f"ok  {workload} trace {trace}: {len(metrics)} metrics")


def check_refuses_without_program() -> None:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "paper_tables", 0)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    print("ok  refuses to run without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
