#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a base revision vs this tree.

Exports the committed files of ``REV`` (``git archive``) and the
working tree's tracked and untracked, not ignored, files into two fresh
temporary directories, so that both sides start alike (no bytecode
cache, no leftovers), then runs ``perfbench/run.py`` of each side in
its own process, pair by pair, alternating which side goes first.  Pair
``i`` uses seed ``seeds[i % len(seeds)]`` on both sides.  For every
end-to-end metric in ``BENCHMARK.json`` it prints each side's median
and quartiles, the head/base ratio of the medians, how many pairs head
won, and whether the gain rule holds: head wins at least nine pairs in
ten and the medians differ by more than the base's interquartile
range.  It also checks that every exact work counter (``sim.events``,
``tinyos.tasks_run``, ``phy.*``, ``mac.*``, ``hw.adc.conversions``,
``exec.cache_*``) is equal between the two sides of each pair, and
that every run reports ``correct: true`` and ``failed: 0``.

Usage, from the repository root::

    python3 tools/ab_perfbench.py HEAD~1 --workload ward_interference \\
        --pairs 10 --seeds 101 102 103 104 105 106 107 108 109 110

The temporary copies go under ``$TMPDIR`` and are removed at exit.  The
exit code is 1 when a run fails, reports incorrect output or the
counters differ, else 0; the gain rule is reported, not enforced.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Run(NamedTuple):
    """One perfbench invocation's result."""

    metrics: Dict[str, float]
    counters: Dict[str, str]
    correct: bool
    failed: int


def export_revision(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored,
    files into ``dest`` (uncommitted edits included)."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, check=True,
        capture_output=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():  # tracked files deleted in the tree are skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def parse_counters(stdout: str) -> Dict[str, str]:
    """The ``counters:`` report line as ``name -> printed value``."""
    for line in stdout.splitlines():
        if line.strip().startswith("counters:"):
            fields = line.split(":", 1)[1].split()
            return dict(field.split("=", 1) for field in fields)
    raise ValueError("no counters line in the benchmark report")


def run_bench(checkout: Path, workload: str, seed: int,
              seconds: float) -> Run:
    """Run one side's own benchmark from ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return Run({name: entry["value"]
                for name, entry in last["metrics"].items()},
               parse_counters(proc.stdout), last["correct"], last["failed"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(metric: str, lower_is_better: bool, base: List[Run],
              head: List[Run]) -> str:
    """One report row: medians, IQRs, ratio, wins and the gain rule."""
    b = [run.metrics[metric] for run in base]
    h = [run.metrics[metric] for run in head]
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
    gain = (wins >= 0.9 * len(b)
            and sign * (hmed - bmed) > bq3 - bq1)
    ratio = hmed / bmed if bmed else float("nan")
    return (f"{metric:<17} base {bmed:9.4g} [{bq1:.4g}, {bq3:.4g}]  "
            f"head {hmed:9.4g} [{hq1:.4g}, {hq3:.4g}]  "
            f"head/base {ratio:6.3f}  wins {wins}/{len(b)}  "
            f"gain {'met' if gain else 'not met'}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="base revision (e.g. HEAD~1)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {entry["name"]: entry["better"] == "lower"
                  for entry in spec["end_to_end"]}
    drift = subprocess.run(
        ["git", "diff", "--quiet", args.rev, "--", "perfbench",
         "BENCHMARK.json"], cwd=ROOT).returncode
    if drift:
        print("warning: perfbench/ or BENCHMARK.json differ from "
              f"{args.rev}; the sides run different benchmark code",
              file=sys.stderr)

    scratch = Path(tempfile.mkdtemp(prefix="ab_perfbench_"))
    base_dir, head_dir = scratch / "base", scratch / "head"
    base: List[Run] = []
    head: List[Run] = []
    ok = True
    try:
        export_revision(args.rev, base_dir)
        export_worktree(head_dir)
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            sides = [("base", base_dir, base), ("head", head_dir, head)]
            if pair % 2:
                sides.reverse()
            for _, checkout, runs in sides:
                runs.append(run_bench(checkout, args.workload, seed,
                                      args.seconds))
            same = base[-1].counters == head[-1].counters
            ok = ok and same and all(
                run.correct and run.failed == 0
                for run in (base[-1], head[-1]))
            print(f"pair {pair + 1:2d} seed {seed:4d} "
                  f"first {sides[0][0]}  wall_s base "
                  f"{base[-1].metrics['wall_s']:.4f} head "
                  f"{head[-1].metrics['wall_s']:.4f}  counters "
                  f"{'equal' if same else 'DIFFER'}  correct "
                  f"{base[-1].correct}/{head[-1].correct}  failed "
                  f"{base[-1].failed}/{head[-1].failed}", flush=True)
            if not same:
                for name in sorted(set(base[-1].counters)
                                   | set(head[-1].counters)):
                    b = base[-1].counters.get(name)
                    h = head[-1].counters.get(name)
                    if b != h:
                        print(f"    {name}: base {b} head {h}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}, base {args.rev} vs working tree")
    for metric, lower in directions.items():
        print("  " + summarise(metric, lower, base, head))
    print(f"  exact counters and output checks: "
          f"{'all equal, all correct' if ok else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
