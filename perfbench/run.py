"""Repository benchmark: paper tables, ward interference, cached tornado.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` first measures untraced, then wraps each layer's
public methods and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  ``--record`` re-records ``expected.json`` (only for a
change that alters outputs on purpose).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from layers import SPANS, Tracer, register_scenarios

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
EXPECTED = HERE / "expected.json"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Timed runs per measurement, at least.
MIN_RUNS = 2


class BenchError(Exception):
    """The benchmark cannot run here (program missing, bad inputs)."""


def _load_program() -> Any:
    """Import the program from ``./src`` and the workload module."""
    src = ROOT / "src"
    sys.path.insert(1, str(src))
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    return workloads


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh interpreter until it is ready to
    dispatch the first scenario (imports, inputs, cache code salt)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = probe.stdout.readline()  # type: ignore[union-attr]
            elapsed = perf_counter() - start
            probe.communicate(timeout=60)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            raise BenchError(f"setup probe failed (exit {probe.returncode})")
        times.append(elapsed)
    return times


class Sample(NamedTuple):
    """One timed run: wall seconds, counters, checked scalar outputs,
    span totals (traced runs only)."""

    wall_s: float
    counts: Dict[str, float]
    extra: Dict[str, float]
    spans: Dict[str, Tuple[int, float]]


class Measurement:
    """Closed-loop runs of one workload for a time budget."""

    def __init__(self, wl: Any, workload: str, inputs: Dict[str, Any],
                 expected: Dict[str, Any], scratch: Path) -> None:
        self.wl = wl
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.scenarios = len(expected["results"])

    def run(self, seconds: float, jobs: int, tracer: Any = None,
            warmup: bool = True) -> List[Sample]:
        """Warm up once, then time runs until ``seconds`` have passed."""
        driver = self.wl.run_once
        if tracer is not None:
            driver = tracer.wrap("analysis.batch", driver)
        if warmup:
            self._one(driver, jobs, None)
        samples: List[Sample] = []
        started = perf_counter()
        while len(samples) < MIN_RUNS or perf_counter() - started < seconds:
            sample = self._one(driver, jobs, tracer)
            if sample is not None:
                samples.append(sample)
            elif perf_counter() - started > seconds:
                break
        return samples

    def _one(self, driver: Any, jobs: int, tracer: Any) -> Optional[Sample]:
        scratch = Path(tempfile.mkdtemp(dir=self.scratch))
        gc.collect()
        if tracer is not None:
            tracer.reset()
        self.attempted += self.scenarios
        try:
            start = perf_counter()
            outcome = driver(self.workload, self.inputs, jobs, str(scratch))
            wall_s = perf_counter() - start
        # Boundary of the closed loop: a failing run is counted, not fatal.
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            self.failed += self.scenarios
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        failed = self.wl.failed_scenarios(outcome, self.expected)
        self.failed += failed
        spans = tracer.snapshot() if tracer is not None else {}
        return Sample(wall_s, outcome.counts, outcome.extra, spans)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def counters_of(samples: List[Sample]) -> Tuple[Dict[str, Any], bool]:
    """Exact counters of a measurement and whether every run agreed."""
    first = samples[0].counts
    steady = all(sample.counts == first for sample in samples)
    counts: Dict[str, Any] = {}
    for name, value in sorted(first.items()):
        if name != "sim.seconds":
            counts[name] = int(value)
    hits = counts.setdefault("exec.cache_hits", 0)
    misses = counts.setdefault("exec.cache_misses", 0)
    counts["exec.cache_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    sent = counts.get("mac.data_sent", 0)
    counts["mac.delivery_ratio"] = (counts.get("mac.bs_received", 0) / sent
                                    if sent else 0.0)
    return counts, steady


def _line(name: str, value: Any, unit: str) -> str:
    return f"  {name:<24} {value!s:>14} {unit}"


def end_to_end(samples: List[Sample], setup: List[float],
               scenarios: int) -> Dict[str, Tuple[float, str]]:
    walls = [sample.wall_s for sample in samples]
    wall_s = statistics.median(walls)
    sim_s = samples[0].counts["sim.seconds"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "sim_s_per_wall_s": (statistics.median(sim_s / w for w in walls),
                             "sim-s/s"),
        "scenarios_per_s": (statistics.median(scenarios / w for w in walls),
                            "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(untraced: List[Sample], traced: List[Sample],
              spans: Tuple[str, ...]) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}
    for span in spans:
        metrics[f"{span}.calls"] = (traced[-1].spans[span][0], "count")
        metrics[f"{span}.self_s"] = (statistics.median(
            sample.spans[span][1] for sample in traced), "s")
    counts, _ = counters_of(traced)
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio")
                         else "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in untraced), "ratio")
    metrics["trace.coverage"] = (statistics.median(
        sum(self_s for _, self_s in s.spans.values()) / s.wall_s
        for s in traced), "ratio")
    return metrics


def ranking(traced: List[Sample]) -> List[Tuple[str, float]]:
    """Spans by median share of the summed self time, largest first."""
    shares: Dict[str, List[float]] = {}
    for sample in traced:
        total = sum(self_s for _, self_s in sample.spans.values()) or 1.0
        for span, (_, self_s) in sample.spans.items():
            shares.setdefault(span, []).append(self_s / total)
    return sorted(((span, statistics.median(values))
                   for span, values in shares.items()),
                  key=lambda item: -item[1])


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def record(wl: Any) -> None:
    """Run every input set of every workload once and store the outputs."""
    register_scenarios()
    runs: Dict[str, Any] = {}
    table: Dict[str, Any] = {}

    def stored(result: Any) -> str:
        encoded = wl.encode(result)
        key = hashlib.sha256(json.dumps(encoded).encode()).hexdigest()[:16]
        table[key] = encoded
        return key

    for workload in wl.WORKLOADS:
        runs[workload] = {}
        for variant in range(wl.VARIANTS):
            inputs = wl.make_inputs(workload, variant)
            with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
                outcome = wl.run_once(workload, inputs,
                                      wl.JOBS[workload], scratch)
            runs[workload][str(variant)] = {
                "results": [stored(r) for r in outcome.results],
                "extra": outcome.extra}
            print(f"recorded {workload} input set {variant}",
                  file=sys.stderr)
    EXPECTED.write_text(json.dumps(
        {"variants": wl.VARIANTS, "window_s": wl.WINDOW_S, "runs": runs,
         "results": table},
        separators=(",", ":")) + "\n")


def bench(wl: Any, args: argparse.Namespace) -> int:
    recorded = json.loads(EXPECTED.read_text())
    if (recorded["variants"] != wl.VARIANTS
            or recorded["window_s"] != wl.WINDOW_S):
        raise BenchError("expected.json was recorded for other inputs")
    workload = args.workload
    variant = wl.variant_of(args.seed)
    expected = dict(recorded["runs"][workload][str(variant)])
    expected["results"] = [recorded["results"][key]
                           for key in expected["results"]]
    setup = measure_setup(workload, args.seed)

    register_scenarios()
    inputs = wl.make_inputs(workload, args.seed)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        meter = Measurement(wl, workload, inputs, expected, scratch)
        if args.trace:
            # Tracing needs every span in this process: one worker.
            untraced = meter.run(args.seconds / 2, jobs=1)
            tracer = Tracer()
            tracer.install()
            traced = meter.run(args.seconds / 2, jobs=1, tracer=tracer,
                               warmup=False)
        else:
            untraced = meter.run(args.seconds, jobs=wl.JOBS[workload])
            traced = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    if not untraced or (args.trace and not traced):
        raise BenchError("no run completed")

    print(f"workload {workload}  seed {args.seed} "
          f"(input set {variant} of {wl.VARIANTS})  trace {args.trace}")
    correct = report(untraced, traced, meter)
    if args.trace:
        metrics = per_layer(untraced, traced, SPANS)
        print("  self-time ranking (share of summed self time):")
        for span, share in ranking(traced):
            print(f"    {span:<20} {100 * share:6.2f} %")
    else:
        metrics = end_to_end(untraced, setup, meter.scenarios)
    for name, (value, unit) in metrics.items():
        print(_line(name, f"{value:.6g}", unit))
    print(json.dumps({
        "correct": correct, "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def report(untraced: List[Sample], traced: List[Sample],
           meter: Measurement) -> bool:
    """Print wall times, counters and checked outputs; True if correct."""
    counts, steady = counters_of(untraced)
    q1, q2, q3 = _quartiles([s.wall_s for s in untraced])
    print(f"  untraced: {len(untraced)} timed runs, wall_s median "
          f"{q2:.4f} s (quartiles {q1:.4f} .. {q3:.4f}), "
          f"counters {'equal' if steady else 'DIFFER'} across runs")
    print("  counters: " + "  ".join(
        f"{name}={value:.6g}" if isinstance(value, float)
        else f"{name}={value}" for name, value in counts.items()))
    if traced:
        traced_counts, traced_steady = counters_of(traced)
        steady = steady and traced_steady and traced_counts == counts
        print(f"  traced: {len(traced)} timed runs, counters "
              f"{'equal to' if steady else 'DIFFER from'} the untraced runs")
    for name, value in untraced[-1].extra.items():
        print(_line(name, f"{value:.4f}", "%  (checked every run)"))
    fraction = meter.failed / meter.attempted
    print(_line("failed_fraction", f"{fraction:g}",
                f"ratio  ({meter.failed} of {meter.attempted} "
                f"scenario results)"))
    return steady and meter.failed == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper_tables")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl = _load_program()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {sorted(wl.WORKLOADS)}")
        if args.setup_probe:
            wl.make_inputs(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.record:
            record(wl)
            return 0
        return bench(wl, args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
