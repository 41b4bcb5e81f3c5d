#!/usr/bin/env python3
"""Dynamic determinism smoke: bit-exact replay, end to end.

``repro.lint`` statically bans the things that *would* break bit-exact
reproducibility (global or unseeded RNG, wall-clock reads, set-ordered
dispatch); this tool proves the invariant actually holds end to end,
and catches what no per-file rule can see — a generator seeded from a
counter that changes between runs, or an observability hook that
perturbs the simulation.  Four checks, each over a reference scenario
set:

1. **Repeat-run** — the same config run twice in one process must
   produce an identical energy result *and* an identical event trace
   (every dispatched ``(tick, source, kind, detail)`` record).
2. **Parallel-equals-sequential** — a mixed batch executed with
   ``jobs=1`` and ``jobs=2`` must produce identical per-config result
   fingerprints in the same order.
3. **Merged counters** — the executor's merged telemetry counters and
   state timers (sim-time quantities; wall-clock histograms/gauges are
   explicitly out of scope) must be equal for ``jobs=1`` and
   ``jobs=2``.
4. **Causal spans** — attaching a span tracer must not perturb the
   run (result and trace fingerprints equal the spans-off run), the
   span set must be bit-identical across repeat runs, and the merged
   ``--jobs N`` span store must equal the sequential one.

Fingerprints are SHA-256 over the result cache's canonical dataclass
encoding (:func:`repro.exec.cache.config_fingerprint`), so "equal"
means equal to the last bit of every float.  A JSON artifact
(``--out``) records every fingerprint for offline diffing; the exit
code is non-zero on any divergence.

Usage::

    PYTHONPATH=src python tools/determinism_check.py --jobs 2 \
        --out determinism.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict, List, Tuple

from repro.exec import ScenarioExecutor
from repro.exec.cache import config_fingerprint
from repro.net import BanScenario, BanScenarioConfig
from repro.obs import MetricsRegistry, SpanStore, attach_span_tracer
from repro.sim.trace import TraceRecorder


def reference_configs() -> List[BanScenarioConfig]:
    """A small batch covering distinct MACs, apps and seeds."""
    return [
        BanScenarioConfig(mac="static", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=7),
        BanScenarioConfig(mac="dynamic", app="eeg_streaming",
                          num_nodes=2, measure_s=2.0, seed=11),
        BanScenarioConfig(mac="static", app="rpeak", num_nodes=2,
                          measure_s=2.0, seed=13,
                          clock_skew_ppm=40.0),
        BanScenarioConfig(mac="csma", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=17,
                          sampling_hz=205.0),
    ]


def result_fingerprint(result: Any) -> str:
    """SHA-256 of the canonical (bit-exact) result encoding."""
    text = config_fingerprint(result)
    return hashlib.sha256(text.encode()).hexdigest()


def traced_run(config: BanScenarioConfig, spans: bool = False
               ) -> Tuple[str, str, str]:
    """Run once with tracing; return (result_fp, trace_fp, span_fp).

    ``span_fp`` is the span-store fingerprint when ``spans`` is set
    and ``""`` otherwise.
    """
    trace = TraceRecorder()
    scenario = BanScenario(config, trace=trace)
    tracer = attach_span_tracer(scenario) if spans else None
    result = scenario.run()
    digest = hashlib.sha256()
    for record in trace:
        digest.update(
            f"{record.time}|{record.source}|{record.kind}|"
            f"{record.detail}\n".encode())
    span_fp = tracer.store.fingerprint() if tracer is not None else ""
    return result_fingerprint(result), digest.hexdigest(), span_fp


def check_repeat_run(report: Dict[str, Any]) -> List[str]:
    """Check 1: same config, same process, twice — identical.

    Every reference config is exercised, so each MAC family (including
    the contention ones, whose backoff/jitter draws are the likeliest
    determinism hazard) proves repeatability separately.
    """
    failures = []
    entries = []
    for index, config in enumerate(reference_configs()):
        first = traced_run(config)
        second = traced_run(config)
        entries.append({
            "mac": config.mac,
            "result_fingerprints": [first[0], second[0]],
            "trace_fingerprints": [first[1], second[1]],
        })
        if first[0] != second[0]:
            failures.append(
                f"repeat-run energy results diverge "
                f"(config {index}, mac={config.mac})")
        if first[1] != second[1]:
            failures.append(
                f"repeat-run event traces diverge "
                f"(config {index}, mac={config.mac})")
    report["repeat_run"] = {"configs": entries}
    return failures


def check_jobs_equivalence(jobs: int, report: Dict[str, Any]
                           ) -> List[str]:
    """Checks 2+3: pooled results and merged counters == sequential."""
    failures = []
    configs = reference_configs()

    sequential_metrics = MetricsRegistry()
    sequential = ScenarioExecutor(
        jobs=1, metrics=sequential_metrics).run_configs(configs)
    pooled_metrics = MetricsRegistry()
    pooled = ScenarioExecutor(
        jobs=jobs, metrics=pooled_metrics).run_configs(configs)

    sequential_fps = [result_fingerprint(r) for r in sequential]
    pooled_fps = [result_fingerprint(r) for r in pooled]
    report["jobs_equivalence"] = {
        "jobs": jobs,
        "sequential": sequential_fps,
        "pooled": pooled_fps,
    }
    for index, (left, right) in enumerate(zip(sequential_fps,
                                              pooled_fps)):
        if left != right:
            failures.append(
                f"config {index}: jobs=1 and jobs={jobs} results "
                "diverge")

    # Sim-time telemetry must merge to equality; wall-clock figures
    # (histograms, gauges) legitimately differ run to run.
    deterministic_keys = ("counters", "state_timers")
    sequential_snapshot = sequential_metrics.snapshot()
    pooled_snapshot = pooled_metrics.snapshot()
    counters = {}
    for key in deterministic_keys:
        left, right = sequential_snapshot[key], pooled_snapshot[key]
        counters[key] = {"equal": left == right}
        if left != right:
            diff = {name for name in set(left) | set(right)
                    if left.get(name) != right.get(name)}
            counters[key]["diverging"] = sorted(diff)[:20]
            failures.append(
                f"merged {key} diverge between jobs=1 and "
                f"jobs={jobs}: {sorted(diff)[:5]}")
    report["merged_telemetry"] = counters
    return failures


def check_spans(jobs: int, report: Dict[str, Any]) -> List[str]:
    """Check 4: spans neither perturb nor vary (repeat + jobs merge).

    The perturbation check runs per reference config: the span hooks
    sit on different code paths per MAC family (TDMA slot machinery vs
    contention backoff/CCA phases), so one family passing proves
    nothing about the others.
    """
    failures = []
    configs = reference_configs()
    entries = []
    for index, config in enumerate(configs):
        base = traced_run(config)
        first = traced_run(config, spans=True)
        second = traced_run(config, spans=True)
        entries.append({
            "mac": config.mac,
            "result_fingerprints": [base[0], first[0], second[0]],
            "trace_fingerprints": [base[1], first[1], second[1]],
            "span_fingerprints": [first[2], second[2]],
        })
        where = f"(config {index}, mac={config.mac})"
        if (base[0], base[1]) != (first[0], first[1]):
            failures.append(
                "attaching spans perturbs the run (result or trace "
                f"fingerprint changed) {where}")
        if first[:2] != second[:2]:
            failures.append(f"spans-enabled repeat runs diverge {where}")
        if first[2] != second[2]:
            failures.append(f"repeat-run span sets diverge {where}")
    report["spans"] = {"configs": entries}
    merged: Dict[int, str] = {}
    for worker_count in (1, jobs):
        store = SpanStore()
        ScenarioExecutor(jobs=worker_count,
                         spans=store).run_configs(configs)
        merged[worker_count] = store.fingerprint()
    report["spans"]["jobs_span_fingerprints"] = {
        str(worker_count): fingerprint
        for worker_count, fingerprint in sorted(merged.items())}
    if merged[1] != merged[jobs]:
        failures.append(
            f"merged span sets diverge between jobs=1 and jobs={jobs}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end determinism smoke "
                    "(static rules' dynamic counterpart).")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the pooled runs "
                             "(default: 2)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write fingerprint report JSON to PATH")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {"tool": "determinism_check",
                              "checks": {}}
    failures = []
    failures += check_repeat_run(report["checks"])
    failures += check_jobs_equivalence(args.jobs, report["checks"])
    failures += check_spans(args.jobs, report["checks"])
    report["ok"] = not failures
    report["failures"] = failures

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failures:
        for failure in failures:
            print(f"DETERMINISM BROKEN: {failure}", file=sys.stderr)
        return 1
    print("determinism ok: repeat-run, jobs equivalence, merged "
          "telemetry and causal spans all bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
