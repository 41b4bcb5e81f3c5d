"""The benchmark's workloads: inputs from a seed, one run, output check.

Each workload is one closed-loop caller: the harness starts the next run
only when the previous one has returned.  A run calls the program's
public API with configs generated here from the workload seed, and
returns every per-BAN result it produced, in order, for the check
against the values recorded in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import reproduce_all_tables
from repro.analysis.sensitivity import tornado
from repro.analysis.validation import validate_all
from repro.core.report import NetworkEnergyResult
from repro.exec import ScenarioExecutor
from repro.exec.cache import ResultCache, code_salt, config_fingerprint
from repro.net.multi import MultiBanScenario
from repro.net.scenario import BanScenario, BanScenarioConfig

from layers import drain_counters, run_and_count

#: Seeds map onto this many recorded input sets (``seed % VARIANTS``).
VARIANTS = 16

#: Simulated measurement window per scenario [s], per workload.
WINDOW_S = {"paper_tables": 4.0, "ward_interference": 6.0,
            "tornado_cached": 2.0}

#: Worker processes per workload (untraced runs).  Traced runs use one,
#: so that every span is recorded in the benchmark process.
JOBS = {"paper_tables": 1, "ward_interference": 1, "tornado_cached": 2}

#: Relative tolerance of the energy check.
ENERGY_RTOL = 1e-9

#: Ward: the four static-TDMA cycles before the seed's jitter [ms].
WARD_BASE_CYCLES_MS = (30, 40, 50, 60)

#: Tornado: the quantities analysed, one pass each, in order.
TORNADO_QUANTITIES = ("radio", "mcu", "total")


@dataclass
class Outcome:
    """What one run returned.

    ``configs`` are the configs behind ``results`` when the run went
    through the result cache (a repeated config is a cache hit);
    ``extra`` holds scalar outputs checked like energies (the paper
    errors); ``counts`` the exact work counters of the run.
    """

    results: List[NetworkEnergyResult]
    configs: Optional[List[Any]] = None
    extra: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


class RecordingExecutor(ScenarioExecutor):
    """A :class:`ScenarioExecutor` that keeps what it returned.

    Each item also ships back the counters of the scenarios it built,
    from the pool workers included.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.configs: List[Any] = []
        self.results: List[Any] = []
        self.counts: Dict[str, float] = {}

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> List[Any]:
        packed = super().map(functools.partial(run_and_count, fn), items)
        for _, counts in packed:
            for name, value in counts.items():
                self.counts[name] = self.counts.get(name, 0) + value
        return [result for result, _ in packed]

    def run_configs(self, configs: Sequence[Any]) -> List[Any]:
        configs = list(configs)
        results = super().run_configs(configs)
        self.configs.extend(configs)
        self.results.extend(results)
        return results


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------

def _paper_inputs(rng: random.Random) -> Dict[str, Any]:
    return {"seed": rng.randrange(2 ** 31)}


def _paper_run(inputs: Dict[str, Any], jobs: int, scratch: str) -> Outcome:
    executor = RecordingExecutor(jobs=jobs)
    tables = reproduce_all_tables(measure_s=WINDOW_S["paper_tables"],
                                  seed=inputs["seed"], executor=executor)
    overall = validate_all(tables)
    return Outcome(
        results=executor.results,
        extra={"err_vs_real_pct": 100.0 * overall.overall_vs_real,
               "err_vs_paper_sim_pct": 100.0 * overall.overall_vs_paper_sim},
        counts=executor.counts)


# ---------------------------------------------------------------------------
# ward_interference
# ---------------------------------------------------------------------------

def _ward_inputs(rng: random.Random) -> Dict[str, Any]:
    window = WINDOW_S["ward_interference"]
    cycles = [base + rng.randint(0, 2) for base in WARD_BASE_CYCLES_MS]
    rng.shuffle(cycles)
    bans = [BanScenarioConfig(mac="static", app="ecg_streaming", num_nodes=5,
                              cycle_ms=float(cycle), measure_s=window,
                              seed=rng.randrange(2 ** 31))
            for cycle in cycles]
    contention = [BanScenarioConfig(mac=mac, app="ecg_streaming",
                                    num_nodes=8, measure_s=window,
                                    seed=rng.randrange(2 ** 31))
                  for mac in ("aloha", "csma")]
    return {"bans": bans, "stagger_ms": round(rng.uniform(3.0, 9.0), 1),
            "ward_seed": rng.randrange(2 ** 31), "contention": contention}


def _ward_run(inputs: Dict[str, Any], jobs: int, scratch: str) -> Outcome:
    ward = MultiBanScenario(inputs["bans"], stagger_ms=inputs["stagger_ms"],
                            seed=inputs["ward_seed"])
    by_ban = ward.run()
    results = [by_ban[name] for name in sorted(by_ban)]
    results.extend(BanScenario(config).run()
                   for config in inputs["contention"])
    return Outcome(results=results, counts=drain_counters())


# ---------------------------------------------------------------------------
# tornado_cached
# ---------------------------------------------------------------------------

def _tornado_inputs(rng: random.Random) -> Dict[str, Any]:
    window = WINDOW_S["tornado_cached"]
    return {"bases": [
        BanScenarioConfig(mac="static", app="ecg_streaming", num_nodes=5,
                          cycle_ms=30.0, sampling_hz=205.0,
                          measure_s=window, seed=rng.randrange(2 ** 31)),
        BanScenarioConfig(mac="dynamic", app="rpeak", num_nodes=5,
                          slot_ms=10.0, heart_rate_bpm=75.0,
                          measure_s=window, seed=rng.randrange(2 ** 31)),
    ]}


def _tornado_run(inputs: Dict[str, Any], jobs: int,
                 scratch: str) -> Outcome:
    executor = RecordingExecutor(jobs=jobs, cache=ResultCache(scratch))
    for quantity in TORNADO_QUANTITIES:
        for base in inputs["bases"]:
            tornado(base, quantity=quantity, method="simulate",
                    executor=executor)
    stats = executor.cache.stats  # type: ignore[union-attr]
    counts = dict(executor.counts)
    counts["exec.cache_hits"] = stats.hits
    counts["exec.cache_misses"] = stats.misses
    return Outcome(results=executor.results, configs=executor.configs,
                   counts=counts)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Driver = Callable[[Dict[str, Any], int, str], Outcome]

#: name -> (input generator, driver, uses the result cache).
WORKLOADS: Dict[str, Tuple[Callable[[random.Random], Dict[str, Any]],
                           Driver, bool]] = {
    "paper_tables": (_paper_inputs, _paper_run, False),
    "ward_interference": (_ward_inputs, _ward_run, False),
    "tornado_cached": (_tornado_inputs, _tornado_run, True),
}


def variant_of(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    return seed % VARIANTS


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Inputs of ``workload`` for ``seed``; the same seed, the same inputs.

    For a workload that uses the result cache this also computes the
    cache's code salt, which the program pays once per process.
    """
    generate, _, cached = WORKLOADS[workload]
    inputs = generate(random.Random(f"{workload}/{variant_of(seed)}"))
    if cached:
        code_salt()
    return inputs


def run_once(workload: str, inputs: Dict[str, Any], jobs: int,
             scratch: str) -> Outcome:
    """One run of ``workload``; ``scratch`` is an empty directory."""
    return WORKLOADS[workload][1](inputs, jobs, scratch)


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

Encoded = List[List[Any]]


def encode(result: NetworkEnergyResult) -> Encoded:
    """Per node: id, radio mJ, MCU mJ and the integer traffic counters."""
    nodes = list(result.nodes.values())
    if result.base_station is not None:
        nodes.append(result.base_station)
    return [[node.node_id, node.radio_mj, node.mcu_mj,
             list(dataclasses.astuple(node.traffic))] for node in nodes]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ENERGY_RTOL * max(abs(want), 1e-300)


def _matches(got: Encoded, want: Encoded) -> bool:
    if len(got) != len(want):
        return False
    for (gid, gradio, gmcu, gtraffic), (wid, wradio, wmcu, wtraffic) \
            in zip(got, want):
        if (gid != wid or gtraffic != wtraffic or not _close(gradio, wradio)
                or not _close(gmcu, wmcu)):
            return False
    return True


def failed_scenarios(outcome: Outcome, expected: Dict[str, Any]) -> int:
    """Number of results of one run that fail the output check.

    ``expected`` is the recorded entry of this workload and input set.
    A result fails when its energies or traffic counters differ from the
    recorded ones, or, for a cache hit, when it differs from the fresh
    result of the same config.  A wrong paper error fails the whole run.
    """
    want = expected["results"]
    if len(outcome.results) != len(want):
        return len(want)
    for name, value in expected.get("extra", {}).items():
        if name not in outcome.extra or not _close(outcome.extra[name],
                                                   value):
            return len(want)
    keys: List[Optional[str]] = [None] * len(want)
    if outcome.configs is not None:
        keys = [config_fingerprint(config) for config in outcome.configs]
    failed = 0
    fresh: Dict[str, NetworkEnergyResult] = {}
    for result, key, recorded in zip(outcome.results, keys, want):
        ok = (isinstance(result, NetworkEnergyResult)
              and _matches(encode(result), recorded))
        if key is not None:
            if key in fresh:
                ok = ok and result == fresh[key]
            else:
                fresh[key] = result
        failed += not ok
    return failed

