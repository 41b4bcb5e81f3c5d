"""Outside-in layer tracing and exact work counters for the benchmark.

Nothing here edits ``src/``.  Tracing replaces public methods of the
model's classes, in this process only, with wrappers that time each call
and keep per-span totals in memory.  Self time is computed with a span
stack: a wrapper's elapsed time minus the time of the wrapped calls it
made.  Counters are read after a run through the classes' public
accessors, from every scenario object built during the run.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (span, module, class, public methods).  Overrides of the methods in
#: subclasses defined inside ``repro`` are wrapped too.  ``sim.run_until``
#: also absorbs the glue the kernel reaches only through private
#: callbacks (TinyOS dispatch, timer fire, MAC slot handlers).
SPAN_TABLE: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("exec.run_configs", "repro.exec.executor", "ScenarioExecutor",
     ("run_configs",)),
    ("exec.cache_get", "repro.exec.cache", "ResultCache", ("get",)),
    ("exec.cache_put", "repro.exec.cache", "ResultCache", ("put",)),
    ("net.build", "repro.net.scenario", "BanScenario", ("__init__",)),
    ("net.build", "repro.net.multi", "MultiBanScenario", ("__init__",)),
    ("sim.run_until", "repro.sim.kernel", "Simulator", ("run_until",)),
    ("sim.schedule", "repro.sim.kernel", "Simulator",
     ("at", "after", "every", "call_soon")),
    ("tinyos.post", "repro.tinyos.scheduler", "TaskScheduler",
     ("post", "post_cost_only")),
    ("core.ledger", "repro.core.ledger", "PowerStateLedger",
     ("transition", "retag")),
    ("hw.mcu", "repro.hw.mcu", "Msp430",
     ("wake", "sleep", "begin_task", "account_cycles")),
    ("hw.radio", "repro.hw.radio", "Nrf2401",
     ("send", "start_rx", "stop_rx", "cca", "frame_arrival_start",
      "frame_arrival_end", "power_up", "power_down")),
    ("phy.channel", "repro.phy.channel", "Channel",
     ("begin_transmission", "end_transmission", "is_busy_at")),
    ("hw.asic", "repro.hw.asic", "BiopotentialAsic", ("read_channel",)),
    ("hw.adc", "repro.hw.adc", "Adc12", ("convert",)),
    ("apps.samples", "repro.apps.base", "SamplingApplication",
     ("handle_samples", "next_payload")),
)

#: Modules whose classes are signal sources (``value_at``).
SIGNAL_MODULES = ("repro.signals.sources", "repro.signals.ecg",
                  "repro.signals.eeg", "repro.signals.arrhythmia")

#: Every span, in report order.  ``analysis.batch`` is the workload
#: driver, opened by the benchmark itself around one run.
SPANS: Tuple[str, ...] = ("analysis.batch",) + tuple(
    dict.fromkeys(row[0] for row in SPAN_TABLE)) + ("signals.value_at",)

#: Exact counters, in report order (``mac.delivery_ratio`` is derived).
COUNTERS: Tuple[str, ...] = (
    "sim.events", "tinyos.tasks_run", "phy.frames_sent", "phy.collisions",
    "phy.rx_delivered", "phy.rx_corrupted", "phy.rx_overheard",
    "mac.data_sent", "mac.bs_received", "hw.adc.conversions")


class Tracer:
    """In-memory span totals: ``stats[span] == [calls, self_s]``."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.stats: Dict[str, List[float]] = {name: [0, 0.0]
                                              for name in SPANS}

    def reset(self) -> None:
        """Zero every total in place (wrappers hold the lists)."""
        for totals in self.stats.values():
            totals[0] = 0
            totals[1] = 0.0

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``span -> (calls, self seconds)`` since the last reset."""
        return {name: (int(calls), self_s)
                for name, (calls, self_s) in self.stats.items()}

    def wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as one call of ``span``."""
        totals = self.stats[span]
        stack = self.stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                totals[0] += 1
                totals[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
        return traced

    def install(self) -> None:
        """Wrap every public method named in the span tables."""
        importlib.import_module("repro.apps")  # defines every app class
        for span, module, name, methods in SPAN_TABLE:
            cls = getattr(importlib.import_module(module), name)
            for owner in _repro_family(cls):
                for method in methods:
                    if method in vars(owner):
                        setattr(owner, method,
                                self.wrap(span, vars(owner)[method]))
        for module in SIGNAL_MODULES:
            for owner in vars(importlib.import_module(module)).values():
                if (isinstance(owner, type)
                        and owner.__module__ == module
                        and "value_at" in vars(owner)
                        and not getattr(owner, "_is_protocol", False)):
                    owner.value_at = self.wrap(  # type: ignore[attr-defined]
                        "signals.value_at", vars(owner)["value_at"])


def _repro_family(cls: type) -> Iterable[type]:
    """``cls`` and its subclasses defined inside the ``repro`` package."""
    seen = [cls]
    for owner in seen:
        seen.extend(sub for sub in owner.__subclasses__()
                    if sub.__module__.startswith("repro.")
                    and sub not in seen)
    return seen


# ---------------------------------------------------------------------------
# Scenario registry and counters
# ---------------------------------------------------------------------------

#: Scenarios built since the last :func:`drain_counters` in this process
#: (pool workers fill their own copy and ship counters back).
_BUILT: List[Any] = []


def register_scenarios() -> None:
    """Record every ``BanScenario`` built, so counters can be read.

    Installed before any tracing wrapper, in traced and untraced runs
    alike; it adds one list append per scenario built.
    """
    from repro.net.scenario import BanScenario
    init = BanScenario.__init__

    @functools.wraps(init)
    def registering(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        _BUILT.append(self)
    BanScenario.__init__ = registering  # type: ignore[method-assign]


def drain_counters() -> Dict[str, float]:
    """Counters of the scenarios built since the last drain.

    BANs sharing one simulator and channel (a multi-BAN ward) count
    those once.  ``sim.seconds`` is the final simulated clock, warm-up
    included.  Radio outcomes and MAC traffic cover the measurement
    window; kernel, channel, scheduler and ADC counts cover the whole
    run.
    """
    from repro.sim.simtime import to_seconds
    counts: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
    counts["sim.seconds"] = 0.0
    sims: Dict[int, Any] = {}
    channels: Dict[int, Any] = {}
    for scenario in _BUILT:
        sims[id(scenario.sim)] = scenario.sim
        channels[id(scenario.channel)] = scenario.channel
        base = scenario.base_station
        counts["mac.bs_received"] += base.frames_received
        radios = [base.radio]
        schedulers = [base.scheduler]
        for node in scenario.nodes:
            radios.append(node.radio)
            schedulers.append(node.scheduler)
            counts["hw.adc.conversions"] += node.adc.conversions
            counts["mac.data_sent"] += node.radio.snapshot_counters().data_tx
        for radio in radios:
            traffic = radio.snapshot_counters()
            counts["phy.rx_delivered"] += traffic.data_rx + traffic.control_rx
            counts["phy.rx_corrupted"] += traffic.corrupted
            counts["phy.rx_overheard"] += traffic.overheard
        counts["tinyos.tasks_run"] += sum(s.tasks_run for s in schedulers)
    for sim in sims.values():
        counts["sim.events"] += sim.events_dispatched
        counts["sim.seconds"] += to_seconds(sim.now)
    for channel in channels.values():
        counts["phy.frames_sent"] += channel.frames_sent
        counts["phy.collisions"] += channel.collisions_detected
    _BUILT.clear()
    return counts


def run_and_count(fn: Callable[[Any], Any],
                  item: Any) -> Tuple[Any, Dict[str, float]]:
    """Run one executor item and ship its counters with the result."""
    _BUILT.clear()
    result = fn(item)
    return result, drain_counters()
