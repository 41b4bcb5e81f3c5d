"""Stop-path regression tests: no resource outlives its owner.

A leak never crashes — it silently corrupts the energy integral: a MAC
that leaves its radio in stand-by after stopping books 0.9 mA against a
dead node forever.  Every MAC family (static TDMA, dynamic TDMA, ALOHA
and CSMA, node side and base-station side) is pinned here: stop powers
the radio down, a stop landing mid-ShockBurst defers to the TX
completion instead of raising ``RadioError``, a stopped MAC accrues no
further radio energy, and the base station's own activity (beacons, or
a collector's receive chain) dies with it.  The periodic snapshotter
and the CLI's observability unwind are pinned the same way.
"""

import argparse
import json

import pytest

from repro.cli import _Observability
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401
from repro.mac.aloha import AlohaBaseMac, AlohaConfig, AlohaNodeMac
from repro.mac.csma import CsmaBaseMac, CsmaConfig, CsmaNodeMac
from repro.mac.tdma_dynamic import (DynamicTdmaBaseMac, DynamicTdmaConfig,
                                    DynamicTdmaNodeMac)
from repro.mac.tdma_static import (StaticTdmaBaseMac, StaticTdmaConfig,
                                   StaticTdmaNodeMac)
from repro.obs.instrument import (PeriodicSnapshotter,
                                  attach_periodic_snapshots)
from repro.obs.metrics import MetricsRegistry
from repro.phy.channel import Channel
from repro.sim.simtime import microseconds, milliseconds, seconds
from repro.tinyos.scheduler import TaskScheduler

CAL = DEFAULT_CALIBRATION

#: ``family -> (base class, node class, config factory)``.
FAMILIES = {
    "static": (StaticTdmaBaseMac, StaticTdmaNodeMac,
               lambda: StaticTdmaConfig(cycle_ticks=milliseconds(30.0),
                                        num_slots=1)),
    "dynamic": (DynamicTdmaBaseMac, DynamicTdmaNodeMac,
                lambda: DynamicTdmaConfig(initial_assigned=1)),
    "aloha": (AlohaBaseMac, AlohaNodeMac,
              lambda: AlohaConfig(poll_interval_ticks=milliseconds(30.0))),
    "csma": (CsmaBaseMac, CsmaNodeMac,
             lambda: CsmaConfig(poll_interval_ticks=milliseconds(30.0))),
}
TDMA = ("static", "dynamic")

#: Every MAC class, as ``(family, role)``.
ALL_MACS = [(family, role) for family in FAMILIES
            for role in ("node", "base")]
#: The MAC classes that ever transmit (collectors only listen).
TRANSMITTING_MACS = [(family, role) for family, role in ALL_MACS
                     if role == "node" or family in TDMA]


def _ids(macs):
    return [f"{family}-{role}" for family, role in macs]


def _network(sim, family):
    """A hand-built base station plus one node of ``family``.

    Returns ``{"base": (mac, radio), "node": (mac, radio)}``.
    """
    base_cls, node_cls, make_config = FAMILIES[family]
    config = make_config()
    channel = Channel(sim)
    bs_radio = Nrf2401(sim, CAL, channel, "base_station",
                       name="bs.radio")
    bs_mac = base_cls(sim, bs_radio,
                      TaskScheduler(sim, Msp430(sim, CAL)), CAL, config)
    radio = Nrf2401(sim, CAL, channel, "node1", name="node1.radio")
    scheduler = TaskScheduler(sim, Msp430(sim, CAL))
    if family in TDMA:
        mac = node_cls(sim, radio, scheduler, CAL, config,
                       preassigned_slot=1)
        bs_mac.schedule.assign(1, "node1")
    else:
        mac = node_cls(sim, radio, scheduler, CAL, config)
    mac.payload_provider = lambda: (18, {"d": 1})
    return {"base": (bs_mac, bs_radio), "node": (mac, radio)}


def _started(sim, family):
    network = _network(sim, family)
    network["base"][0].start()
    network["node"][0].start()
    return network


def _run_until_transmitting(sim, radio, deadline_ticks,
                            step=microseconds(20.0)):
    """Advance in small steps until ``radio`` is mid-ShockBurst."""
    while sim.now < deadline_ticks:
        sim.run_until(sim.now + step)
        if radio.is_transmitting:
            return True
    return False


def _powered_ticks(radio):
    """Ticks the radio has spent in any state but power-down."""
    ledger = radio.ledger
    return ledger.ticks_in() - ledger.ticks_in("power_down")


@pytest.mark.parametrize("family, role", ALL_MACS, ids=_ids(ALL_MACS))
class TestMacStopReleasesRadio:
    def test_stop_powers_radio_down(self, sim, family, role):
        mac, radio = _started(sim, family)[role]
        sim.run_until(seconds(0.5))
        assert radio.state != "power_down"
        if radio.is_transmitting:
            sim.run_until(sim.now + milliseconds(5.0))
        mac.stop()
        assert radio.state == "power_down"

    def test_no_energy_accrues_after_stop(self, sim, family, role):
        network = _started(sim, family)
        sim.run_until(seconds(0.5))
        network["node"][0].stop()
        network["base"][0].stop()
        sim.run_until(sim.now + milliseconds(5.0))  # deferred stops
        radio = network[role][1]
        settled = radio.energy_mj()
        powered = _powered_ticks(radio)
        sim.run_until(seconds(10.0))
        assert radio.energy_mj() == pytest.approx(settled)
        # Calibration-independent form (the nRF2401's stand-by current
        # is zero in the paper's table): no time outside power-down.
        assert _powered_ticks(radio) == powered


@pytest.mark.parametrize("family, role", TRANSMITTING_MACS,
                         ids=_ids(TRANSMITTING_MACS))
def test_stop_mid_tx_defers_to_completion(sim, family, role):
    mac, radio = _started(sim, family)[role]
    assert _run_until_transmitting(sim, radio, seconds(2.0)), \
        f"{family} {role} never transmitted"
    mac.stop()  # must not raise RadioError mid-ShockBurst
    assert radio.is_transmitting  # the burst finishes first
    sim.run_until(sim.now + milliseconds(5.0))
    # The completion callback powers down instead of re-entering the
    # listen phase.
    assert radio.state == "power_down"
    assert not radio.is_receiving


@pytest.mark.parametrize("family", list(FAMILIES))
def test_base_station_activity_dies_with_the_base(sim, family):
    """Beacons (TDMA) or frame reception (collectors) stop with the
    base station, and its radio stays down."""
    bs_mac, bs_radio = _started(sim, family)["base"]
    sim.run_until(seconds(0.5))
    counters = bs_mac.counters
    activity = (counters.beacons_sent if family in TDMA
                else counters.data_received)
    assert activity > 0
    if bs_radio.is_transmitting:
        sim.run_until(sim.now + milliseconds(5.0))
    bs_mac.stop()
    sim.run_until(seconds(2.0))
    assert bs_radio.state == "power_down"
    assert (counters.beacons_sent if family in TDMA
            else counters.data_received) == activity


class TestNodeMacReleasesRadio:
    """The original static-TDMA node regressions (single family)."""

    def test_stop_powers_radio_down(self, sim):
        mac, radio = _started(sim, "static")["node"]
        sim.run_until(seconds(0.5))
        assert radio.state != "power_down"
        mac.stop()
        assert radio.state == "power_down"

    def test_stop_mid_tx_defers_to_completion(self, sim):
        mac, radio = _started(sim, "static")["node"]
        assert _run_until_transmitting(sim, radio, seconds(2.0)), \
            "node never transmitted"
        mac.stop()  # must not raise RadioError mid-ShockBurst
        assert radio.is_transmitting  # the burst finishes first
        sim.run_until(sim.now + milliseconds(5.0))
        assert radio.state == "power_down"

    def test_stopped_node_accrues_no_standby_energy(self, sim):
        network = _started(sim, "static")
        mac, radio = network["node"]
        sim.run_until(seconds(0.5))
        mac.stop()
        network["base"][0].stop()
        settled = radio.energy_mj()
        sim.run_until(seconds(10.0))
        assert radio.energy_mj() == pytest.approx(settled)


class TestBaseStationMacReleasesRadio:
    """The original static-TDMA base-station regressions."""

    def test_stop_powers_radio_down_and_kills_beacons(self, sim):
        bs_mac, bs_radio = _network(sim, "static")["base"]
        bs_mac.start()
        sim.run_until(seconds(0.5))
        sent = bs_mac.counters.beacons_sent
        assert sent > 0
        bs_mac.stop()
        sim.run_until(seconds(2.0))
        assert bs_radio.state == "power_down"
        assert bs_mac.counters.beacons_sent == sent

    def test_stop_mid_beacon_defers_and_skips_rx(self, sim):
        bs_mac, bs_radio = _network(sim, "static")["base"]
        bs_mac.start()
        assert _run_until_transmitting(sim, bs_radio, seconds(1.0)), \
            "base station never transmitted a beacon"
        bs_mac.stop()
        assert bs_radio.is_transmitting
        sim.run_until(sim.now + milliseconds(5.0))
        # The completion callback must power down instead of
        # re-entering the listen phase.
        assert bs_radio.state == "power_down"
        assert not bs_radio.is_receiving


class TestAlohaMacsReleaseRadio:
    """The original ALOHA regressions: collector and node."""

    def test_collector_stop_powers_down(self, sim):
        bs_mac, bs_radio = _started(sim, "aloha")["base"]
        sim.run_until(seconds(0.5))
        assert bs_radio.is_receiving
        bs_mac.stop()
        assert bs_radio.state == "power_down"

    def test_node_stop_powers_down(self, sim):
        mac, radio = _started(sim, "aloha")["node"]
        sim.run_until(seconds(0.5))
        mac.stop()
        sim.run_until(seconds(1.0))
        assert radio.state == "power_down"


class TestSnapshotterStop:
    def test_stop_disarms_future_fires(self, sim):
        registry = MetricsRegistry()
        snap = attach_periodic_snapshots(sim, registry, period_s=0.1)
        sim.run_until(seconds(1.05))
        taken = snap.samples
        assert taken >= 10
        snap.stop()
        sim.run_until(seconds(5.0))
        assert snap.samples == taken

    def test_stop_before_any_fire(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        sim.run_until(seconds(2.0))
        assert snap.samples == 0

    def test_stop_is_idempotent_and_rearmable(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        snap.stop()  # no-op, not an error
        snap.start()  # a stopped snapshotter may be re-armed
        sim.run_until(seconds(0.55))
        assert snap.samples == 5


class TestObservabilityUnwind:
    def _obs(self, trace_path):
        args = argparse.Namespace(metrics=None, trace_jsonl=trace_path,
                                  metrics_period=5.0, profile=False,
                                  spans=None, spans_perfetto=None,
                                  command="run")
        return _Observability(args)

    def test_close_flushes_sink_without_finish(self, tmp_path):
        """The unwind backstop: an aborted command still gets its
        trace records on disk."""
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        recorder = obs.make_trace()
        recorder.record(0, "node1", "boot", "")
        recorder.record(10, "node1", "tx", "frame=1")
        obs.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "tx"

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        obs.make_trace().record(0, "node1", "boot", "")
        obs.close()
        obs.close()
        assert len(path.read_text(encoding="utf-8")
                   .splitlines()) == 1

    def test_close_without_sink_is_noop(self, tmp_path):
        obs = self._obs(None)
        obs.close()  # no trace requested: nothing to flush
