"""Tests for node/base-station assembly and the scenario runner."""

import dataclasses

import pytest

from conftest import quick_config, run_quick
from repro.mac.sync import DriftTrackingLead
from repro.net.scenario import BanScenario, BanScenarioConfig, run_scenario
from repro.phy.topology import ExplicitLinks


class TestConfigValidation:
    def test_bad_mac(self):
        with pytest.raises(ValueError):
            BanScenarioConfig(mac="tokenring")

    def test_bad_app(self):
        with pytest.raises(ValueError):
            BanScenarioConfig(app="video")

    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            BanScenarioConfig(num_nodes=0)

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            BanScenarioConfig(measure_s=0.0)

    def test_cycle_ticks_static(self):
        config = BanScenarioConfig(mac="static", cycle_ms=30.0)
        assert config.cycle_ticks == 30_000_000

    def test_cycle_ticks_dynamic(self):
        config = BanScenarioConfig(mac="dynamic", num_nodes=3,
                                   slot_ms=10.0)
        assert config.cycle_ticks == 40_000_000

    def test_derived_sampling_rpeak(self):
        assert BanScenarioConfig(app="rpeak").derived_sampling_hz() \
            == 200.0

    def test_derived_sampling_streaming(self):
        config = BanScenarioConfig(mac="static", app="ecg_streaming",
                                   cycle_ms=30.0)
        assert config.derived_sampling_hz() == pytest.approx(200.0)


class TestAssembly:
    def test_node_ids_and_slots(self):
        scenario = BanScenario(quick_config(num_nodes=3))
        assert [n.node_id for n in scenario.nodes] \
            == ["node1", "node2", "node3"]
        assert [n.mac.slot for n in scenario.nodes] == [1, 2, 3]

    def test_ecg_sources_attached(self):
        scenario = BanScenario(quick_config(num_nodes=2))
        assert set(scenario.ecg_sources) == {"node1", "node2"}
        # Channels 0 and 1 are connected to scaled copies.
        node = scenario.nodes[0]
        assert node.asic.read_channel(0) != 0.0 or \
            node.asic.read_channel(1) != 0.0

    def test_install_order_enforced(self, sim, cal, channel):
        from repro.net.node import SensorNode
        from repro.tinyos.components import Component
        node = SensorNode(sim, channel, cal, "n1")
        with pytest.raises(RuntimeError):
            node.install_app(Component(sim, "app"))

    def test_double_mac_install_rejected(self, sim, cal, channel):
        from repro.net.node import SensorNode
        from repro.tinyos.components import Component
        node = SensorNode(sim, channel, cal, "n1")
        node.install_mac(Component(sim, "mac"))
        with pytest.raises(RuntimeError):
            node.install_mac(Component(sim, "mac2"))


class TestRunSemantics:
    def test_result_covers_exact_horizon(self):
        _, result = run_quick(measure_s=2.0)
        assert result.horizon_s == 2.0
        for node in result.nodes.values():
            total_time = sum(node.mcu_by_state_mj.values())
            assert total_time > 0

    def test_energy_scales_linearly_with_horizon(self):
        _, short = run_quick(measure_s=2.0)
        _, long = run_quick(measure_s=4.0)
        ratio = long.node("node1").radio_mj / short.node("node1").radio_mj
        assert ratio == pytest.approx(2.0, rel=0.02)

    def test_deterministic_across_runs(self):
        _, a = run_quick(measure_s=2.0, seed=5)
        _, b = run_quick(measure_s=2.0, seed=5)
        assert a.node("node1").radio_mj == b.node("node1").radio_mj
        assert a.node("node1").mcu_mj == b.node("node1").mcu_mj

    def test_nodes_statistically_identical(self):
        _, result = run_quick(num_nodes=5, measure_s=3.0)
        radios = [result.node(f"node{i}").radio_mj for i in range(1, 6)]
        assert max(radios) - min(radios) < 0.02 * max(radios)

    def test_base_station_reported(self):
        _, result = run_quick(measure_s=2.0)
        assert result.base_station is not None
        # The BS receiver is on nearly all the time: its radio energy
        # dwarfs a node's.
        assert result.base_station.radio_mj \
            > 5 * result.node("node1").radio_mj

    def test_asic_energy_constant_power(self):
        _, result = run_quick(measure_s=2.0)
        assert result.node("node1").asic_mj == pytest.approx(21.0)

    def test_join_protocol_end_to_end(self):
        scenario, result = run_quick(join_protocol=True, num_nodes=3,
                                     measure_s=2.0)
        assert all(node.mac.is_synced for node in scenario.nodes)
        assert result.node("node1").traffic.data_tx > 0

    def test_join_protocol_dynamic(self):
        scenario, result = run_quick(mac="dynamic", join_protocol=True,
                                     num_nodes=3, measure_s=2.0)
        assert scenario.base_station.mac.current_cycle_ticks() \
            == 40_000_000

    def test_join_deadline_enforced(self):
        # An unreachable base station: nodes can never join.
        config = quick_config(join_protocol=True, num_nodes=1,
                              measure_s=1.0, join_deadline_s=2.0,
                              topology=ExplicitLinks([]))
        with pytest.raises(RuntimeError, match="failed to join"):
            BanScenario(config).run()

    def test_latest_rx_time_is_last_delivery(self):
        from repro.sim.simtime import seconds, to_seconds
        scenario, _ = run_quick(num_nodes=2, measure_s=1.0)
        for node in scenario.nodes:
            node.stack.stop_all()
        scenario.sim.run_until(scenario.sim.now + seconds(0.5))
        base = scenario.base_station
        last_arrival = base.deliveries[-1][0]
        assert to_seconds(scenario.sim.now) > last_arrival + 0.4
        assert base.latest_rx_time_s() == last_arrival
        assert base.frames_received == len(base.deliveries) \
            == sum(len(base.frames_from(n.node_id)) for n in scenario.nodes)

    def test_latest_rx_time_none_before_delivery(self):
        scenario = BanScenario(quick_config(num_nodes=1, measure_s=1.0))
        assert scenario.base_station.latest_rx_time_s() is None

    def test_run_scenario_convenience(self):
        result = run_scenario(mac="static", app="rpeak", num_nodes=2,
                              cycle_ms=60.0, measure_s=1.0)
        assert set(result.nodes) == {"node1", "node2"}


class TestModellingKnobs:
    def test_custom_sync_policy_changes_energy(self):
        tight = quick_config(
            sync_policy_factory=lambda cal: DriftTrackingLead(50.0))
        tight_result = BanScenario(tight).run()
        _, default_result = run_quick()
        assert tight_result.node("node1").radio_mj \
            < 0.5 * default_result.node("node1").radio_mj

    def test_clock_skew_still_synced(self):
        scenario, result = run_quick(clock_skew_ppm=50.0, measure_s=3.0)
        for node in scenario.nodes:
            assert node.mac.counters.beacons_missed == 0

    def test_trace_capacity(self):
        scenario, _ = run_quick(trace_capacity=1000, measure_s=1.0)
        assert scenario.trace is not None
        assert len(scenario.trace) <= 1000
        assert scenario.trace.total_recorded > 1000

    def test_calibration_override(self):
        config = quick_config()
        doubled = dataclasses.replace(config.calibration,
                                      radio_rx_a=2 * 24.82e-3)
        _, base = run_quick()
        hot = BanScenario(dataclasses.replace(
            config, calibration=doubled)).run()
        assert hot.node("node1").radio_mj \
            > 1.8 * base.node("node1").radio_mj
