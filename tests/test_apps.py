"""Unit/integration tests for the two case-study applications."""

import zlib

import pytest

from conftest import run_quick
from repro.apps.ecg_streaming import (
    codes_per_payload,
    pack_codes,
    unpack_codes,
)
from repro.net.scenario import NodeSpec


class TestPacking:
    def test_codes_per_payload(self):
        assert codes_per_payload(18) == 12  # the case-study packet
        assert codes_per_payload(3) == 2
        assert codes_per_payload(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            codes_per_payload(-1)

    def test_pack_even_count(self):
        packed = pack_codes([0x123, 0xABC])
        assert packed == bytes([0x23, 0xC1, 0xAB])

    def test_pack_odd_count(self):
        packed = pack_codes([0xFFF])
        assert packed == bytes([0xFF, 0x0F])

    def test_roundtrip(self):
        codes = [0, 1, 0xFFF, 0x800, 0x7FF, 123, 4095, 2048]
        assert unpack_codes(pack_codes(codes), len(codes)) == codes

    def test_roundtrip_odd(self):
        codes = [10, 20, 30]
        assert unpack_codes(pack_codes(codes), 3) == codes

    def test_twelve_codes_fit_18_bytes(self):
        codes = list(range(12))
        assert len(pack_codes(codes)) == 18


class TestStreamingApp:
    def test_fixed_payload_every_cycle(self):
        scenario, result = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                     measure_s=3.0)
        node = result.node("node1")
        # 3 s at 30 ms -> 100 cycles, one fixed-size packet each.
        assert node.traffic.data_tx == pytest.approx(100, abs=2)

    def test_samples_arrive_at_base_station(self):
        scenario, result = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                     measure_s=3.0)
        frames = scenario.base_station.frames_from("node1")
        assert frames
        for frame in frames[:10]:
            content = frame.payload
            assert content["kind"] == "ecg_stream"
            codes = content["codes"]
            assert len(codes) <= codes_per_payload(18)
            assert unpack_codes(content["packed"],
                                len(codes)) == list(codes)

    def test_sampling_rate_respected(self):
        scenario, _ = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                sampling_hz=205.0, measure_s=3.0)
        app = scenario.nodes[0].app
        # Sampling ran through warm-up too; rate check via counter and
        # elapsed simulated time.
        from repro.sim.simtime import to_seconds
        elapsed = to_seconds(scenario.sim.now)
        assert app.samples_taken \
            == pytest.approx(205.0 * elapsed, rel=0.02)

    def test_derived_sampling_fills_payload(self):
        """With sampling_hz=None the rate is set so 12 codes arrive per
        cycle (two channels)."""
        scenario, _ = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                sampling_hz=None, measure_s=3.0)
        app = scenario.nodes[0].app
        assert app.sampling_hz == pytest.approx(6 / 0.030)
        # Backlog must stay bounded: production == consumption.
        assert app.buffered_codes <= 2 * codes_per_payload(18)
        assert app.codes_dropped == 0

    def test_backlog_drops_oldest_when_oversampled(self):
        # 400 Hz x 2 ch at a 30 ms cycle produces 24 codes/cycle but
        # only 12 can be shipped: the bounded buffer must drop.
        scenario, _ = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                sampling_hz=400.0, measure_s=3.0)
        app = scenario.nodes[0].app
        assert app.codes_dropped > 0
        assert app.buffered_codes <= 8 * codes_per_payload(18)


#: node1's codes, recorded from the eager sampling chain (every sample
#: synthesised, read and converted as it was taken): the first two
#: frames in full, then the CRC-32 of the first 30 frames' packed bytes
#: and the sum of their codes.
DEFERRED_CASES = {
    # Two nodes, measurement noise on: every code differs.
    "noise": (
        dict(num_nodes=2, ecg_noise_mv=0.05, measure_s=1.0),
        [[1987, 2010, 2051, 2050, 2084, 2070, 2080, 2068, 2044, 2046,
          2013, 2026],
         [2034, 2039, 2044, 2045, 2082, 2069, 2101, 2081, 2055, 2052,
          2099, 2080]],
        779481956, 770921, 0),
    # Five channels: 12-code payloads split sample vectors.
    "five_channel": (
        dict(ecg_noise_mv=0.05, measure_s=1.0,
             node_specs=[NodeSpec(channels=(0, 1, 2, 3, 4)), NodeSpec()]),
        [[2031, 2018, 2029, 2018, 2029, 2018, 2080, 2068, 2080, 2068,
          2080],
         [2027, 2035, 2027, 2035, 2027, 2082, 2069, 2082, 2069, 2082,
          2024, 2033]],
        994668011, 770082, 0),
    # 400 Hz at a 30 ms cycle: drop-oldest discards whole vectors.
    "overload": (
        dict(sampling_hz=400.0, ecg_noise_mv=0.05, measure_s=1.0),
        [[2015, 2027, 2109, 2086, 1994, 2014, 2053, 2051, 2042, 2044,
          1996, 2015],
         [2059, 2054, 2063, 2057, 2055, 2052, 2090, 2074, 2003, 2020,
          2031, 2037]],
        1175527041, 770580, 348),
    # Five channels at 400 Hz: the 96-code backlog limit is not a
    # multiple of five, so drop-oldest itself moves the phase.
    "five_channel_overload": (
        dict(ecg_noise_mv=0.05, measure_s=1.0,
             node_specs=[NodeSpec(channels=(0, 1, 2, 3, 4),
                                  sampling_hz=400.0), NodeSpec()]),
        [[2059, 2063, 2057, 2063, 2057, 2063, 2055, 2052, 2055, 2052,
          2055, 2090],
         [1992, 2084, 2070, 2084, 2070, 2084, 2107, 2085, 2107, 2085,
          2107, 2080]],
        3709035718, 774226, 1662),
}


class TestDeferredStreamingCodes:
    """Codes computed on read equal the eagerly sampled ones."""

    @pytest.mark.parametrize("case", sorted(DEFERRED_CASES))
    def test_codes_match_eager_recording(self, case):
        overrides, first_two, crc, total, dropped = DEFERRED_CASES[case]
        scenario, _ = run_quick(**overrides)
        frames = scenario.base_station.frames_from("node1")[:30]
        assert len(frames) == 30
        assert [frame.payload["codes"] for frame in frames[:2]] \
            == first_two
        assert zlib.crc32(b"".join(
            frame.payload["packed"] for frame in frames)) == crc
        assert sum(sum(frame.payload["codes"]) for frame in frames) \
            == total
        assert scenario.nodes[0].app.codes_dropped == dropped

    def test_reading_codes_is_cached_and_uncounted(self):
        scenario, _ = run_quick(num_nodes=2, ecg_noise_mv=0.05,
                                measure_s=1.0)
        node = scenario.nodes[0]
        conversions, reads = node.adc.conversions, node.asic.reads
        assert conversions > 0 and reads > 0
        for frame in scenario.base_station.frames_from("node1"):
            content = frame.payload
            codes = content["codes"]
            assert content["codes"] is codes
            assert unpack_codes(content["packed"], len(codes)) == codes
            assert dict(content) == {
                "kind": "ecg_stream", "codes": codes,
                "packed": pack_codes(codes), "channels": (0, 1)}
        assert node.adc.conversions == conversions
        assert node.asic.reads == reads

    def test_counters_count_at_sample_time(self):
        scenario, _ = run_quick(num_nodes=1, measure_s=1.0)
        node = scenario.nodes[0]
        app = node.app
        # Conversions run through warm-up too; reads restart with the
        # measurement window.  Both count two channels per sample.
        assert node.adc.conversions == 2 * app.samples_taken
        assert 0 < node.asic.reads < node.adc.conversions
        assert node.asic.reads % 2 == 0

    def test_payload_is_read_only(self):
        scenario, _ = run_quick(num_nodes=1, measure_s=1.0)
        content = scenario.base_station.frames_from("node1")[0].payload
        assert set(content) == {"kind", "codes", "packed", "channels"}
        with pytest.raises(TypeError):
            content["codes"] = []
        with pytest.raises(KeyError):
            content["lag_samples"]


class TestRpeakApp:
    def test_beats_detected_and_reported(self):
        scenario, result = run_quick(app="rpeak", cycle_ms=120.0,
                                     measure_s=10.0, heart_rate_bpm=75.0)
        node = result.node("node1")
        app = scenario.nodes[0].app
        # 75 bpm x 2 channels -> ~2.5 detections/s.
        assert app.beats_detected > 0
        assert node.traffic.data_tx > 0

    def test_beat_packets_reach_base_station(self):
        scenario, _ = run_quick(app="rpeak", cycle_ms=120.0,
                                measure_s=10.0)
        frames = scenario.base_station.frames_from("node1")
        assert frames
        for frame in frames:
            assert frame.payload["kind"] == "beat"
            assert frame.payload["lag_samples"] > 0
            assert frame.payload["channel"] in (0, 1)

    def test_beat_rate_tracks_heart_rate(self):
        scenario, _ = run_quick(app="rpeak", cycle_ms=60.0,
                                measure_s=20.0, heart_rate_bpm=75.0,
                                num_nodes=1)
        frames = scenario.base_station.frames_from("node1")
        # Two channels x 75 bpm over the full run (warm-up included in
        # detection but only measured-window frames are logged):
        # ~2.5 packets/s in steady state.
        per_second = len(frames) / 20.0
        assert per_second == pytest.approx(2.5, rel=0.15)

    def test_idle_cycles_send_nothing(self):
        scenario, result = run_quick(app="rpeak", cycle_ms=30.0,
                                     measure_s=10.0)
        node = result.node("node1")
        cycles = 10.0 / 0.030
        # Far fewer packets than cycles: most slots stay silent.
        assert node.traffic.data_tx < 0.2 * cycles

    def test_rpeak_cheaper_than_streaming(self):
        """The headline claim: preprocessing on the node saves energy."""
        _, streaming = run_quick(app="ecg_streaming", cycle_ms=30.0,
                                 sampling_hz=205.0, measure_s=5.0)
        _, rpeak = run_quick(app="rpeak", cycle_ms=120.0, measure_s=5.0)
        assert rpeak.node("node1").total_mj \
            < 0.5 * streaming.node("node1").total_mj

    def test_pending_queue_bounded(self):
        scenario, _ = run_quick(app="rpeak", cycle_ms=120.0,
                                measure_s=5.0)
        app = scenario.nodes[0].app
        assert app.pending_reports <= 16
