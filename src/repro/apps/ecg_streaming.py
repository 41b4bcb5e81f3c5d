"""ECG streaming application (Section 5.1).

A 2-channel ECG signal is sampled and every acquired 12-bit code is
queued; each TDMA cycle the node transmits a fixed-size data packet to
the base station ("we fixed the transmission payload of each node to 18
bytes per TDMA cycle").  Eighteen bytes carry twelve 12-bit codes —
six sample pairs — which is why the paper couples sampling frequency
and cycle length (205 Hz/channel needs a 30 ms cycle, 55 Hz allows
120 ms).

The on-air payload size is *fixed* (padding if the buffer runs short,
as the platform does), so radio energy per cycle is deterministic; the
packed codes travel as the frame's content for the base station to
unpack.

Because nothing in the energy model depends on the sample values, the
app does not synthesise them as it samples.  Each sample task records
its instant; a frame's codes are computed from those instants only when
someone reads them (:class:`StreamPayload`).  Signal sources are pure
functions of time (:mod:`repro.signals.sources`), so the codes are the
ones an eager read would have produced.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List, Mapping, Optional, Sequence

from ..core.calibration import ModelCalibration
from ..hw.adc import Adc12
from ..hw.asic import BiopotentialAsic
from ..mac.base import AppPayload, NodeMac
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from ..tinyos.scheduler import TaskScheduler
from .base import SamplingApplication

#: The case studies' fixed per-cycle payload (Section 5.1).
DEFAULT_PAYLOAD_BYTES = 18

#: Bits per packed sample (the ADC's resolution).
BITS_PER_CODE = 12


def codes_per_payload(payload_bytes: int) -> int:
    """How many 12-bit codes fit in ``payload_bytes`` (18 B -> 12)."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload size: {payload_bytes}")
    return (payload_bytes * 8) // BITS_PER_CODE


def pack_codes(codes: Sequence[int]) -> bytes:
    """Pack 12-bit codes, little-end first nibble-wise (two codes per
    three bytes).  Used by tests and the base-station unpacker."""
    out = bytearray()
    for i in range(0, len(codes) - 1, 2):
        a, b = codes[i], codes[i + 1]
        out.append(a & 0xFF)
        out.append(((a >> 8) & 0x0F) | ((b & 0x0F) << 4))
        out.append((b >> 4) & 0xFF)
    if len(codes) % 2:
        a = codes[-1]
        out.append(a & 0xFF)
        out.append((a >> 8) & 0x0F)
    return bytes(out)


def unpack_codes(packed: bytes, count: int) -> List[int]:
    """Inverse of :func:`pack_codes` for ``count`` codes."""
    codes: List[int] = []
    i = 0
    while len(codes) + 2 <= count and i + 3 <= len(packed):
        b0, b1, b2 = packed[i], packed[i + 1], packed[i + 2]
        codes.append(b0 | ((b1 & 0x0F) << 8))
        codes.append(((b1 >> 4) & 0x0F) | (b2 << 4))
        i += 3
    if len(codes) < count and i + 2 <= len(packed):
        b0, b1 = packed[i], packed[i + 1]
        codes.append(b0 | ((b1 & 0x0F) << 8))
    return codes


class StreamPayload(Mapping[str, Any]):
    """Read-only content of one streaming frame, codes computed on demand.

    Keys, as the base station sees them: ``kind`` (``"ecg_stream"``),
    ``codes`` (the 12-bit codes, oldest first), ``packed``
    (:func:`pack_codes` of them) and ``channels`` (the app's channel
    tuple).  The first read of ``codes`` or ``packed`` evaluates each
    code's ASIC channel at its recorded sample instant through the ADC
    transfer function and caches the list; neither the ASIC's reads nor
    the ADC's conversions are counted again.

    Args:
        asic: the front-end whose channel sources give the values.
        adc: the ADC whose transfer function gives the codes.
        channels: the app's sampled channels, in sample-vector order.
        instants: the sample instant [ticks] of each code.
        phase: position in ``channels`` of the first code.
    """

    __slots__ = ("_asic", "_adc", "_channels", "_instants", "_phase",
                 "_codes")

    _KEYS = ("kind", "codes", "packed", "channels")

    def __init__(self, asic: BiopotentialAsic, adc: Adc12,
                 channels: Sequence[int], instants: List[int],
                 phase: int) -> None:
        self._asic = asic
        self._adc = adc
        self._channels = channels
        self._instants = instants
        self._phase = phase
        self._codes: Optional[List[int]] = None

    def __getitem__(self, key: str) -> Any:
        if key == "codes":
            return self._materialise()
        if key == "packed":
            return pack_codes(self._materialise())
        if key == "kind":
            return "ecg_stream"
        if key == "channels":
            return self._channels
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)

    def __repr__(self) -> str:
        return f"StreamPayload({dict(self)!r})"

    def _materialise(self) -> List[int]:
        codes = self._codes
        if codes is None:
            value = self._asic.channel_value
            quantise = self._adc.quantise
            channels = self._channels
            width = len(channels)
            phase = self._phase
            codes = [quantise(value(channels[(phase + i) % width], at))
                     for i, at in enumerate(self._instants)]
            self._codes = codes
        return codes


class EcgStreamingApp(SamplingApplication):
    """Stream packed ECG samples to the base station every cycle.

    The backlog holds one sample instant per code slot (the same int
    object for every channel of one sample vector); codes are computed
    only when a frame's content is read (:class:`StreamPayload`).

    Args:
        payload_bytes: fixed on-air payload per cycle (default 18).
        buffer_limit_codes: backlog bound; oldest codes are dropped when
            acquisition outpaces the radio budget (the paper avoids this
            regime by matching sampling frequency to the cycle).
    """

    def __init__(self, sim: Simulator, scheduler: TaskScheduler,
                 asic: BiopotentialAsic, adc: Adc12, mac: NodeMac,
                 calibration: ModelCalibration,
                 channels: Sequence[int] = (0, 1),
                 sampling_hz: float = 205.0,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 buffer_limit_codes: Optional[int] = None,
                 name: str = "ecg_stream",
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, scheduler, asic, adc, mac, calibration,
                         channels, sampling_hz, name=name, trace=trace)
        if payload_bytes <= 0:
            raise ValueError(
                f"{name}: payload must be positive: {payload_bytes}")
        self.payload_bytes = payload_bytes
        self._capacity = codes_per_payload(payload_bytes)
        limit = buffer_limit_codes if buffer_limit_codes is not None \
            else 8 * self._capacity
        self._buffer_limit = limit
        self._buffer: Deque[int] = deque(maxlen=limit)
        #: Codes ever buffered; minus the backlog, the running index of
        #: the oldest buffered code (payloads and drops split vectors).
        self._codes_buffered = 0
        self.packets_provided = 0
        self.codes_sent = 0
        self.codes_dropped = 0

    @property
    def buffered_codes(self) -> int:
        """Codes currently awaiting transmission."""
        return len(self._buffer)

    def _acquire(self) -> None:
        # Same task, reads and conversions as the eager path, but only
        # the instant is kept: streaming energy does not depend on the
        # values, and sources are pure functions of time.
        now = self._sim.now
        if self.spans is not None:
            self.spans.note_sample(self.spans_node, now, self._tick_cost)
        width = len(self.channels)
        self._asic.count_reads(self.channels)
        self._adc.count_conversions(width)
        self._samples_taken += 1
        buffer = self._buffer
        overflow = len(buffer) + width - self._buffer_limit
        if overflow > 0:
            self.codes_dropped += overflow
        buffer.extend((now,) * width)
        self._codes_buffered += width

    def next_payload(self) -> Optional[AppPayload]:
        buffer = self._buffer
        first = self._codes_buffered - len(buffer)
        take = min(len(buffer), self._capacity)
        instants = [buffer.popleft() for _ in range(take)]
        self.packets_provided += 1
        self.codes_sent += take
        content = StreamPayload(self._asic, self._adc, self.channels,
                                instants, first % len(self.channels))
        # Fixed-size frame: the platform always fills the ShockBurst
        # payload, padding when the buffer runs short.
        return (self.payload_bytes, content)


__all__ = [
    "DEFAULT_PAYLOAD_BYTES",
    "BITS_PER_CODE",
    "codes_per_payload",
    "pack_codes",
    "unpack_codes",
    "StreamPayload",
    "EcgStreamingApp",
]
