"""Time-in-state energy ledger.

:class:`PowerStateLedger` is the measurement core of the energy model.  A
component owns one ledger; every power-state transition closes the open
interval and books its duration under ``(state, tag)``.  Energy follows
the paper's formula ``E = I * Vdd * t_state`` (Section 4.1).

Tags subdivide a state without changing the electrical model: the radio,
for example, distinguishes RX time spent idle-listening from RX time spent
receiving a packet by re-tagging the open interval when a packet starts.
The per-state totals are always the sum over tags, which the test suite
checks as an invariant.

Fast path
---------

``transition`` is called once or more per dispatched event (every MCU
wake/task/sleep and every radio mode change), so it is written for the
kernel's throughput rather than for symmetry with the query side:

* time ticks accumulate in a plain ``dict`` of ints (no defaultdict
  factory call per booking);
* per-state currents and ``I * Vdd`` energy coefficients are
  precomputed at construction, so queries never chase
  ``table[s].current_a`` attribute chains (the products are formed once
  with the same left-associated expression the queries used, keeping
  every reported float bit-identical);
* a transition to the *same* ``(state, tag)`` — the dominant case for
  back-to-back task dispatches re-tagging ``active/task`` — leaves the
  open interval open instead of splitting it.  The split and unsplit
  bookings sum the same integer tick count, so every query is exact;
  the transition counter and the observer still see the call.

Transition check
----------------

A hardware component constructs its ledger with its
:class:`~repro.core.states.TransitionSpec`.  On the state-changing
branch of ``transition`` the ledger then looks the ``(src, dst)`` edge
up in the spec's declared set and raises
:class:`IllegalTransitionError` for an undeclared one (the nRF2401
cannot go ``power_down -> tx``; a model that does books TX current
from a state the chip cannot be in).  Same-``(state, tag)`` calls
return before the check and re-tags skip the lookup, so its cost is
one set lookup per real state change.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..sim.kernel import Simulator
from .states import PowerStateTable, TransitionSpec


class IllegalTransitionError(RuntimeError):
    """A ledger was driven along an edge its TransitionSpec omits."""


class PowerStateLedger:
    """Books time and energy per (power state, tag) for one component.

    Args:
        sim: the simulator providing the clock; the ledger registers an
            end hook so the open interval is closed at the horizon.
        component: name used in reports (e.g. ``"radio"``).
        table: the component's power states.
        supply_v: supply voltage, used for E = I * V * t.
        initial_state: state the component starts in at t=0.
        spec: the component's declared power-state machine; when
            given, its states and initial state must match ``table``
            and ``initial_state``, and every state change must be one
            of its edges.
    """

    __slots__ = ("_sim", "component", "table", "supply_v", "_state",
                 "_tag", "_entered", "_ticks", "_transitions", "_closed",
                 "on_transition", "_current_a", "_iv_coeff", "spec",
                 "_edges")

    def __init__(self, sim: Simulator, component: str,
                 table: PowerStateTable, supply_v: float,
                 initial_state: str,
                 spec: Optional[TransitionSpec] = None) -> None:
        if supply_v <= 0:
            raise ValueError(f"supply voltage must be positive: {supply_v}")
        self._edges: Optional[FrozenSet[Tuple[str, str]]] = None
        if spec is not None:
            if set(spec.states) != set(table.names()):
                raise ValueError(
                    f"{component}: spec states {sorted(spec.states)} "
                    f"differ from the power-state table "
                    f"{sorted(table.names())}")
            if spec.initial != initial_state:
                raise ValueError(
                    f"{component}: spec starts in {spec.initial!r}, "
                    f"the ledger in {initial_state!r}")
            self._edges = frozenset(spec.transitions)
        self.spec = spec
        self._sim = sim
        self.component = component
        self.table = table
        self.supply_v = supply_v
        # Per-state current and I*Vdd coefficient, precomputed once.  The
        # coefficient is formed exactly as the queries formed it
        # (current * supply, then * time), so energies are bit-identical.
        self._current_a: Dict[str, float] = {
            state.name: state.current_a for state in table}
        self._iv_coeff: Dict[str, float] = {  # unit: W
            state.name: state.current_a * supply_v for state in table}
        self._state = table[initial_state].name
        self._tag = self._state
        self._entered = sim.now
        self._ticks: Dict[Tuple[str, str], int] = {}
        self._transitions = 0
        self._closed = False
        #: Optional observer called as ``(time, state, tag)`` after every
        #: transition — used by waveform exporters; None costs nothing.
        self.on_transition = None
        sim.add_end_hook(self.close)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Name of the current power state."""
        return self._state

    @property
    def tag(self) -> str:
        """Tag under which the open interval is being booked."""
        return self._tag

    @property
    def transitions(self) -> int:
        """Number of state/tag transitions performed so far."""
        return self._transitions

    def transition(self, state: str, tag: Optional[str] = None) -> None:
        """Move to ``state``, booking the interval spent in the old one.

        ``tag`` defaults to the state name.  Transitioning to the current
        state with a different tag is the supported way to re-attribute
        time from the current instant onward.
        """
        if state not in self._current_a:
            self.table[state]  # raises the canonical unknown-state error
        if tag is None:
            tag = state
        now = self._sim._now  # hot path: skip the property (see kernel)
        current_state = self._state
        if state == current_state and tag == self._tag:
            # Same (state, tag): keep the interval open.  Splitting it
            # here and summing later books the same integer tick count,
            # so every query result is unchanged.
            self._transitions += 1
            self._closed = False
            observer = self.on_transition
            if observer is not None:
                observer(now, current_state, tag)
            return
        if state != current_state:
            edges = self._edges
            if edges is not None and (current_state, state) not in edges:
                raise IllegalTransitionError(
                    f"{self.component}: undeclared power-state "
                    f"transition {current_state!r} -> {state!r}")
        elapsed = now - self._entered
        if elapsed > 0:
            key = (current_state, self._tag)
            ticks = self._ticks
            ticks[key] = ticks.get(key, 0) + elapsed
        self._state = state
        self._tag = tag
        self._entered = now
        self._transitions += 1
        self._closed = False
        observer = self.on_transition
        if observer is not None:
            observer(now, state, tag)

    def retag(self, tag: str) -> None:
        """Re-tag the open interval from now on, staying in the same state."""
        self.transition(self._state, tag)

    def close(self) -> None:
        """Book the open interval up to the current instant.

        Idempotent; called by the simulator's end hook so that queries
        after a run cover exactly the simulated duration.
        """
        self._book_open_interval()
        self._entered = self._sim.now
        self._closed = True

    def reset(self) -> None:
        """Discard all booked intervals and re-open at the current instant.

        Used by scenarios to start the measurement window after warm-up
        (joins, first-beacon alignment) so the reported energy covers an
        exact steady-state horizon, as the paper's 60 s measurements do.
        The current state is preserved.
        """
        self._ticks.clear()
        self._entered = self._sim.now
        self._transitions = 0
        self._closed = False

    def _book_open_interval(self) -> None:
        elapsed = self._sim.now - self._entered
        if elapsed > 0:
            key = (self._state, self._tag)
            ticks = self._ticks
            ticks[key] = ticks.get(key, 0) + elapsed

    # ------------------------------------------------------------------
    # Queries (all implicitly include the open interval)
    # ------------------------------------------------------------------
    def _live_ticks(self) -> Dict[Tuple[str, str], int]:
        result = dict(self._ticks)
        open_elapsed = self._sim.now - self._entered
        if open_elapsed > 0:
            key = (self._state, self._tag)
            result[key] = result.get(key, 0) + open_elapsed
        return result

    def ticks_in(self, state: Optional[str] = None,
                 tag: Optional[str] = None) -> int:
        """Total ticks booked, filtered by state and/or tag."""
        return sum(t for (s, g), t in self._live_ticks().items()
                   if (state is None or s == state)
                   and (tag is None or g == tag))

    def seconds_in(self, state: Optional[str] = None,
                   tag: Optional[str] = None) -> float:
        """Total seconds booked, filtered by state and/or tag."""
        from ..sim.simtime import to_seconds
        return to_seconds(self.ticks_in(state, tag))

    def charge_c(self, state: Optional[str] = None,
                 tag: Optional[str] = None) -> float:
        """Total charge drawn in coulombs (I * t), filtered."""
        from ..sim.simtime import to_seconds
        current_a = self._current_a
        total = 0.0
        for (s, g), ticks in self._live_ticks().items():
            if (state is None or s == state) and (tag is None or g == tag):
                total += current_a[s] * to_seconds(ticks)
        return total

    def energy_j(self, state: Optional[str] = None,
                 tag: Optional[str] = None) -> float:
        """Total energy in joules (E = I * Vdd * t), filtered."""
        return self.charge_c(state, tag) * self.supply_v

    def energy_mj(self, state: Optional[str] = None,
                  tag: Optional[str] = None) -> float:
        """Total energy in millijoules (the unit the paper reports)."""
        return self.energy_j(state, tag) * 1e3

    def seconds_by_state(self) -> Dict[str, float]:
        """Residency in seconds per state name (the metrics view)."""
        out: Dict[str, float] = {}
        from ..sim.simtime import to_seconds
        for (s, _), ticks in self._live_ticks().items():
            out[s] = out.get(s, 0.0) + to_seconds(ticks)
        return out

    def iv_coeff(self, state: str) -> float:
        """The I*Vdd power coefficient [W] for ``state``.

        This is the exact float every energy query multiplies by
        time-in-state, exposed so derived attributions (the spans
        layer's per-phase energies) can use the identical expression
        and differ from ledger totals only by float addition order.
        """
        if state not in self._iv_coeff:
            self.table[state]  # raises the canonical unknown-state error
        return self._iv_coeff[state]

    def energy_by_state(self) -> Dict[str, float]:
        """Energy in joules per state name."""
        out: Dict[str, float] = {}
        from ..sim.simtime import to_seconds
        iv_coeff = self._iv_coeff
        for (s, _), ticks in self._live_ticks().items():
            out[s] = out.get(s, 0.0) + iv_coeff[s] * to_seconds(ticks)
        return out

    def energy_by_tag(self) -> Dict[str, float]:
        """Energy in joules per tag."""
        out: Dict[str, float] = {}
        from ..sim.simtime import to_seconds
        iv_coeff = self._iv_coeff
        for (s, g), ticks in self._live_ticks().items():
            out[g] = out.get(g, 0.0) + iv_coeff[s] * to_seconds(ticks)
        return out

    def average_power_w(self, horizon_ticks: Optional[int] = None) -> float:
        """Average power over ``horizon_ticks`` (defaults to sim.now)."""
        from ..sim.simtime import to_seconds
        horizon = self._sim.now if horizon_ticks is None else horizon_ticks
        if horizon <= 0:
            return 0.0
        return self.energy_j() / to_seconds(horizon)


__all__ = ["IllegalTransitionError", "PowerStateLedger"]
