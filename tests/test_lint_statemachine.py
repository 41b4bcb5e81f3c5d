"""Tests for the power-state machines and where they are enforced.

Each hardware component hands its ``TransitionSpec`` to its
:class:`~repro.core.ledger.PowerStateLedger`, which refuses a spec that
disagrees with the component's power-state table and raises
:class:`~repro.core.ledger.IllegalTransitionError` on any undeclared
state change.  A template component (``Widget``: standby -> tx ->
cooldown -> standby) is built from source and mutated per test case,
so each check is exercised both firing and silent.  The final classes
pin the real hardware models: every declared spec matches its
component's table and initial state, and the radio's ``RadioError``
guards refuse to leave power-down by any path but ``power_up``.
(The module's name dates from the static state-machine pass these
runtime checks replaced.)
"""

import pytest

from repro.core.ledger import IllegalTransitionError
from repro.core.states import (ASIC_TRANSITIONS, MCU_TRANSITIONS,
                               RADIO_TRANSITIONS, TransitionSpec)
from repro.hw.asic import BiopotentialAsic
from repro.hw.frames import Frame, FrameKind
from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401, RadioError
from repro.phy.channel import Channel

#: A spec-conforming three-state component.  Tests mutate this source
#: with plain string replacement; every replacement target is unique.
WIDGET = '''\
from repro.core.ledger import PowerStateLedger
from repro.core.states import PowerState, PowerStateTable, TransitionSpec

SPEC = TransitionSpec(
    component="widget",
    initial="standby",
    states=("standby", "tx", "cooldown"),
    transitions=(
        ("standby", "tx"),
        ("tx", "cooldown"),
        ("cooldown", "standby"),
    ),
)


class Widget:
    def __init__(self, sim):
        table = PowerStateTable([
            PowerState("standby", 0.0),
            PowerState("tx", 0.010),
            PowerState("cooldown", 0.002),
        ])
        self.ledger = PowerStateLedger(sim, "widget", table, 3.0,
                                       initial_state="standby",
                                       spec=SPEC)
        self._tx_busy = False

    def fire(self):
        if self.ledger.state == "standby":
            self._tx_busy = True
            self.ledger.transition("tx")

    def finish(self):
        if self._tx_busy:
            self._tx_busy = False
            self.ledger.transition("cooldown")

    def settle(self):
        if self.ledger.state == "cooldown":
            self.ledger.transition("standby")
'''


def build(source, sim):
    """Execute a Widget source and construct its component."""
    namespace = {}
    exec(compile(source, "<widget>", "exec"), namespace)
    return namespace["Widget"](sim)


class TestCleanMachine:
    def test_template_is_clean(self, sim):
        widget = build(WIDGET, sim)
        for start in (10, 40):
            sim.at(start, widget.fire)
            sim.at(start + 10, widget.finish)
            sim.at(start + 20, widget.settle)
        sim.run_until(100)
        ledger = widget.ledger
        assert ledger.state == "standby"
        assert ledger.transitions == 6
        assert ledger.ticks_in("tx") == 20
        assert ledger.ticks_in("cooldown") == 20


class TestSm001Undeclared:
    def test_guarded_undeclared_edge(self, sim):
        source = WIDGET + '''
    def abort(self):
        if self.ledger.state == "tx":
            self.ledger.transition("standby")
'''
        widget = build(source, sim)
        widget.fire()
        with pytest.raises(IllegalTransitionError,
                           match="'tx' -> 'standby'"):
            widget.abort()
        assert widget.ledger.state == "tx"

    def test_out_of_component_transition(self, sim, cal):
        # Driving the radio's ledger around its RadioError guards
        # still cannot book TX current from power-down.
        radio = Nrf2401(sim, cal, Channel(sim), "a")
        with pytest.raises(IllegalTransitionError,
                           match="'power_down' -> 'tx'"):
            radio.ledger.transition("tx")
        assert radio.state == "power_down"
        assert radio.ledger.transitions == 0


class TestSm003Unreachable:
    def test_ghost_state_with_energy_accounting(self, sim):
        source = WIDGET.replace(
            '    states=("standby", "tx", "cooldown"),\n',
            '    states=("standby", "tx", "cooldown", "ghost"),\n')
        source = source.replace(
            '            PowerState("cooldown", 0.002),\n',
            '            PowerState("cooldown", 0.002),\n'
            '            PowerState("ghost", 1.0),\n')
        with pytest.raises(ValueError, match="ghost.*unreachable"):
            build(source, sim)


class TestSm004Structural:
    def test_initial_state_mismatch(self, sim):
        source = WIDGET.replace('    initial="standby",',
                                '    initial="tx",')
        with pytest.raises(ValueError, match="starts in"):
            build(source, sim)

    def test_state_set_mismatch(self, sim):
        source = WIDGET.replace(
            '            PowerState("cooldown", 0.002),\n',
            '            PowerState("cooldown", 0.002),\n'
            '            PowerState("ghost", 1.0),\n')
        with pytest.raises(ValueError, match="power-state table"):
            build(source, sim)


class TestTransitionSpecRuntime:
    def test_allows(self):
        assert RADIO_TRANSITIONS.allows("standby", "tx")
        assert not RADIO_TRANSITIONS.allows("power_down", "tx")
        # A same-state change is a re-tag, not a transition: always ok.
        assert RADIO_TRANSITIONS.allows("tx", "tx")

    def test_initial_must_be_known(self):
        with pytest.raises(ValueError, match="initial"):
            TransitionSpec(component="x", initial="nope",
                           states=("a", "b"), transitions=(("a", "b"),))

    def test_edges_must_reference_known_states(self):
        with pytest.raises(ValueError, match="unknown state"):
            TransitionSpec(component="x", initial="a",
                           states=("a", "b"), transitions=(("a", "zz"),))

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TransitionSpec(component="x", initial="a",
                           states=("a", "b"), transitions=(("a", "a"),))

    def test_unreachable_state_rejected(self):
        with pytest.raises(ValueError, match=r"\['c'\] unreachable"):
            TransitionSpec(component="x", initial="a",
                           states=("a", "b", "c"),
                           transitions=(("a", "b"), ("c", "a")))


#: ``component -> constructor`` for every energy-booking part.
HARDWARE = {
    "mcu": lambda sim, cal: Msp430(sim, cal),
    "radio": lambda sim, cal: Nrf2401(sim, cal, Channel(sim), "a"),
    "asic": lambda sim, cal: BiopotentialAsic(sim, cal),
}


class TestSpecsMatchHardware:
    """Every hardware ledger is checked against its declared spec."""

    def test_all_specs_extracted(self, sim, cal):
        ledgers = [make(sim, cal).ledger for make in HARDWARE.values()]
        assert sorted(ledger.spec.component for ledger in ledgers) \
            == ["asic", "mcu", "radio"]

    @pytest.mark.parametrize("spec", [MCU_TRANSITIONS,
                                      RADIO_TRANSITIONS,
                                      ASIC_TRANSITIONS],
                             ids=["mcu", "radio", "asic"])
    def test_declared_matches_encoded(self, sim, cal, spec):
        ledger = HARDWARE[spec.component](sim, cal).ledger
        assert ledger.spec is spec
        assert ledger.state == spec.initial
        assert sorted(ledger.table.names()) == sorted(spec.states)
        assert len(spec.states) == len(set(spec.states))


class TestRadioHonorsSpec:
    """The POWER_DOWN guards behind RADIO_TRANSITIONS' missing
    ``power_down -> rx/tx`` edges."""

    def data_frame(self):
        return Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=18, payload={"n": 1})

    def test_start_rx_requires_power_up(self, sim, cal):
        radio = Nrf2401(sim, cal, Channel(sim), "a")
        with pytest.raises(RadioError, match="powered down"):
            radio.start_rx()

    def test_send_requires_power_up(self, sim, cal):
        radio = Nrf2401(sim, cal, Channel(sim), "a")
        with pytest.raises(RadioError, match="powered down"):
            radio.send(self.data_frame())

    def test_normal_path_still_works(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        received = []
        b.on_frame = received.append
        a.power_up()
        b.power_up()
        b.start_rx()
        a.send(self.data_frame())
        sim.run_until(10_000_000)
        assert len(received) == 1
