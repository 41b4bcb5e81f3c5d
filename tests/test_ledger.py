"""Unit tests for power states and the time-in-state energy ledger,
including its transition-spec edge check."""

import pytest

from repro.core.ledger import IllegalTransitionError, PowerStateLedger
from repro.core.states import PowerState, PowerStateTable, TransitionSpec
from repro.sim.kernel import Simulator
from repro.sim.simtime import seconds


def make_table():
    return PowerStateTable([
        PowerState("on", 10e-3),
        PowerState("off", 1e-3),
    ])


def make_ledger(sim, initial="off", supply=2.0):
    return PowerStateLedger(sim, "dev", make_table(), supply, initial)


#: A three-state machine for the edge-check tests: ``off`` must pass
#: through ``idle`` to reach ``on``.
DEV_SPEC = TransitionSpec(
    component="dev",
    initial="off",
    states=("off", "idle", "on"),
    transitions=(("off", "idle"), ("idle", "on"), ("on", "idle"),
                 ("idle", "off")),
)


def make_checked_ledger(sim):
    table = PowerStateTable([PowerState("off", 1e-3),
                             PowerState("idle", 2e-3),
                             PowerState("on", 10e-3)])
    return PowerStateLedger(sim, "dev", table, 2.0, "off", spec=DEV_SPEC)


class TestPowerState:
    def test_power_at_supply(self):
        state = PowerState("rx", 24.82e-3)
        assert state.power_w(2.8) == pytest.approx(69.496e-3)

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            PowerState("bad", -1e-3)

    def test_table_lookup(self):
        table = make_table()
        assert table["on"].current_a == 10e-3
        assert "off" in table
        assert "standby" not in table

    def test_table_unknown_state_raises_with_known_list(self):
        with pytest.raises(KeyError, match="off"):
            make_table()["nope"]

    def test_table_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PowerStateTable([PowerState("x", 0), PowerState("x", 1)])

    def test_table_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerStateTable([])

    def test_table_iteration(self):
        names = sorted(s.name for s in make_table())
        assert names == ["off", "on"]


class TestLedgerAccounting:
    def test_initial_state(self, sim):
        ledger = make_ledger(sim)
        assert ledger.state == "off"

    def test_energy_formula_single_state(self, sim):
        ledger = make_ledger(sim, initial="on", supply=2.0)
        sim.run_until(seconds(10.0))
        # E = I * V * t = 10 mA * 2 V * 10 s = 0.2 J
        assert ledger.energy_j() == pytest.approx(0.2)

    def test_energy_split_across_transition(self, sim):
        ledger = make_ledger(sim, initial="off", supply=2.0)
        sim.at(seconds(4.0), lambda: ledger.transition("on"))
        sim.run_until(seconds(10.0))
        expected = 1e-3 * 2.0 * 4.0 + 10e-3 * 2.0 * 6.0
        assert ledger.energy_j() == pytest.approx(expected)
        assert ledger.seconds_in("off") == pytest.approx(4.0)
        assert ledger.seconds_in("on") == pytest.approx(6.0)

    def test_time_sums_to_horizon(self, sim):
        ledger = make_ledger(sim)
        for t, state in [(1, "on"), (3, "off"), (7, "on")]:
            sim.at(seconds(float(t)),
                   lambda s=state: ledger.transition(s))
        sim.run_until(seconds(20.0))
        assert ledger.ticks_in() == seconds(20.0)

    def test_open_interval_included_in_queries(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.run_until(seconds(5.0))
        # close() ran via the end hook, but query again mid-flight:
        ledger.transition("off")
        assert ledger.seconds_in("on") == pytest.approx(5.0)

    def test_invalid_state_rejected(self, sim):
        with pytest.raises(KeyError):
            make_ledger(sim).transition("warp")

    def test_invalid_supply_rejected(self, sim):
        with pytest.raises(ValueError):
            make_ledger(sim, supply=0.0)

    def test_charge_is_energy_over_voltage(self, sim):
        ledger = make_ledger(sim, initial="on", supply=2.0)
        sim.run_until(seconds(3.0))
        assert ledger.charge_c() == pytest.approx(ledger.energy_j() / 2.0)

    def test_energy_mj_unit(self, sim):
        ledger = make_ledger(sim, initial="on", supply=2.0)
        sim.run_until(seconds(1.0))
        assert ledger.energy_mj() == pytest.approx(1e3 * ledger.energy_j())

    def test_transitions_counter(self, sim):
        ledger = make_ledger(sim)
        ledger.transition("on")
        ledger.transition("off")
        assert ledger.transitions == 2


class TestLedgerTags:
    def test_retag_splits_state_time(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.at(seconds(2.0), lambda: ledger.retag("listen"))
        sim.run_until(seconds(5.0))
        by_tag = ledger.energy_by_tag()
        assert by_tag["on"] == pytest.approx(10e-3 * 2.0 * 2.0)
        assert by_tag["listen"] == pytest.approx(10e-3 * 2.0 * 3.0)

    def test_tag_defaults_to_state_name(self, sim):
        ledger = make_ledger(sim)
        ledger.transition("on")
        assert ledger.tag == "on"

    def test_state_total_is_sum_over_tags(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.at(seconds(1.0), lambda: ledger.retag("a"))
        sim.at(seconds(2.0), lambda: ledger.retag("b"))
        sim.run_until(seconds(4.0))
        total = ledger.energy_j(state="on")
        by_tag = sum(ledger.energy_j(state="on", tag=t)
                     for t in ("on", "a", "b"))
        assert total == pytest.approx(by_tag)

    def test_filter_by_tag_across_states(self, sim):
        ledger = make_ledger(sim, initial="off")
        sim.at(seconds(1.0), lambda: ledger.transition("on", tag="work"))
        sim.at(seconds(2.0), lambda: ledger.transition("off", tag="work"))
        sim.run_until(seconds(3.0))
        assert ledger.seconds_in(tag="work") == pytest.approx(2.0)


class TestLedgerLifecycle:
    def test_close_is_idempotent(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.run_until(seconds(2.0))
        before = ledger.energy_j()
        ledger.close()
        ledger.close()
        assert ledger.energy_j() == pytest.approx(before)

    def test_reset_clears_history(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.run_until(seconds(2.0))
        ledger.reset()
        sim.run_until(seconds(5.0))
        assert ledger.seconds_in("on") == pytest.approx(3.0)

    def test_reset_preserves_state(self, sim):
        ledger = make_ledger(sim, initial="on")
        ledger.reset()
        assert ledger.state == "on"

    def test_average_power(self, sim):
        ledger = make_ledger(sim, initial="on", supply=2.0)
        sim.run_until(seconds(4.0))
        assert ledger.average_power_w() == pytest.approx(10e-3 * 2.0)

    def test_average_power_zero_horizon(self, sim):
        assert make_ledger(sim).average_power_w() == 0.0


class TestLedgerFastPathInvariants:
    """The transition fast path (precomputed coefficients, same-(state,
    tag) early-out) must leave every reported figure tick-exact."""

    def test_same_state_retag_keeps_interval_open_but_exact(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.at(seconds(1.0), lambda: ledger.retag("x"))
        # Same (state, tag): the early-out path — no interval split.
        sim.at(seconds(2.0), lambda: ledger.transition("on", tag="x"))
        sim.at(seconds(3.0), lambda: ledger.retag("y"))
        sim.run_until(seconds(4.0))
        assert ledger.ticks_in(state="on", tag="x") == seconds(2.0)
        assert ledger.ticks_in(state="on", tag="y") == seconds(1.0)
        assert ledger.ticks_in() == seconds(4.0)
        # The no-op re-tag still counts as a transition.
        assert ledger.transitions == 3

    def test_same_state_retag_still_notifies_observer(self, sim):
        ledger = make_ledger(sim, initial="on")
        seen = []
        ledger.on_transition = lambda t, s, g: seen.append((t, s, g))
        ledger.retag("x")
        ledger.retag("x")
        assert seen == [(0, "on", "x"), (0, "on", "x")]

    def test_scripted_sequence_closed_form_energy(self, sim):
        # off [0,2) -> on/"work" [2,5) -> on/"work" again at 3 (early
        # out) -> off [5,8) horizon-closed at 8.  Energies must equal
        # the closed forms built with the ledger's own float ops:
        # (I * to_seconds(ticks)) * V.
        from repro.sim.simtime import to_seconds
        ledger = make_ledger(sim, initial="off", supply=2.0)
        sim.at(seconds(2.0), lambda: ledger.transition("on", tag="work"))
        sim.at(seconds(3.0), lambda: ledger.transition("on", tag="work"))
        sim.at(seconds(5.0), lambda: ledger.transition("off"))
        sim.run_until(seconds(8.0))
        on_expected = (10e-3 * to_seconds(seconds(3.0))) * 2.0
        off_expected = (1e-3 * to_seconds(seconds(5.0))) * 2.0
        assert ledger.energy_j(state="on", tag="work") == on_expected
        assert ledger.energy_j(state="off") == off_expected
        assert ledger.ticks_in() == seconds(8.0)

    def test_horizon_close_books_open_interval_exactly(self, sim):
        ledger = make_ledger(sim, initial="on")
        sim.run_until(seconds(2.5))
        # The end hook closed at exactly the horizon.
        assert ledger.ticks_in(state="on") == seconds(2.5)


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    transition_scripts = st.lists(
        st.tuples(st.integers(min_value=1, max_value=50),
                  st.sampled_from(["on", "off"]),
                  st.sampled_from([None, "a", "b", "on"])),
        min_size=0, max_size=20)

    class TestLedgerProperties:
        @given(transition_scripts)
        @settings(max_examples=60, deadline=None)
        def test_state_ticks_equal_sum_over_tags(self, script):
            sim = Simulator()
            ledger = make_ledger(sim, initial="off")
            now = 0
            for gap, state, tag in script:
                now += gap
                sim.at(now, lambda s=state, t=tag:
                       ledger.transition(s, tag=t))
            sim.run_until(now + 7)
            tags = ("on", "off", "a", "b")
            for state in ("on", "off"):
                total = ledger.ticks_in(state=state)
                by_tag = sum(ledger.ticks_in(state=state, tag=t)
                             for t in tags)
                assert total == by_tag  # integer ticks: exact
            assert ledger.ticks_in() == now + 7

        @given(transition_scripts)
        @settings(max_examples=60, deadline=None)
        def test_transition_count_and_energy_nonnegative(self, script):
            sim = Simulator()
            ledger = make_ledger(sim, initial="off")
            now = 0
            for gap, state, tag in script:
                now += gap
                sim.at(now, lambda s=state, t=tag:
                       ledger.transition(s, tag=t))
            sim.run_until(now + 1)
            assert ledger.transitions == len(script)
            assert ledger.energy_j() >= 0.0


class TestLedgerEdgeCheck:
    def test_undeclared_edge_raises(self, sim):
        ledger = make_checked_ledger(sim)
        with pytest.raises(IllegalTransitionError, match="'off' -> 'on'"):
            ledger.transition("on")
        # The rejected call booked nothing and left the state alone.
        assert ledger.state == "off"
        assert ledger.transitions == 0

    def test_declared_edges_and_retags_pass(self, sim):
        ledger = make_checked_ledger(sim)
        sim.at(10, lambda: ledger.transition("idle"))
        sim.at(20, lambda: ledger.transition("on", tag="burst"))
        sim.at(30, lambda: ledger.retag("tail"))
        sim.at(40, lambda: ledger.transition("on", tag="tail"))
        sim.at(50, lambda: ledger.transition("idle"))
        sim.run_until(60)
        assert ledger.state == "idle"
        assert ledger.transitions == 5
        assert ledger.ticks_in("on") == 30
