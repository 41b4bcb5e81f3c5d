"""Tests for the flow-sensitive units analysis (UNI001-UNI004) and the
RNG provenance pass (RNG001-RNG002).

Fixture sources are linted through :func:`repro.lint.lint_source`, which
runs the same tree analyses the CLI runs, so every assertion here covers
the end-to-end path: parse -> seed units -> propagate -> report.
"""

import json
import pathlib
import textwrap

import pytest

from repro.lint import LintConfig, lint_paths, lint_source, load_config
from repro.lint.report import report_to_dict
from repro.lint.units import (DIMENSIONLESS, Unit, UnitParseError,
                              div_units, format_unit, make_unit,
                              mul_units, parse_unit, pow_unit,
                              unit_from_identifier)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"


def fired(source, module_path="hw/model.py", config=None):
    """Unsuppressed rule codes for a fixture, sorted."""
    findings = lint_source(textwrap.dedent(source), "<fixture>",
                           config or LintConfig(),
                           module_path=module_path)
    return sorted(f.rule for f in findings if not f.suppressed)


class TestUnitAlgebra:
    def test_joule_is_derived(self):
        assert parse_unit("j") == make_unit({"s": 1, "a": 1, "v": 1})
        assert parse_unit("j") == mul_units(
            mul_units(parse_unit("s"), parse_unit("a")),
            parse_unit("v"))

    def test_decade_scales(self):
        assert parse_unit("mj").scale == 3
        assert parse_unit("us").scale == 6
        assert parse_unit("mj").dims == parse_unit("j").dims

    def test_compound_expressions(self):
        assert parse_unit("cyc/s") == make_unit({"cyc": 1, "s": -1})
        assert parse_unit("bit*s^-1") == parse_unit("bps")
        assert parse_unit("tick/ms") == make_unit({"tick": 1, "s": -1},
                                                  -3)

    def test_dimensionless_forms(self):
        assert parse_unit("1") == DIMENSIONLESS
        assert parse_unit("ratio") == DIMENSIONLESS
        assert parse_unit("pct").dims == ()
        assert parse_unit("pct").scale == 2

    def test_parse_errors(self):
        for bad in ("florps", "j*", "j^x", "", "j//s"):
            with pytest.raises(UnitParseError):
                parse_unit(bad)

    def test_div_and_pow(self):
        joule = parse_unit("j")
        watt = div_units(joule, parse_unit("s"))
        assert watt == make_unit({"a": 1, "v": 1})
        assert pow_unit(parse_unit("ma"), 2) == make_unit({"a": 2}, 6)

    def test_format_named_units(self):
        assert format_unit(parse_unit("j")) == "J"
        assert format_unit(parse_unit("mj")) == "mJ"
        assert format_unit(parse_unit("a*v")) == "W"
        assert format_unit(make_unit({"s": 2})) == "s^2"
        assert "x10^3" in format_unit(make_unit({"tick": 1}, 3))

    def test_none_scale_poisons_arithmetic(self):
        b = parse_unit("bytes")
        assert b.scale is None
        assert mul_units(b, parse_unit("ms")).scale is None

    def test_suffix_seeding(self):
        assert unit_from_identifier("radio_tx_a") == parse_unit("a")
        assert unit_from_identifier("energy_mj") == parse_unit("mj")
        assert unit_from_identifier("_slot_ticks") == parse_unit("tick")
        # Bare single tokens only seed through the EXACT_NAMES list.
        assert unit_from_identifier("ticks") == parse_unit("tick")
        assert unit_from_identifier("energy") is None
        # "_cycles" counts TDMA cycles on this tree, not MCU cycles.
        assert unit_from_identifier("warmup_cycles") is None

    def test_unit_hashable_for_env_maps(self):
        assert len({parse_unit("j"), parse_unit("s*a*v"),
                    parse_unit("mj")}) == 2


class TestUni001Mixing:
    def test_dimension_mismatch_in_addition(self):
        assert fired("""
            def f(active_s, tx_a):
                return active_s + tx_a
            """) == ["UNI001"]

    def test_decade_mismatch_in_addition(self):
        assert fired("""
            def f(radio_j, mcu_energy_mj):
                return radio_j + mcu_energy_mj
            """) == ["UNI001"]

    def test_comparison_mismatch(self):
        assert fired("""
            def f(deadline_ticks, timeout_ms):
                return deadline_ticks > timeout_ms
            """) == ["UNI001"]

    def test_matching_dimensions_are_clean(self):
        assert fired("""
            def f(active_s, sleep_s):
                return active_s + sleep_s
            """) == []

    def test_unknown_side_is_silent(self):
        assert fired("""
            def f(active_s, fudge):
                return active_s + fudge
            """) == []

    def test_known_call_seeds_ticks(self):
        assert fired("""
            from repro.sim.simtime import milliseconds

            def f(delay_ms, period_ticks):
                return milliseconds(delay_ms) + period_ticks
            """) == []
        assert fired("""
            from repro.sim.simtime import to_seconds

            def f(now_ticks, window_s):
                return to_seconds(now_ticks) - window_s
            """) == []

    def test_min_max_require_agreement(self):
        assert fired("""
            def f(a_s, b_s):
                return min(a_s, b_s)
            """) == []
        assert fired("""
            def f(a_s, leak_ma):
                return max(a_s, leak_ma)
            """) == ["UNI001"]

    def test_decade_literal_shifts_scale(self):
        assert fired("""
            def f(event_s, tx_a, supply_v, budget_mj):
                e = event_s * tx_a * supply_v
                e_mj = 1e3 * e
                return e_mj + budget_mj
            """) == []

    def test_non_decade_literal_erases_scale_not_dims(self):
        # 0.7 * J has unknown prefix but is still an energy: adding a
        # time to it must be reported, adding mJ must not.
        assert fired("""
            def f(event_j, active_s):
                derated = 0.7 * event_j
                return derated + active_s
            """) == ["UNI001"]
        assert fired("""
            def f(event_j, budget_mj):
                derated = 0.7 * event_j
                return derated + budget_mj
            """) == []

    def test_branch_disagreement_is_conservative(self):
        assert fired("""
            def f(flag, a_s, b_j):
                if flag:
                    x = a_s
                else:
                    x = b_j
                return x + a_s
            """) == []

    def test_branch_agreement_still_propagates(self):
        assert fired("""
            def f(flag, a_s, b_s, tx_a):
                if flag:
                    x = a_s
                else:
                    x = b_s
                return x + tx_a
            """) == ["UNI001"]

    def test_invalid_annotation_is_uni001(self):
        findings = lint_source("RATE = 3.0  # unit: florps\n",
                               "<fixture>", LintConfig(),
                               module_path="analysis/x.py")
        assert [f.rule for f in findings] == ["UNI001"]
        assert "florps" in findings[0].message


class TestUni002Returns:
    def test_suffix_contract_violation(self):
        assert fired("""
            def report_energy_j(active_s):
                return active_s
            """) == ["UNI002"]

    def test_header_annotation_contract(self):
        assert fired("""
            def drain(active_s, tx_a, supply_v):  # unit: mj
                return active_s * tx_a * supply_v
            """) == ["UNI002"]

    def test_energy_product_satisfies_contract(self):
        assert fired("""
            def tx_energy_j(event_s, tx_a, supply_v):
                return event_s * tx_a * supply_v
            """) == []

    def test_annotation_overrides_inference(self):
        # The assignment annotation re-types the value, so the return
        # agrees with the declared mJ contract.
        assert fired("""
            def scaled_energy_mj(event_j):
                bumped = 1e3 * event_j  # unit: mj
                return bumped
            """) == []


class TestUni003SquaredElectrical:
    def test_current_squared(self):
        assert fired("""
            def f(sleep_ma, leak_ma):
                return sleep_ma * leak_ma
            """) == ["UNI003"]

    def test_voltage_squared(self):
        assert fired("""
            def f(supply_v, ref_v):
                return supply_v * ref_v
            """) == ["UNI003"]

    def test_current_times_voltage_is_power(self):
        assert fired("""
            def f(tx_a, supply_v):
                return tx_a * supply_v
            """) == []


class TestUni004Constants:
    def test_bare_constant_in_calibration_module(self):
        assert fired("LIMIT = 3.3\n",
                     module_path="hw/tables.py") == ["UNI004"]

    def test_suffix_silences(self):
        assert fired("LIMIT_V = 3.3\n",
                     module_path="hw/tables.py") == []

    def test_annotation_silences(self):
        assert fired("LIMIT = 3.3  # unit: v\n",
                     module_path="hw/tables.py") == []

    def test_private_names_exempt(self):
        assert fired("_SCRATCH = 3.3\n",
                     module_path="hw/tables.py") == []

    def test_only_const_modules_checked(self):
        assert fired("LIMIT = 3.3\n",
                     module_path="analysis/foo.py") == []


class TestRngProvenance:
    def test_unseeded_random(self):
        # DET001 flags the no-seed construct too; RNG001 the entropy.
        assert fired("""
            import random

            def make():
                return random.Random()
            """) == ["DET001", "RNG001"]

    def test_system_random_fires_both_layers(self):
        # DET001 flags the construct itself; RNG001 flags the entropy.
        assert fired("""
            import random

            def make():
                return random.SystemRandom()
            """) == ["DET001", "RNG001"]

    def test_literal_seed_is_not_derived(self):
        assert fired("""
            import random

            def make():
                return random.Random(1234)
            """) == ["RNG002"]

    def test_seed_parameter_is_legal(self):
        assert fired("""
            import random

            def make(seed):
                return random.Random(seed)
            """) == []

    def test_arithmetic_on_seed_stays_tainted(self):
        assert fired("""
            import random

            def make(seed):
                derived = seed * 31 + 7
                return random.Random(derived)
            """) == []

    def test_stream_call_is_a_deriving_source(self):
        assert fired("""
            import random

            def make(registry):
                return random.Random(registry.stream("mac"))
            """) == []

    def test_reassignment_drops_taint(self):
        assert fired("""
            import random

            def make(seed):
                s = seed
                s = 4
                return random.Random(s)
            """) == ["RNG002"]

    def test_partial_taint_across_branches_reports(self):
        assert fired("""
            import random

            def make(flag, seed):
                s = 0
                if flag:
                    s = seed
                return random.Random(s)
            """) == ["RNG002"]

    def test_numpy_default_rng_checked(self):
        assert fired("""
            from numpy.random import default_rng

            def make():
                return default_rng()
            """) == ["RNG001"]

    def test_waiver_suppresses_with_reason(self):
        findings = lint_source(
            "import random\n"
            "TABLE_RNG = random.Random(1234)"
            "  # lint: allow(RNG002): frozen table shuffle\n",
            "<fixture>", LintConfig(), module_path="data/x.py")
        assert [(f.rule, f.suppressed) for f in findings] == [
            ("RNG002", True)]


class TestSeededFixtures:
    def lint_fixture(self, name, module_path):
        source = (FIXTURES / name).read_text(encoding="utf-8")
        findings = lint_source(source, str(FIXTURES / name),
                               LintConfig(), module_path=module_path)
        return [f for f in findings if not f.suppressed]

    def test_unit_mixing_fixture(self):
        findings = self.lint_fixture("unit_mixing.py",
                                     "hw/unit_mixing.py")
        assert sorted(f.rule for f in findings) == [
            "UNI001", "UNI002", "UNI003", "UNI004"]
        by_rule = {f.rule: f for f in findings}
        assert by_rule["UNI004"].line == 15      # REFERENCE_BUDGET
        assert by_rule["UNI001"].line == 20      # radio_j + mcu_energy_mj
        assert by_rule["UNI003"].line == 26      # sleep_ma * leak_ma
        assert by_rule["UNI002"].line == 32      # returns seconds

    def test_unseeded_rng_fixture(self):
        findings = self.lint_fixture("unseeded_rng.py",
                                     "mac/unseeded_rng.py")
        assert sorted((f.rule, f.line) for f in findings) == [
            ("DET001", 17),   # an unseeded Random() is a DET001 form
            ("DET001", 27),   # SystemRandom is also a global-RNG form
            ("RNG001", 17),   # random.Random() -- no seed
            ("RNG001", 27),   # SystemRandom -- OS entropy
            ("RNG002", 22),   # frame-id counter seed (PR 4 bug shape)
        ]

    def test_stale_waiver_fixture(self):
        findings = self.lint_fixture("stale_waiver.py",
                                     "core/stale_waiver.py")
        assert [(f.rule, f.line) for f in findings] == [("SUP002", 11)]


class TestTreeUnitsClean:
    def test_src_has_no_unit_findings(self):
        config = load_config([ROOT / "pyproject.toml"])
        report = lint_paths([ROOT / "src"], config)
        unit_findings = [f for f in report.findings
                         if f.rule.startswith("UNI")
                         and not f.suppressed]
        assert unit_findings == []

    def test_src_has_no_rng_findings(self):
        config = load_config([ROOT / "pyproject.toml"])
        report = lint_paths([ROOT / "src"], config)
        rng_findings = [f for f in report.findings
                        if f.rule.startswith("RNG")
                        and not f.suppressed]
        assert rng_findings == []


class TestJsonSchemaV4:
    def test_round_trip(self, tmp_path):
        (tmp_path / "repro" / "hw").mkdir(parents=True)
        (tmp_path / "repro" / "hw" / "tables.py").write_text(
            "LIMIT = 3.3\n", encoding="utf-8")
        report = lint_paths([tmp_path], LintConfig())
        document = json.loads(json.dumps(report_to_dict(report)))
        assert document["schema_version"] == 5
        assert "analyses" in document
        assert document["summary"]["stale_waivers"] == 0
        assert [f["rule"] for f in document["findings"]] == ["UNI004"]

    def test_stale_waiver_counted_in_summary(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def f(total_j, count):\n"
            "    return total_j / max(count, 1)"
            "  # lint: allow(FLT001): zero sentinel\n",
            encoding="utf-8")
        document = report_to_dict(lint_paths([tmp_path], LintConfig()))
        assert document["summary"]["stale_waivers"] == 1
