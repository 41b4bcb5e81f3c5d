"""Tests for the fingerprint-closure pass (FPC001/FPC002).

Every FPC rule is exercised in both directions on inline snippets,
plus the closure walk itself and the on-disk seeded-bug fixture.  The
module once also covered the effect-inference pass and keeps its name
so the test ids stay stable.
"""

import pathlib
import textwrap

from repro.lint import LintConfig, lint_source
from repro.lint.engine import _collect_context
from repro.lint.fingerprint import analyze_fingerprint, field_type_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"


def fired(source, module_path="mac/m.py", config=None):
    """Unsuppressed rule codes for a snippet in simulation code."""
    findings = lint_source(textwrap.dedent(source), "<fixture>",
                           config or LintConfig(),
                           module_path=module_path)
    return [f.rule for f in findings if not f.suppressed]


def contexts_of(*sources, module_path="mac/m%d.py"):
    """FileContexts for snippets (for direct pass tests)."""
    config = LintConfig()
    out = []
    for index, source in enumerate(sources):
        ctx, parse_findings = _collect_context(
            textwrap.dedent(source), f"<fixture-{index}>", config,
            module_path=module_path % index)
        assert ctx is not None and not parse_findings
        out.append(ctx)
    return out


# ----------------------------------------------------------------------
# FPC001/FPC002: fingerprint coverage, both directions
# ----------------------------------------------------------------------
FPC_MODULE = "net/m.py"


class TestFpcRules:
    def test_fpc001_non_field_attr_read_fires(self):
        assert "FPC001" in fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

                def __post_init__(self):
                    self.debug_gain = 1.0

            def run(config: BanScenarioConfig):
                return config.seed * config.debug_gain
        """, module_path=FPC_MODULE)

    def test_fpc001_field_read_clean(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

            def run(config: BanScenarioConfig):
                return config.seed
        """, module_path=FPC_MODULE) == []

    def test_fpc001_method_access_clean(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class BanScenarioConfig:
                seed: int = 0

                def derived(self):
                    return self.seed + 1

            def run(config: BanScenarioConfig):
                return config.derived()
        """, module_path=FPC_MODULE) == []

    def test_fpc002_unfingerprinted_config_read_fires(self):
        assert "FPC002" in fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run(tuning: TuningConfig):
                return tuning.gain
        """, module_path=FPC_MODULE)

    def test_fpc002_constructed_in_sim_code_exempt(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run():
                tuning = TuningConfig(gain=2.0)
                return tuning.gain
        """, module_path=FPC_MODULE) == []

    def test_fpc002_closure_member_exempt(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            @dataclass
            class BanScenarioConfig:
                tuning: TuningConfig = None

            def run(config: BanScenarioConfig):
                return config.tuning.gain
        """, module_path=FPC_MODULE) == []

    def test_fpc_silent_outside_salted_packages(self):
        assert fired("""
            from dataclasses import dataclass

            @dataclass
            class TuningConfig:
                gain: float = 1.0

            def run(tuning: TuningConfig):
                return tuning.gain
        """, module_path="analysis/m.py") == []

    def test_field_type_names_unwraps_containers(self):
        import ast
        ann = ast.parse("Optional[Sequence[NodeSpec]]",
                        mode="eval").body
        assert "NodeSpec" in field_type_names(ann)
        callable_ann = ast.parse("Callable[[int], float]",
                                 mode="eval").body
        assert field_type_names(callable_ann) == ()

    def test_closure_extras_published(self):
        (ctx,) = contexts_of("""
            from dataclasses import dataclass

            @dataclass
            class SubConfig:
                depth: int = 1

            @dataclass
            class BanScenarioConfig:
                sub: SubConfig = None
        """, module_path="net/m%d.py")
        _, extras = analyze_fingerprint([ctx])
        closure = extras["fingerprint"]["closure"]
        assert "BanScenarioConfig" in closure
        assert "SubConfig" in closure


# ----------------------------------------------------------------------
# On-disk seeded-bug fixture
# ----------------------------------------------------------------------
class TestSeededFixtures:
    def test_unfingerprinted_field_fixture_caught(self):
        source = (FIXTURES / "unfingerprinted_field.py").read_text()
        findings = lint_source(
            source, "unfingerprinted_field.py", LintConfig(),
            module_path="net/unfingerprinted_field.py")
        codes = sorted(f.rule for f in findings if not f.suppressed)
        assert codes == ["FPC001", "FPC002"]
