"""Tests for unseeded-generator detection (DET001), the seeded-bug
fixtures, and the JSON report round trip.

The module once covered the units (UNI001-UNI004) and RNG-provenance
(RNG001-RNG002) passes; it keeps its name and the surviving test ids.
Unit slips are now caught by the paper-table, golden and closed-form
tests; unseeded and ``SystemRandom`` generators by DET001; and
counter-derived seeds by the repeat-run determinism checks.

Fixture sources are linted through :func:`repro.lint.lint_source`, so
every assertion here covers the end-to-end path: parse -> rules ->
suppressions -> report.
"""

import json
import pathlib
import textwrap

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.report import report_to_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"


def fired(source, module_path="hw/model.py", config=None):
    """Unsuppressed rule codes for a fixture, sorted."""
    findings = lint_source(textwrap.dedent(source), "<fixture>",
                           config or LintConfig(),
                           module_path=module_path)
    return sorted(f.rule for f in findings if not f.suppressed)


class TestRngProvenance:
    def test_unseeded_random(self):
        assert fired("""
            import random

            def make():
                return random.Random()
            """) == ["DET001"]

    def test_system_random_fires_both_layers(self):
        # SystemRandom draws OS entropy: DET001 flags the construct.
        assert fired("""
            import random

            def make():
                return random.SystemRandom()
            """) == ["DET001"]

    def test_numpy_default_rng_checked(self):
        assert fired("""
            from numpy.random import default_rng

            def make():
                return default_rng()
            """) == ["DET001"]
        # Module, alias and from-import forms of both constructors.
        for source in (
                "import numpy\nnumpy.random.default_rng()\n",
                "import numpy as np\nnp.random.RandomState()\n",
                "import numpy.random as npr\nnpr.default_rng()\n",
                "from numpy import random as nr\nnr.RandomState()\n",
                "from numpy.random import RandomState as RS\nRS()\n"):
            assert fired(source) == ["DET001"], source
        assert fired("""
            import numpy as np
            from numpy.random import default_rng

            def make(seed):
                return np.random.RandomState(seed), default_rng(seed=seed)
            """) == []


class TestSeededFixtures:
    def lint_fixture(self, name, module_path):
        source = (FIXTURES / name).read_text(encoding="utf-8")
        findings = lint_source(source, str(FIXTURES / name),
                               LintConfig(), module_path=module_path)
        return [f for f in findings if not f.suppressed]

    def test_unseeded_rng_fixture(self):
        findings = self.lint_fixture("unseeded_rng.py",
                                     "mac/unseeded_rng.py")
        assert sorted((f.rule, f.line) for f in findings) == [
            ("DET001", 15),   # random.Random() -- no seed
            ("DET001", 20),   # SystemRandom -- OS entropy
        ]

    def test_stale_waiver_fixture(self):
        findings = self.lint_fixture("stale_waiver.py",
                                     "core/stale_waiver.py")
        assert [(f.rule, f.line) for f in findings] == [("SUP002", 11)]


class TestJsonSchemaV4:
    def test_round_trip(self, tmp_path):
        (tmp_path / "repro" / "hw").mkdir(parents=True)
        (tmp_path / "repro" / "hw" / "tables.py").write_text(
            "import random\n"
            "JITTER = random.random()\n"
            "SAME = energy_mj == 0.0\n", encoding="utf-8")
        report = lint_paths([tmp_path], LintConfig())
        document = json.loads(json.dumps(report_to_dict(report)))
        assert document["schema_version"] == 5
        assert "analyses" in document
        assert document["summary"]["stale_waivers"] == 0
        assert [(f["rule"], f["line"]) for f in document["findings"]] \
            == [("DET001", 2), ("FLT001", 3)]

    def test_stale_waiver_counted_in_summary(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def f(total_j, count):\n"
            "    return total_j / max(count, 1)"
            "  # lint: allow(FLT001): zero sentinel\n",
            encoding="utf-8")
        document = report_to_dict(lint_paths([tmp_path], LintConfig()))
        assert document["summary"]["stale_waivers"] == 1
