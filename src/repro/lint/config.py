"""Lint configuration, loaded from ``pyproject.toml``.

All knobs live under ``[tool.repro-lint]`` so the rules are versioned
with the code they police::

    [tool.repro-lint]
    select = ["DET001", "DET002", ...]      # default: every rule

    [tool.repro-lint.det002]
    # Files (matched by module-path suffix) allowed to read the wall
    # clock: profiling instrumentation whose readings never feed a
    # simulated quantity.
    allow = ["obs/profiler.py", "sim/kernel.py", "exec/executor.py"]

    [tool.repro-lint.det003]
    # Packages where iteration order can reach the event queue.
    packages = ["sim", "mac", "net", "faults"]

    [tool.repro-lint.flt001]
    # Identifier fragments marking energy/time-like values.
    name_pattern = "(energy|joule|...)"

    [tool.repro-lint.cfg001]
    pattern = "(Config|Spec)$"
    packages = ["core", "sim", ...]          # the cache-salted set

    [tool.repro-lint.fpc]
    roots = ["BanScenarioConfig", "MultiBanScenario"]
    pattern = "(Config|Spec|Plan)$"
    packages = ["core", "sim", ...]          # simulation code

Unknown keys raise: a typo in lint configuration must not silently
relax a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    tomllib = None  # type: ignore[assignment]

#: Wall-clock allowlist applied when pyproject carries no det002 table.
DEFAULT_DET002_ALLOW: Tuple[str, ...] = ()

#: Order-sensitive packages checked by DET003 by default: anywhere a
#: set-iteration order could reach the event queue or a ledger.
DEFAULT_DET003_PACKAGES: Tuple[str, ...] = ("sim", "mac", "net", "faults")

#: Default identifier fragments FLT001 treats as energy/time-like.
DEFAULT_FLT001_PATTERN = (
    "energy|joule|charge|_mj|_uj|_nj|_mah|wall|elapsed|duration"
    "|_seconds|seconds_|lifetime"
)

#: Default class-name pattern and package set for CFG001: the config
#: dataclasses reachable from the result-cache fingerprint (the
#: ``_SALTED_PACKAGES`` of :mod:`repro.exec.cache`, plus ``exec``).
DEFAULT_CFG001_PATTERN = "(Config|Spec)$"
DEFAULT_CFG001_PACKAGES: Tuple[str, ...] = (
    "core", "sim", "tinyos", "hw", "phy", "mac", "apps", "signals",
    "net", "faults", "exec",
)

#: Modules whose public float constants UNI004 requires to carry a
#: unit suffix or ``# unit:`` annotation: the calibration tables the
#: whole energy model is seeded from.
DEFAULT_UNITS_CONST_MODULES: Tuple[str, ...] = (
    "core/calibration.py", "data/paper_tables.py", "hw/",
)

#: Root classes of the cache-fingerprint closure (FPC001/FPC002).
DEFAULT_FPC_ROOTS: Tuple[str, ...] = ("BanScenarioConfig",
                                      "MultiBanScenario")

#: Class-name pattern selecting config-shaped dataclasses for FPC002.
DEFAULT_FPC_PATTERN = "(Config|Spec|Plan)$"

#: Packages whose code counts as "simulation code" for FPC reads and
#: derived-config construction: the cache code salt's package set.
DEFAULT_FPC_PACKAGES: Tuple[str, ...] = (
    "core", "sim", "tinyos", "hw", "phy", "mac", "apps", "signals",
    "net", "faults",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (defaults merged with pyproject)."""

    #: Rule codes to run; ``None`` means every registered rule.
    select: Optional[Tuple[str, ...]] = None
    #: Module-path suffixes exempt from DET002 (wall-clock reads).
    det002_allow: Tuple[str, ...] = DEFAULT_DET002_ALLOW
    #: Top-level ``repro`` packages DET003 patrols.
    det003_packages: Tuple[str, ...] = DEFAULT_DET003_PACKAGES
    #: Regex fragment matched (case-insensitively, ``re.search``)
    #: against identifier text by FLT001.
    flt001_name_pattern: str = DEFAULT_FLT001_PATTERN
    #: Class-name regex (``re.search``) selecting CFG001 targets.
    cfg001_pattern: str = DEFAULT_CFG001_PATTERN
    #: Packages whose matching dataclasses feed the cache fingerprint.
    cfg001_packages: Tuple[str, ...] = DEFAULT_CFG001_PACKAGES
    #: Modules (path prefixes/suffixes) UNI004 holds to the
    #: unit-suffix-or-annotation standard for public float constants.
    units_const_modules: Tuple[str, ...] = DEFAULT_UNITS_CONST_MODULES
    #: Root classes of the cache-fingerprint closure.
    fpc_roots: Tuple[str, ...] = DEFAULT_FPC_ROOTS
    #: Class-name regex (``re.search``) selecting FPC002 candidates.
    fpc_pattern: str = DEFAULT_FPC_PATTERN
    #: Packages treated as simulation code by the FPC rules.
    fpc_packages: Tuple[str, ...] = DEFAULT_FPC_PACKAGES
    #: Module-path suffixes skipped entirely (fixtures, vendored code).
    exclude: Tuple[str, ...] = field(default_factory=tuple)

    def rule_enabled(self, code: str) -> bool:
        """Whether ``code`` is selected for this run."""
        return self.select is None or code in self.select


class ConfigError(ValueError):
    """Raised for malformed ``[tool.repro-lint]`` tables."""


def _str_tuple(table: Dict[str, Any], key: str, where: str
               ) -> Optional[Tuple[str, ...]]:
    value = table.pop(key, None)
    if value is None:
        return None
    if (not isinstance(value, (list, tuple))
            or not all(isinstance(item, str) for item in value)):
        raise ConfigError(f"{where}.{key} must be a list of strings")
    return tuple(value)


def _str_value(table: Dict[str, Any], key: str, where: str
               ) -> Optional[str]:
    value = table.pop(key, None)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string")
    return value


def _reject_unknown(table: Dict[str, Any], where: str) -> None:
    if table:
        unknown = ", ".join(sorted(table))
        raise ConfigError(f"unknown {where} key(s): {unknown}")


def config_from_table(table: Dict[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]`` dict."""
    table = dict(table)
    defaults = LintConfig()
    select = _str_tuple(table, "select", "tool.repro-lint")
    exclude = _str_tuple(table, "exclude", "tool.repro-lint")

    det002 = dict(table.pop("det002", {}))
    det002_allow = _str_tuple(det002, "allow", "tool.repro-lint.det002")
    _reject_unknown(det002, "tool.repro-lint.det002")

    det003 = dict(table.pop("det003", {}))
    det003_packages = _str_tuple(det003, "packages",
                                 "tool.repro-lint.det003")
    _reject_unknown(det003, "tool.repro-lint.det003")

    flt001 = dict(table.pop("flt001", {}))
    flt001_pattern = _str_value(flt001, "name_pattern",
                                "tool.repro-lint.flt001")
    _reject_unknown(flt001, "tool.repro-lint.flt001")

    cfg001 = dict(table.pop("cfg001", {}))
    cfg001_pattern = _str_value(cfg001, "pattern",
                                "tool.repro-lint.cfg001")
    cfg001_packages = _str_tuple(cfg001, "packages",
                                 "tool.repro-lint.cfg001")
    _reject_unknown(cfg001, "tool.repro-lint.cfg001")

    units = dict(table.pop("units", {}))
    units_const_modules = _str_tuple(units, "const_modules",
                                     "tool.repro-lint.units")
    _reject_unknown(units, "tool.repro-lint.units")

    fpc = dict(table.pop("fpc", {}))
    fpc_roots = _str_tuple(fpc, "roots", "tool.repro-lint.fpc")
    fpc_pattern = _str_value(fpc, "pattern", "tool.repro-lint.fpc")
    fpc_packages = _str_tuple(fpc, "packages", "tool.repro-lint.fpc")
    _reject_unknown(fpc, "tool.repro-lint.fpc")

    _reject_unknown(table, "tool.repro-lint")
    return LintConfig(
        select=select,
        det002_allow=(defaults.det002_allow if det002_allow is None
                      else det002_allow),
        det003_packages=(defaults.det003_packages
                         if det003_packages is None else det003_packages),
        flt001_name_pattern=(defaults.flt001_name_pattern
                             if flt001_pattern is None else flt001_pattern),
        cfg001_pattern=(defaults.cfg001_pattern
                        if cfg001_pattern is None else cfg001_pattern),
        cfg001_packages=(defaults.cfg001_packages
                         if cfg001_packages is None else cfg001_packages),
        units_const_modules=(defaults.units_const_modules
                             if units_const_modules is None
                             else units_const_modules),
        fpc_roots=(defaults.fpc_roots if fpc_roots is None
                   else fpc_roots),
        fpc_pattern=(defaults.fpc_pattern if fpc_pattern is None
                     else fpc_pattern),
        fpc_packages=(defaults.fpc_packages if fpc_packages is None
                      else fpc_packages),
        exclude=() if exclude is None else exclude,
    )


def find_pyproject(start: Path) -> Optional[Path]:
    """Locate ``pyproject.toml`` at ``start`` or any parent directory."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(paths: Sequence[Path] = (),
                pyproject: Optional[Path] = None) -> LintConfig:
    """Resolve the lint configuration for a run over ``paths``.

    ``pyproject`` pins the file explicitly; otherwise the nearest
    ``pyproject.toml`` above the first scanned path (falling back to the
    current directory) is used.  No file, no ``tomllib`` or no
    ``[tool.repro-lint]`` table all mean built-in defaults.
    """
    if pyproject is None:
        anchor = Path(paths[0]) if paths else Path.cwd()
        pyproject = find_pyproject(anchor)
    if pyproject is None or tomllib is None:
        return LintConfig()
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return LintConfig()
    if not isinstance(table, dict):
        raise ConfigError("[tool.repro-lint] must be a table")
    return config_from_table(table)


__all__ = [
    "ConfigError",
    "LintConfig",
    "config_from_table",
    "find_pyproject",
    "load_config",
]
