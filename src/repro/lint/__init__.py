"""Determinism & simulation-safety lint suite (``repro.lint``).

The paper's headline claim is an energy estimate within ~4 % of
hardware; this reproduction's equivalent claim is *bit-exact
determinism* — the result cache, the "merged parallel metrics equal
sequential" invariant and the "no-fault ledgers stay byte-identical"
guarantee all silently break if simulation code starts drawing from the
global RNG, reading the wall clock, or iterating a ``set`` where the
order can reach the event queue.  ``repro.lint`` turns those reviewer
rules into named, machine-checked ones:

========  ==========================================================
Code      Rule
========  ==========================================================
DET001    no global/module-level RNG draws and no unseeded
          ``random.Random()`` (seeded ``random.Random`` / NumPy
          ``Generator`` instances stay legal)
DET002    no wall-clock reads outside the configured allowlist
DET003    no iteration over sets in order-sensitive packages
FLT001    no float ``==``/``!=`` on energy/time-like values
EXC001    no bare or overbroad ``except`` without a reasoned waiver
MUT001    no mutable default arguments
CFG001    cache-fingerprinted config dataclasses must be annotated
          and hash-stable
UNI001-4  units analysis of the energy model: no unit mixing, return
          units match declared units, no I*I / V*V, calibration
          constants carry units (:mod:`repro.lint.units`)
RNG001-2  RNG provenance: every generator is seeded, from a seed
          parameter or a Simulator-owned stream
          (:mod:`repro.lint.rngprov`)
FPC001-2  the fingerprint-closure pass: simulation code reads no
          config attribute the result-cache key cannot see
          (:mod:`repro.lint.fingerprint`)
SUP001-2  waivers carry a reason, and a waiver whose rule no longer
          fires on its line is itself a finding
========  ==========================================================

Power-state legality, resource lifecycles and hook purity are runtime
properties and are checked where they happen:
:class:`~repro.core.ledger.PowerStateLedger` rejects any edge its
component's ``TransitionSpec`` does not declare, and the test suite
and ``tools/determinism_check.py`` pin the rest
(``docs/static_analysis.md`` maps each bug class to its check).

Run it as ``repro-ban lint src`` or ``python -m repro.lint src``.
Findings are suppressed per line with a *reasoned* comment::

    except Exception as exc:  # lint: allow(EXC001): re-raised annotated

A suppression without a reason does not suppress — it is itself
reported (SUP001), and one whose rule has stopped firing goes stale
(SUP002).  Rule configuration lives in ``pyproject.toml`` under
``[tool.repro-lint]``; see :mod:`repro.lint.config` and
``docs/static_analysis.md`` for the catalog and the suppression
policy.
"""

from __future__ import annotations

from .config import LintConfig, load_config
from .engine import FileContext, Finding, LintReport, lint_paths, lint_source
from .report import render_json, render_text
from .rules import ANALYSIS_RULES, RULES, all_rule_codes

__all__ = [
    "ANALYSIS_RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "all_rule_codes",
    "lint_paths",
    "lint_source",
    "load_config",
    "render_json",
    "render_text",
]
