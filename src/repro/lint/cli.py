"""``python -m repro.lint`` / ``repro-ban lint`` command line.

Exit codes: 0 — clean (no unsuppressed findings); 1 — findings; 2 —
usage/configuration error.  ``--format json`` emits the CI-artifact
document described in :mod:`repro.lint.report`; ``--output`` writes it
to a file while the gate summary still goes to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .config import ConfigError, load_config
from .engine import lint_paths
from .report import render_json, render_text
from .rules import iter_rules


def build_parser(prog: str = "repro-lint") -> argparse.ArgumentParser:
    """The argument parser (shared by ``repro-ban lint``)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Determinism & simulation-safety linter for the "
                    "repro package (rule catalog: "
                    "docs/static_analysis.md).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the report to PATH instead of "
                             "stdout (a one-line gate summary still "
                             "prints)")
    parser.add_argument("--pyproject", metavar="PATH", default=None,
                        help="explicit pyproject.toml carrying "
                             "[tool.repro-lint] (default: nearest)")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "(overrides configuration)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include waived findings in text output")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in iter_rules():
        lines.append(f"{rule.code}  {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns 0 clean, 1 findings, 2 usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0
    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        sys.stderr.write("error: no such path: %s\n"
                         % ", ".join(missing))
        return 2
    try:
        config = load_config(
            paths,
            Path(args.pyproject) if args.pyproject else None)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    if args.select:
        from dataclasses import replace
        codes = tuple(code.strip() for code in args.select.split(",")
                      if code.strip())
        config = replace(config, select=codes)
    report = lint_paths(paths, config)
    rendered = (render_json(report) if args.format == "json"
                else render_text(report, args.show_suppressed))
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        summary = render_text(report).splitlines()[-1]
        sys.stdout.write(f"{summary}  (report: {args.output})\n")
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


__all__ = ["build_parser", "main"]
