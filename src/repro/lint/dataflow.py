"""Shared infrastructure for the flow-sensitive lint analyses.

The per-file rules are line-local: each looks at one AST node.  The
units and RNG-provenance analyses need more — values that flow through
assignments and annotations that resolve genuine ambiguity.  This
module holds the machinery those passes share:

* **Inline annotations** — ``# unit: <expr>`` declares the physical
  unit of the assignment (or function) on its line.  It is a comment,
  so it costs nothing at runtime and stays next to the code it
  describes.
* **Branch-aware walking helpers** — the ``TERMINATED`` sentinel and
  environment merge used by the forward passes to model early
  ``return``/``raise`` pruning.

The analyses themselves live in :mod:`repro.lint.units` and
:mod:`repro.lint.rngprov`; they are *tree analyses* (see
:mod:`repro.lint.engine`): they run after the per-line rules and may
look across every file in the run.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, List, Optional, Sequence, TypeVar

#: ``# unit: <unit-expression>`` — declares the unit of the value bound
#: (or returned) on this line.  The expression grammar is parsed by
#: :func:`repro.lint.units.parse_unit`.
_UNIT_ANNOTATION_RE = re.compile(r"^#\s*unit:\s*([^#]+?)\s*(?:#.*)?$")

def comment_tokens(lines: Sequence[str]) -> Dict[int, str]:
    """``{line_number: comment_text}`` for every *real* comment.

    Tokenizes rather than scanning lines, so ``# unit:`` examples inside
    docstrings and string literals (this package documents its own
    annotation language...) are never mistaken for annotations.
    """
    found: Dict[int, str] = {}
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                found[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # a file this far into the pipeline already parsed
    return found


def unit_annotations(lines: Sequence[str]) -> Dict[int, str]:
    """``{line_number: unit_expression}`` for every ``# unit:`` comment."""
    found: Dict[int, str] = {}
    for number, text in comment_tokens(lines).items():
        match = _UNIT_ANNOTATION_RE.search(text)
        if match is not None:
            found[number] = match.group(1).strip()
    return found


def function_header_lines(node: ast.AST) -> range:
    """Source lines of a function's header (``def`` up to the body).

    Inline annotations attached to a function go on any header line, so
    multi-line signatures can carry them on the closing paren.
    """
    first = getattr(node, "lineno", 1)
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else first
    return range(first, max(first, last) + 1)


#: Sentinel environment meaning "this path cannot fall through" —
#: every statement after an unconditional return/raise/continue/break.
TERMINATED = None

_V = TypeVar("_V")


def merge_envs(branches: List[Optional[Dict[str, _V]]]
               ) -> Optional[Dict[str, _V]]:
    """Join the environments of sibling branches.

    ``TERMINATED`` branches contribute nothing.  A name keeps its value
    only when every surviving branch agrees on it; disagreement drops
    the binding (the passes treat an unbound name as "unknown", which
    can never produce a finding).
    """
    alive = [env for env in branches if env is not TERMINATED]
    if not alive:
        return TERMINATED
    merged: Dict[str, _V] = {}
    for key in alive[0]:
        value = alive[0][key]
        if all(key in env and env[key] == value for env in alive[1:]):
            merged[key] = value
    return merged


def walk_skipping_lambdas(node: ast.AST):
    """``ast.walk`` that does not descend into nested lambdas/defs.

    A ``sim.after(delay, lambda: self._later())`` call runs *later*:
    anything inside the lambda must not be attributed to the current
    control point.  Nested function definitions get their own walk.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.Lambda, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            stack.append(child)


__all__ = [
    "TERMINATED",
    "comment_tokens",
    "function_header_lines",
    "merge_envs",
    "unit_annotations",
    "walk_skipping_lambdas",
]
