"""TinyOS task representation.

A TinyOS *task* is a deferred, run-to-completion computation posted from
command/event context.  In this model a task carries:

* a zero-argument ``body`` executed when the task is dispatched, which
  performs the modelled side effects (push a frame to the radio FIFO,
  update application state, post further tasks), and
* a ``cycles`` cost: how long the MCU stays in active mode executing it.

The body runs at dispatch time and the MCU then remains busy for the
cost duration — fine-grained enough for an energy model whose smallest
observable is time-in-power-state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Task:
    """One posted task.

    Attributes:
        body: the computation to run at dispatch.
        cycles: MCU active cost in core clock cycles (>= 0).
        label: short name for traces.
        task_id: post-order id, unique *within its scheduler* and
            assigned by it.  A process-global counter here would leak
            state between scenarios: the second run in one process
            would trace different serials than the first (caught by
            the repeat-run check of tools/determinism_check.py).
    """

    body: Callable[[], None]
    cycles: int
    label: str = ""
    task_id: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(
                f"task {self.label!r}: cycles must be >= 0, "
                f"got {self.cycles}")


__all__ = ["Task"]
