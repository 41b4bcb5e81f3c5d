"""Seeded-bug fixture: RNG construction that breaks replay.

Both generators draw OS entropy, so a run can never be replayed;
DET001 must flag each.  (A generator seeded from a global counter, the
frame-id bug shape, replays within a process but diverges on a second
run; ``tests/test_scenario.py::TestRunSemantics::
test_deterministic_across_runs`` and determinism check 1 catch it.)
"""

import random


def fresh_generator() -> random.Random:
    # BUG(DET001): no seed -- OS entropy.
    return random.Random()


def entropy_rng() -> random.SystemRandom:
    # BUG(DET001): SystemRandom is OS entropy by definition.
    return random.SystemRandom()


def proper_stream(seed: int) -> random.Random:
    # Legal: derives from a seed parameter.
    return random.Random(seed * 31 + 7)
