"""Seeded-bug fixture: RNG construction that breaks replay.

``counter_rng`` reconstructs the PR 4 frame-id bug shape: seeding a
generator from a monotonically increasing counter, which changes the
draw sequence whenever scenario interleaving changes.  The other two
draw OS entropy outright.
"""

import itertools
import random

_NEXT_FRAME_ID = itertools.count(1)


def fresh_generator() -> random.Random:
    # BUG(RNG001, DET001): no seed -- OS entropy.
    return random.Random()


def counter_rng() -> random.Random:
    # BUG(RNG002): counter-derived seed (the PR 4 frame-id bug shape).
    return random.Random(next(_NEXT_FRAME_ID))


def entropy_rng() -> random.SystemRandom:
    # BUG(RNG001): SystemRandom is OS entropy by definition.
    return random.SystemRandom()


def proper_stream(seed: int) -> random.Random:
    # Legal: derives from a seed parameter.
    return random.Random(seed * 31 + 7)
