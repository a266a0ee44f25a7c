"""Deterministic, splittable random number generation.

Every random choice in the package flows from a single root seed through
counter-based Philox generators keyed by an integer path, for example
``split(seed, STREAM_MASK, step, slot)``.  Generators with distinct paths
produce independent streams, and every batch item is keyed by its own path,
so what an item sees depends neither on any other item nor on the step a
run started from: a resumed run regenerates bit for bit the batches an
uninterrupted run would.
"""

from __future__ import annotations

import numpy as np

# Stream tags keeping unrelated consumers of the same (seed, step) apart.
STREAM_INIT = 0
STREAM_DATA = 1
STREAM_BATCH = 2
STREAM_MASK = 3
STREAM_SHUFFLE = 4
STREAM_PROBE = 5


def split(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator keyed by ``(seed, *path)``.

    Args:
        seed: root seed of the run.
        path: non-negative integers (< 2**32) identifying the consumer,
            e.g. a stream tag, a training step, a batch slot.

    Returns:
        An independent ``numpy.random.Generator`` that is identical across
        calls, runs, and platforms for the same key.
    """
    key = tuple(int(p) for p in path)
    for p in key:
        if p < 0 or p >= 2 ** 32:
            raise ValueError(f"rng path element out of range [0, 2**32): {p}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
