"""Fixed reference job for scaling timings to the machine's current speed.

Usage: python3 reference.py

The job never changes and does not use the code under test: it sorts rows of
a numpy array, builds and formats many small Python objects, and touches fresh
memory, the three kinds of work the CLI commands spend their time in.
``run.py`` times it, interpreter start and numpy import included, before
every repetition, and scales the run's times by the median of those timings
(see README.md, "Bounds and noise").
"""

import numpy as np

ROUNDS = 4


def job() -> int:
    rng = np.random.default_rng(20260301)
    batch = rng.standard_normal((400, 500))
    total = 0
    for _ in range(ROUNDS):
        for _ in range(4):
            np.sort(batch, axis=1)
        rows = [f"{i},{i * 0.5!r},{'true' if i % 7 == 0 else 'false'}" for i in range(120_000)]
        records = {i: (i, float(i), rows[i]) for i in range(120_000)}
        fresh = np.empty(4_000_000)
        fresh.fill(1.0)
        total += len(records) + int(fresh[-1])
    return total


if __name__ == "__main__":
    job()
