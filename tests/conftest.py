"""Shared test configuration.

BLAS thread pools must be pinned before numpy loads: the matrices here are
small (n <= a few hundred) and multi-threaded BLAS spends more time
spawning threads than multiplying.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def replicate_layout():
    """Draws training rows (x, y) from a generator as DI sets lay them out:
    2-8 states in 1-3 input dimensions, 1-5 replicates of each, shuffled."""

    def draw(rng):
        states = rng.uniform(0.0, 4.0, size=(rng.integers(2, 9), rng.integers(1, 4)))
        x = np.repeat(states, rng.integers(1, 6, size=len(states)), axis=0)
        x = x[rng.permutation(len(x))]
        return x, rng.normal(size=len(x))

    return draw
