"""Seeded coarse-grid sampling for the comonotone pairs of :mod:`eligirisk.comonotone`.

Values are drawn as multiples of 1/64 so that exact ties occur and the
boundary cases of the exact (tolerance-free) comparisons get exercised.
"""

from __future__ import annotations

import numpy as np

from .spaces import FiniteSpace, RandVar

GRID = 64
#: Draws lie on the grid within [-SPAN, SPAN].
SPAN = 4


def as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def grid_randvar(space: FiniteSpace, rng: np.random.Generator) -> RandVar:
    return RandVar._fresh(space, rng.integers(-SPAN * GRID, SPAN * GRID + 1, space.n_atoms) / GRID)
