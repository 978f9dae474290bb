"""Seeded coarse-grid samplers used by the randomized checkers.

Values are drawn as multiples of 1/64 so that exact ties occur and the
boundary cases of the exact (tolerance-free) comparisons get exercised.
"""

from __future__ import annotations

import numpy as np

from .spaces import FiniteSpace, RandVar

GRID = 64


def as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def grid_randvar(space: FiniteSpace, rng: np.random.Generator, span: float = 4.0) -> RandVar:
    k = int(span * GRID)
    return RandVar._fresh(space, rng.integers(-k, k + 1, space.n_atoms) / GRID)


def nonconstant_grid_randvar(
    space: FiniteSpace, rng: np.random.Generator, span: float = 4.0
) -> RandVar:
    if space.n_atoms < 2:
        raise ValueError("need at least two atoms for a nonconstant draw")
    while True:
        x = grid_randvar(space, rng, span)
        if not x.is_constant:
            return x


def grid_scalar(rng: np.random.Generator, span: float = 4.0) -> float:
    k = int(span * GRID)
    return float(rng.integers(-k, k + 1)) / GRID

