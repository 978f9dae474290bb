"""Exact reference predicates for the tests, outside the package's surface."""

from __future__ import annotations

import numpy as np

from eligirisk import RandVar, SpaceMismatchError


def same_distribution(x: RandVar, y: RandVar) -> bool:
    """True iff the sorted (value, cumulative probability) profiles coincide exactly."""
    if not x.space.compatible(y.space):
        raise SpaceMismatchError("random variables live on different spaces")
    px, py = x.profile, y.profile
    return (
        px.values.size == py.values.size
        and bool(np.all(px.values == py.values))
        and bool(np.all(px.cum == py.cum))
    )
