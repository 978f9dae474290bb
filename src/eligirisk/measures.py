"""Exact evaluation of value-at-risk, expected shortfall, and distortion mixtures.

All functionals here are cash additive, positively homogeneous, decreasing,
and law invariant.  Expected shortfall is integrated exactly by enumerating
the breakpoints of the quantile function, so the independent Choquet-style
evaluation :func:`es_choquet_oracle` must agree with :func:`es` up to
floating-point rounding; the test suite asserts exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import RandVar, _lower_tail, essential_infimum, expectation, upper_quantile

__all__ = [
    "Level",
    "DistortionWeights",
    "var",
    "es",
    "es_boundary",
    "distortion",
    "es_choquet_oracle",
]

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Level:
    """Confidence level strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True, eq=False)
class DistortionWeights:
    """Finite mixture over shortfall levels: pairs (alpha_j, w_j).

    Levels live in [0, 1] and must be distinct; the endpoints carry the
    boundary meanings of :func:`es_boundary`.  Weights are strictly positive,
    must sum to 1 within ``WEIGHT_SUM_TOL``, and are renormalized by their
    exact sum.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(a), float(w)) for a, w in self.points)
        if not pts:
            raise ValueError("a distortion mixture needs at least one point")
        alphas = [a for a, _ in pts]
        if len(set(alphas)) != len(alphas):
            raise ValueError("mixture levels must be distinct")
        for a, w in pts:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"mixture level {a} outside [0, 1]")
            if not w > 0.0:
                raise ValueError(f"mixture weight {w} must be strictly positive")
        total = math.fsum(w for _, w in pts)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        pts = tuple((a, w / total) for a, w in pts)
        object.__setattr__(self, "points", pts)

    @property
    def is_pure_expectation(self) -> bool:
        return self.points == ((1.0, 1.0),)


def var(x: RandVar, level: Level) -> float:
    """Least cash m with P(X + m < 0) <= alpha; the negated upper quantile.

    On a finite space the defining infimum is attained, and the closed form
    below matches it exactly.
    """
    return -upper_quantile(x, level.alpha)


def _shortfall_sum(values: list[float], cum: list[float], alpha: float) -> float:
    """Breakpoint sum of the quantile function over ``[0, alpha)``, divided by ``alpha``.

    ``values``/``cum`` is a prefix of the profile reaching past ``alpha``
    (or to its pinned end).
    """
    acc = 0.0
    prev = 0.0
    for v, c in zip(values, cum):
        hi = c if c < alpha else alpha
        if hi > prev:
            acc += (-v) * (hi - prev)
            prev = hi
        if c >= alpha:
            break
    return acc / alpha


def es(x: RandVar, level: Level) -> float:
    """Average of var over levels in (0, alpha], integrated exactly.

    The quantile function of ``x`` is a right-continuous step function of the
    level, constant on ``[cum[k-1], cum[k])``; the integral is the sum of
    piece values times overlap lengths with ``[0, alpha)``, so no quadrature
    error enters.  Only the lower tail up to ``alpha`` is walked.
    """
    alpha = level.alpha
    return _shortfall_sum(*_lower_tail(x, alpha), alpha)


def es_boundary(x: RandVar, alpha: float) -> float:
    """Boundary extensions: worst case at 0, negated expectation at 1."""
    if alpha == 0:
        return -essential_infimum(x)
    if alpha == 1:
        return -expectation(x)
    raise ValueError(f"boundary level must be 0 or 1, got {alpha}")


def distortion(x: RandVar, mu: DistortionWeights) -> float:
    """Weighted mixture of expected shortfall over the levels in ``mu``.

    One walk of the lower tail, up to the largest interior level, serves
    every interior level.
    """
    interior = [a for a, _ in mu.points if 0.0 < a < 1.0]
    values, cum = _lower_tail(x, max(interior)) if interior else ([], [])
    return math.fsum(
        w * (es_boundary(x, a) if a in (0.0, 1.0) else _shortfall_sum(values, cum, a))
        for a, w in mu.points
    )


def es_choquet_oracle(x: RandVar, level: Level) -> float:
    """Expected shortfall via a Choquet-style weighted sum of order statistics.

    Sort the atoms by value, push the cumulative probabilities through the
    concave distortion t -> min(t / alpha, 1), and weight each value by the
    increment it receives.  This path shares no code with :func:`es` and
    serves as its independent cross-check.
    """
    order = np.argsort(x.values, kind="stable")
    v = x.values[order]
    p = x.space.probs[order]
    cum = np.cumsum(p)
    cum[-1] = 1.0
    g = np.minimum(cum / level.alpha, 1.0)
    inc = np.diff(np.concatenate(([0.0], g)))
    return float(-np.dot(inc, v))
