"""Exact evaluation of value-at-risk, expected shortfall, and distortion mixtures.

All functionals here are cash additive, positively homogeneous, decreasing,
and law invariant.  Expected shortfall is integrated exactly by enumerating
the breakpoints of the quantile function, so the independent Choquet-style
evaluation :func:`es_choquet_oracle` must agree with :func:`es` up to
floating-point rounding; the test suite asserts exactly that.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .spaces import RandVar, _lower_tail, _walk, expectation, upper_quantile

__all__ = [
    "Level",
    "DistortionWeights",
    "var",
    "var_of_ratio",
    "es",
    "distortion",
    "shortfall_and_slope",
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

    Levels live in [0, 1] and must be distinct; level 0 is the worst case
    -min(X) and level 1 the negated expectation.  Weights are strictly positive,
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


def var_of_ratio(x: RandVar, payoff: RandVar, level: Level) -> float:
    """``var(X / S1, level)`` taken on the raw quotient of the atom values.

    A payoff near 0 can overflow an atom of X / S1 to +-inf, which then only
    orders the atoms: the result is finite unless the order statistic itself
    overflowed.
    """
    with np.errstate(over="ignore"):
        ratio = x.values / payoff.values
    return -_lower_tail(x.space, ratio, level.alpha)[0][-1]


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
    return _shortfall_sum(*_lower_tail(x.space, x.values, alpha), alpha)


def _mixture(
    x: RandVar, points: tuple[tuple[float, float], ...], distinct: list[float], cum: list[float]
) -> float:
    """The mixture over ``points`` from a walk of ``x`` past its largest level below 1.

    Level 0 is the worst case ``-distinct[0]``, -min(X) up to the sign of a
    zero, which ``fsum`` drops; level 1 is ``-expectation(x)``.
    """
    return math.fsum(
        w * (-distinct[0] if a == 0.0 else -expectation(x) if a == 1.0 else _shortfall_sum(distinct, cum, a))
        for a, w in points
    )


def distortion(x: RandVar, mu: DistortionWeights) -> float:
    """Weighted mixture of expected shortfall over the levels in ``mu``.

    One walk of the lower tail, up to the largest level below 1, serves
    every level but 1.
    """
    below = [a for a, _ in mu.points if a < 1.0]
    values, cum = _lower_tail(x.space, x.values, max(below)) if below else ([], [])
    return _mixture(x, mu.points, values, cum)


def shortfall_and_slope(
    y: RandVar, mu: DistortionWeights, payoff: list[float], mass: list[float], mean: float
) -> tuple[float, float]:
    """The mixture value at ``y`` and its right slope along a payoff.

    The value is :func:`distortion` bit for bit: one argsort and the loop
    walk of :func:`~eligirisk.spaces._lower_tail`
    (:func:`~eligirisk.spaces._walk`), which also gives each run's start.
    The slope is the right derivative of t -> value(Y + t * S1) at t = 0.
    Just right of 0 the atoms sort by Y, ties by S1, so level alpha's slope
    is minus the mass of the runs below alpha, plus that of the run
    reaching alpha taken by ascending payoff up to alpha, over alpha.  Level
    0 takes the first run's least payoff and level 1 takes E[S1].
    ``payoff`` lists S1 by atom, ``mass`` lists p * S1 and ``mean`` is
    E[S1]; a Newton solve takes them once per quote.
    """
    nums, den = y.space.int_probs
    order = y.values.argsort().tolist()
    below = [a for a, _ in mu.points if a < 1.0]
    distinct, cum, starts = _walk(y.space, y.values.tolist(), order, max(below) if below else 0.0)
    slope = 0.0
    for alpha, weight in mu.points:
        if alpha == 0.0:
            s = -min(payoff[i] for i in order[: starts[1][0]])
        elif alpha == 1.0:
            s = -mean
        else:
            k = bisect_left(cum, alpha)
            j, acc = starts[k]
            end = starts[k + 1][0]
            part = 0.0
            for i in order[:j]:  # the mass of the runs below alpha, summed in sorted order
                part += mass[i]
            before = cum[k - 1] if k else 0.0
            # the run's atoms by ascending payoff until cum reaches alpha; the last takes the rest
            if end - j > 1:
                for i in sorted(order[j:end], key=payoff.__getitem__):
                    acc += nums[i]
                    c = acc / den
                    if c >= alpha:
                        break
                    part += (c - before) * payoff[i]
                    before = c
            else:
                i = order[j]
            s = -(part / alpha + (alpha - before) / alpha * payoff[i])
        slope += weight * s
    return _mixture(y, mu.points, distinct, cum), slope


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
