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

from .spaces import RandVar, _lower_tail, essential_infimum, expectation, upper_quantile

__all__ = [
    "Level",
    "DistortionWeights",
    "var",
    "var_of_ratio",
    "es",
    "es_boundary",
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
    values, cum = _lower_tail(x.space, x.values, max(interior)) if interior else ([], [])
    return math.fsum(
        w * (es_boundary(x, a) if a in (0.0, 1.0) else _shortfall_sum(values, cum, a))
        for a, w in mu.points
    )


def shortfall_and_slope(
    y: RandVar, mu: Level | DistortionWeights, payoff: list[float], mass: list[float], mean: float
) -> tuple[float, float]:
    """ES (``mu`` a :class:`Level`) or mixture value at ``y`` and its right slope along a payoff.

    The value is :func:`es` or :func:`distortion` bit for bit: one argsort
    and the walk of :func:`~eligirisk.spaces._lower_tail`, which also sums
    ``mass`` per run.  The slope is the right derivative of
    t -> value(Y + t * S1) at t = 0.  Just right of 0 the atoms sort by Y,
    ties by S1, so level alpha's slope is minus the mass of the runs below
    alpha, plus that of the run reaching alpha taken by ascending payoff up
    to alpha, over alpha.  Level 0 takes the first run's least payoff and
    level 1 takes E[S1].  ``payoff`` lists S1 by atom, ``mass`` lists p * S1
    and ``mean`` is E[S1]; a Newton solve takes them once per quote.
    """
    points = ((mu.alpha, 1.0),) if isinstance(mu, Level) else mu.points
    interior = [a for a, _ in points if 0.0 < a < 1.0]
    level = max(interior) if interior else 0.0
    nums, den = y.space.int_probs
    vals = y.values.tolist()
    order = y.values.argsort().tolist()
    last = vals[order[0]] + 0.0
    distinct, cum = [last], []
    # run k is order[starts[k][0]:starts[k + 1][0]], after sums starts[k][1:] of nums and mass
    starts = [(0, 0, 0.0)]
    acc, total = 0, 0.0
    for j, i in enumerate(order):
        v = vals[i]
        if v != last:
            c = acc / den
            cum.append(c)
            starts.append((j, acc, total))
            if c > level:
                break
            last = v + 0.0
            distinct.append(last)
        acc += nums[i]
        total += mass[i]
    else:
        cum.append(1.0)
        starts.append((len(order), acc, total))
    slope = 0.0
    for alpha, weight in points:
        if alpha == 0.0:
            s = -min(payoff[i] for i in order[: starts[1][0]])
        elif alpha == 1.0:
            s = -mean
        else:
            k = bisect_left(cum, alpha)
            j, acc, part = starts[k]
            end = starts[k + 1][0]
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
    if isinstance(mu, Level):
        return _shortfall_sum(distinct, cum, mu.alpha), slope
    # -distinct[0] is es_boundary's -min(Y) up to the sign of a zero, which fsum drops
    value = math.fsum(
        w * (-distinct[0] if a == 0.0 else -expectation(y) if a == 1.0 else _shortfall_sum(distinct, cum, a))
        for a, w in points
    )
    return value, slope


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
