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

from .spaces import FiniteSpace, RandVar, _lower_tail, _mean, expectation, upper_quantile

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


def distortion(x: RandVar, mu: DistortionWeights) -> float:
    """Weighted mixture of expected shortfall over the levels in ``mu``.

    One walk of the lower tail, up to the largest level below 1, serves
    every level but 1.  Level 0 is the worst case ``-values[0]``, -min(X) up
    to the sign of a zero, which ``fsum`` drops; level 1 is
    ``-expectation(x)``.
    """
    below = [a for a, _ in mu.points if a < 1.0]
    values, cum = _lower_tail(x.space, x.values, max(below)) if below else ([], [])
    return math.fsum(
        w * (-values[0] if a == 0.0 else -expectation(x) if a == 1.0 else _shortfall_sum(values, cum, a))
        for a, w in mu.points
    )


def _straddle_slope(
    order: list[int], nums: list[int], den: int, payoff: list[float],
    j: int, end: int, acc: int, part: float, before: float, alpha: float,
) -> float:
    """Level ``alpha``'s slope from the run ``order[j:end]``, the first to reach ``cum >= alpha``.

    ``acc`` and ``part`` are the numerators and the p * S1 of the atoms
    before the run, ``before`` the cum of the run before it (0.0 for the
    first).  The run's atoms are taken by ascending payoff until cum reaches
    ``alpha``; the last takes the rest.
    """
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
    return -(part / alpha + (alpha - before) / alpha * payoff[i])


def shortfall_and_slope(
    space: FiniteSpace,
    values: np.ndarray,
    mu: DistortionWeights,
    payoff: list[float],
    mass: list[float],
    mean: float,
) -> tuple[float, float]:
    """The mixture value at Y = ``values`` and its right slope along a payoff.

    The value is :func:`distortion` bit for bit, and the slope is the right
    derivative of t -> value(Y + t * S1) at t = 0.  Just right of 0 the
    atoms sort by Y, ties by S1, so level alpha's slope is minus the mass of
    the runs below alpha, plus that of the run reaching alpha taken by
    ascending payoff up to alpha, over alpha.  Level 0 takes the first run's
    least payoff and level 1 takes E[S1].  ``values`` must be finite;
    ``payoff`` lists S1 by atom, ``mass`` lists p * S1 and ``mean`` is E[S1],
    read only for a level-1 point; a Newton solve takes them once per quote.

    One argsort and one walk of the atoms in sorted order carry the
    numerators, p * S1 and the shortfall sum over the runs passed.  Each
    level is resolved where a run first reaches it, with the breakpoint sum
    of :func:`_shortfall_sum` and the run's slope, and the walk stops at the
    largest level below 1.
    """
    terms: dict[float, tuple[float, float]] = {}
    pending = sorted([a for a, _ in mu.points if a < 1.0])
    if pending:
        nums, den = space.int_probs
        vals, order = values.tolist(), values.argsort().tolist()
        n, r = len(order), 0
        vals.append(math.nan)  # a nan past the last atom ends the last run
        order.append(n)
        last = vals[order[0]] + 0.0
        # numerators, p * S1 and the shortfall sum over the runs passed, and their
        # last cum: it never falls before the pinned end, so both sums break at it
        acc, part, tail, prev = 0, 0.0, 0.0, 0.0
        start, acc0, part0 = 0, 0, 0.0  # where the current run starts
        for j, i in enumerate(order):
            v = vals[i]
            if v != last:  # the run of ``last`` ends at j: resolve the levels it reaches
                c = acc / den if j < n else 1.0
                while r < len(pending) and c >= pending[r]:
                    alpha = pending[r]
                    if alpha == 0.0:
                        terms[alpha] = -last, -min(payoff[k] for k in order[:j])
                    else:
                        terms[alpha] = (
                            (tail + (-last) * (alpha - prev)) / alpha,
                            _straddle_slope(order, nums, den, payoff, start, j, acc0, part0, prev, alpha),
                        )
                    r += 1
                if r == len(pending):
                    break
                if c > prev:
                    tail += (-last) * (c - prev)
                    prev = c
                start, acc0, part0 = j, acc, part
                last = v + 0.0
            acc += nums[i]
            part += mass[i]
    parts, slope = [], 0.0
    for a, w in mu.points:
        value, s = terms[a] if a < 1.0 else (-_mean(space, values), -mean)
        parts.append(w * value)
        slope += w * s
    return math.fsum(parts), slope


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
    # each product rounded once, then one correctly rounded sum: no BLAS kernel decides it
    return -math.fsum((inc * v).tolist())
