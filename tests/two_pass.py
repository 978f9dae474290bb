"""The two-pass Newton kernel: the oracle of ``measures.shortfall_and_slope``.

The package prices a Newton iterate by one fused walk.  This is the
composition it replaced, kept as the tests' oracle: one argsort, a loop walk
of the lower tail that also records where each run starts, a rescan of the
runs below each level for its slope, and the mixture's breakpoint sums over
the walk.  The fused walk must return its ``(value, slope)`` bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from eligirisk import DistortionWeights, FiniteSpace, RandVar, expectation
from eligirisk.measures import _shortfall_sum


def walk_with_starts(
    space: FiniteSpace, vals: list[float], order: list[int], level: float
) -> tuple[list[float], list[float], list[tuple[int, int]]]:
    """The loop walk of ``spaces._lower_tail`` over ``vals`` sorted by ``order``, with its run starts.

    ``starts[k]`` is ``(j, acc)``: run ``k`` begins at ``order[j]``, after
    the runs whose numerators sum to ``acc``.  One more start closes the
    last run, so run ``k`` is ``order[starts[k][0]:starts[k + 1][0]]``.
    """
    nums, den = space.int_probs
    last = vals[order[0]] + 0.0
    distinct = [last]
    cum: list[float] = []
    starts = [(0, 0)]
    acc = 0
    for j, i in enumerate(order):
        v = vals[i]
        if v != last:  # the run of the previous value ends: round its sum once
            c = acc / den
            cum.append(c)
            starts.append((j, acc))
            if c > level:
                return distinct, cum, starts
            last = v + 0.0
            distinct.append(last)
        acc += nums[i]
    cum.append(1.0)
    starts.append((len(order), acc))
    return distinct, cum, starts


def two_pass_value_and_slope(
    space: FiniteSpace,
    values: np.ndarray,
    mu: DistortionWeights,
    payoff: list[float],
    mass: list[float],
    mean: float,
) -> tuple[float, float]:
    """``shortfall_and_slope``'s value and right slope, walk first and levels after.

    Each level below 1 finds the run reaching it by bisection in ``cum``,
    sums the p * S1 of every atom before that run again, and takes the
    run's atoms by ascending payoff up to the level; level 0 takes the first
    run's least payoff and level 1 takes ``mean``.  The value is the
    mixture of the breakpoint sums over the same walk.
    """
    y = RandVar(space, values)
    nums, den = space.int_probs
    order = values.argsort().tolist()
    below = [a for a, _ in mu.points if a < 1.0]
    distinct, cum, starts = walk_with_starts(space, values.tolist(), order, max(below) if below else 0.0)
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
    value = math.fsum(
        w * (-distinct[0] if a == 0.0 else -expectation(y) if a == 1.0 else _shortfall_sum(distinct, cum, a))
        for a, w in mu.points
    )
    return value, slope
