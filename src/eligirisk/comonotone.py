"""Exact comonotonicity testing, comonotone pair generation, and additivity checks.

Two positions are comonotone when no pair of outcomes orders them in
opposite directions; on a finite space with all-positive atom masses the
atomwise pairwise test is exactly the almost-sure condition.  The pairwise
check is the normative definition; it compares the signs of the atomwise
differences, so no product of tiny differences can underflow to a passing
-0.0.  A sort-based fast path must agree with it and the test suite
enforces that.

Comparisons are exact (``>= 0``, not ``>= -tol``); generated values live on
coarse 1/64 grids so equality cases genuinely occur.  Whether the change of
numeraire preserves comonotonicity is decided exactly: both failure
witnesses are built from the payoff's extreme atoms, with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import _sampling as smp
from .acceptance import AcceptanceSpec
from .engine import EligibleAsset, _payoff_steps, rho
from .reporting import CheckReport
from .spaces import FiniteSpace, RandVar, SpaceMismatchError

__all__ = [
    "ComonoPair",
    "is_comonotone",
    "generate_comonotone_pair",
    "additivity_on_comonotone",
    "additivity_on_S_comonotone",
    "comono_preservation_under_numeraire",
]


@dataclass(frozen=True, eq=False)
class ComonoPair:
    """A comonotone pair, optionally with the common driver it was built from."""

    x: RandVar
    y: RandVar
    driver: RandVar | None = None


def is_comonotone(x: RandVar, y: RandVar, method: str = "sorted") -> bool:
    """Exact comonotonicity test.

    ``pairwise`` checks sign(x_i - x_j) * sign(y_i - y_j) >= 0 over all atom
    pairs and is the normative definition; it allocates two n-by-n arrays, so
    it serves as the oracle in tests.  ``sorted`` (the default) orders atoms
    lexicographically by (x, y) and counts the steps along that order where
    y decreases; it is an O(n log n) equivalent.  On finite floats
    ``s[k+1] < s[k]`` is exactly ``s[k+1] - s[k] < 0``, with ``-0.0`` and
    ``0.0`` a tie.
    """
    if not x.space.compatible(y.space):
        raise SpaceMismatchError("random variables live on different spaces")
    vx, vy = x.values, y.values
    if method == "pairwise":
        dx = np.sign(np.subtract.outer(vx, vx))
        dy = np.sign(np.subtract.outer(vy, vy))
        return bool(np.all(dx * dy >= 0.0))
    if method == "sorted":
        s = vy[np.lexsort((vy, vx))]
        return not np.count_nonzero(s[1:] < s[:-1])
    raise ValueError(f"unknown method {method!r}")


def _monotone_table(rng: np.random.Generator, n_levels: int) -> np.ndarray:
    """Nondecreasing lookup table over driver levels (grid start, grid increments).

    Increments are zero-inflated (negative draws clip to zero), so flat
    stretches and outright constant tables occur with useful frequency.
    """
    start = float(rng.integers(-2 * smp.GRID, 2 * smp.GRID + 1)) / smp.GRID
    raw = rng.integers(-(smp.GRID // 2), smp.GRID // 2 + 1, n_levels)
    table = start + np.cumsum(np.maximum(raw, 0) / smp.GRID)
    return table


def _apply_table(driver_values: np.ndarray, levels: np.ndarray, table: np.ndarray) -> np.ndarray:
    ranks = np.searchsorted(levels, driver_values)
    return table[ranks]


def _pair_on_driver(space: FiniteSpace, driver: RandVar, rng: np.random.Generator) -> ComonoPair:
    """Two nondecreasing step functions of ``driver``: the x table is drawn first, then y."""
    levels = np.unique(driver.values)
    fx = _apply_table(driver.values, levels, _monotone_table(rng, levels.size))
    fy = _apply_table(driver.values, levels, _monotone_table(rng, levels.size))
    return ComonoPair(RandVar(space, fx), RandVar(space, fy), driver=driver)


def generate_comonotone_pair(space: FiniteSpace, seed=0) -> ComonoPair:
    """Draw a driver Z and two nondecreasing step functions of it.

    The functions are cumulative sums of nonnegative grid increments over
    the sorted distinct driver values; zero increments occur, so constant
    stretches and full constants are generated.  The output passes
    :func:`is_comonotone` by construction.
    """
    rng = smp.as_rng(seed)
    return _pair_on_driver(space, smp.grid_randvar(space, rng), rng)


def _requirement(
    spec: AcceptanceSpec, asset: EligibleAsset, tol: float | None = None
) -> Callable[[RandVar], float]:
    """The requirement X -> rho(X) at solver tolerance ``tol``.

    ``rho`` is looked up on every call, not bound once, so that a wrapper
    installed on this module's ``rho`` sees every evaluation.
    """
    return lambda x: rho(spec, asset, x, tol=tol).value


def additivity_on_comonotone(
    rho_fn: Callable[[RandVar], float],
    space: FiniteSpace,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckReport:
    """Sampled comonotonic additivity of an arbitrary functional handle.

    Passes iff |rho(X + Y) - rho(X) - rho(Y)| <= tol on every generated
    comonotone pair; otherwise the pair with the largest gap is reported as
    drawn.  No statement checker calls it: it is the sampled reference that
    the constructed decisions of :mod:`eligirisk.theorems` are tested against.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    worst: tuple[float, RandVar, RandVar] | None = None
    for _ in range(trials):
        pair = generate_comonotone_pair(space, rng)
        gap = rho_fn(pair.x + pair.y) - rho_fn(pair.x) - rho_fn(pair.y)
        if abs(gap) > tol and (worst is None or abs(gap) > abs(worst[0])):
            worst = (gap, pair.x, pair.y)
    if worst is None:
        return CheckReport("comonotone-additivity", True, trials, seed)
    gap, x, y = worst
    assert is_comonotone(x, y)
    return CheckReport(
        "comonotone-additivity", False, trials, seed,
        witness={"x": x, "y": y, "gap": gap},
        note="superadditive" if gap > 0 else "subadditive",
    )


def additivity_on_S_comonotone(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Additivity restricted to pairs comonotone with the asset payoff.

    Pairs are nondecreasing step functions of the payoff itself, so
    {X, Y, S1} always forms a comonotonic set.  The constant pair (1, -1)
    comes first: its gap is nonzero iff F(S1) + F(-S1) != 0, which holds for
    ES and pointed mixtures whenever the payoff is nonconstant, and for VaR
    whenever the quantiles of S1 at alpha and 1 - alpha differ.  A gap
    above ``tol`` fails the check at once, with one sample and no seed.
    Otherwise deterministic probes pair negated level-set steps of the
    payoff with constants before the randomized phase.  The constant pair
    counts as one sample: rho(0) is exactly 0, so its gap -(rho(1) + rho(-1))
    is that of (-1, 1) bit for bit, and that pair is not probed again.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    space = asset.payoff.space
    rho_fn = _requirement(spec, asset, min(tol * 1e-2, 1e-12))

    def gap_of(pair: ComonoPair) -> float:
        return rho_fn(pair.x + pair.y) - rho_fn(pair.x) - rho_fn(pair.y)

    consts = [RandVar.constant(space, c) for c in (1.0, -1.0)]
    gap = gap_of(ComonoPair(*consts))
    if abs(gap) > tol:
        return CheckReport(
            "asset-comonotone-additivity", False, 1, None,
            witness={"x": consts[0], "y": consts[1], "gap": gap},
            note=("superadditive" if gap > 0 else "subadditive") + " on the constant pair (1, -1)",
        )

    steps = _payoff_steps(asset)
    probes = [ComonoPair(sx, sy) for sx in steps for sy in steps + consts]
    probes.append(ComonoPair(consts[0], consts[0]))
    draws = (_pair_on_driver(space, asset.payoff, rng) for _ in range(trials))
    worst: tuple[float, RandVar, RandVar] | None = None
    for pair in chain(probes, draws):
        gap = gap_of(pair)
        if abs(gap) > tol and (worst is None or abs(gap) > abs(worst[0])):
            worst = (gap, pair.x, pair.y)
    count = 1 + len(probes) + trials
    if worst is None:
        return CheckReport("asset-comonotone-additivity", True, count, seed)
    gap, x, y = worst
    assert is_comonotone(x, y) and is_comonotone(x, asset.payoff) and is_comonotone(y, asset.payoff)
    return CheckReport(
        "asset-comonotone-additivity", False, count, seed,
        witness={"x": x, "y": y, "gap": gap},
        note="superadditive" if gap > 0 else "subadditive",
    )


def _numeraire_witnesses(payoff: RandVar) -> tuple[dict, dict]:
    """Forward and reverse numeraire witnesses built from the extreme payoff atoms.

    With i = argmin S1 and j = argmax S1 (so s_i < s_j for a nonconstant
    payoff):

    * forward: X' = 1_i and Y' = 1_i + 1_j are comonotone; their products
      with S1 are exact and order atoms i and j in opposite ways;
    * reverse: X' = s_j on i and s_i on j, Y' = 1_j, are not comonotone; the
      products tie on i and j because IEEE multiplication commutes, so they
      are comonotone.

    The reverse entries are scaled by 2**-e, e = max(0, a + b - 1023) for
    the frexp exponents a, b of s_i, s_j, so that s_i * s_j cannot overflow.
    Scaling by a power of two that leaves both entries normal is exact, so
    the products still tie.
    """
    space, s = payoff.space, payoff.values
    i, j = int(np.argmin(s)), int(np.argmax(s))
    e = max(0, math.frexp(s[i])[1] + math.frexp(s[j])[1] - 1023)

    def one(*atoms: int) -> RandVar:
        return RandVar.indicator(space, atoms)

    def witness(x_disc: RandVar, y_disc: RandVar) -> dict:
        return {"x_discounted": x_disc, "y_discounted": y_disc,
                "x": x_disc * payoff, "y": y_disc * payoff}

    forward = witness(one(i), one(i, j))
    reverse = witness(math.ldexp(s[j], -e) * one(i) + math.ldexp(s[i], -e) * one(j), one(j))
    return forward, reverse


def comono_preservation_under_numeraire(asset: EligibleAsset) -> CheckReport:
    """Decide whether multiplication by the payoff preserves comonotonicity.

    Forward failure: a comonotone discounted pair whose products with the
    payoff are not comonotone.  Reverse failure: a non-comonotone discounted
    pair whose products are comonotone.  A constant payoff preserves
    comonotonicity exactly; every nonconstant payoff fails in both
    directions, with witnesses built by construction and re-verified
    through :func:`is_comonotone`.
    """
    if asset.risk_free:
        return CheckReport(
            "numeraire-comonotonicity", True, 1, None,
            note="constant payoff: multiplication preserves comonotonicity exactly",
        )
    forward, reverse = _numeraire_witnesses(asset.payoff)
    for w, discounted_comonotone in ((forward, True), (reverse, False)):
        if (is_comonotone(w["x_discounted"], w["y_discounted"]) != discounted_comonotone
                or is_comonotone(w["x"], w["y"]) == discounted_comonotone):
            raise ArithmeticError("numeraire witness failed re-verification through is_comonotone")
    return CheckReport(
        "numeraire-comonotonicity", False, 1, None,
        witness={"forward": forward, "reverse": reverse},
        note="witnesses in both directions: multiplication by the payoff disrupts comonotonicity",
    )
