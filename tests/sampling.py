"""Seeded comonotone pair sampling: the slow oracle of the tests.

No statement checker samples; the tests compare the package's constructed
decisions against these seeded draws.  Values are drawn as multiples of
1/64 so that exact ties occur and the boundary cases of the exact
(tolerance-free) comparisons get exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from eligirisk import CheckReport, FiniteSpace, RandVar, is_comonotone
from eligirisk.engine import _payoff_steps, _requirement

GRID = 64
#: Draws lie on the grid within [-SPAN, SPAN].
SPAN = 4


def as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def grid_randvar(space: FiniteSpace, rng: np.random.Generator) -> RandVar:
    return RandVar._fresh(space, rng.integers(-SPAN * GRID, SPAN * GRID + 1, space.n_atoms) / GRID)


@dataclass(frozen=True, eq=False)
class ComonoPair:
    """A comonotone pair, optionally with the common driver it was built from."""

    x: RandVar
    y: RandVar
    driver: RandVar | None = None


def monotone_table(rng: np.random.Generator, n_levels: int) -> np.ndarray:
    """Nondecreasing lookup table over driver levels (grid start, grid increments).

    Increments are zero-inflated (negative draws clip to zero), so flat
    stretches and outright constant tables occur with useful frequency.
    """
    start = float(rng.integers(-2 * GRID, 2 * GRID + 1)) / GRID
    raw = rng.integers(-(GRID // 2), GRID // 2 + 1, n_levels)
    return start + np.cumsum(np.maximum(raw, 0) / GRID)


def apply_table(driver_values: np.ndarray, levels: np.ndarray, table: np.ndarray) -> np.ndarray:
    return table[np.searchsorted(levels, driver_values)]


def pair_on_driver(space: FiniteSpace, driver: RandVar, rng: np.random.Generator) -> ComonoPair:
    """Two nondecreasing step functions of ``driver``: the x table is drawn first, then y."""
    levels = np.unique(driver.values)
    fx = apply_table(driver.values, levels, monotone_table(rng, levels.size))
    fy = apply_table(driver.values, levels, monotone_table(rng, levels.size))
    return ComonoPair(RandVar(space, fx), RandVar(space, fy), driver=driver)


def generate_comonotone_pair(space: FiniteSpace, seed=0) -> ComonoPair:
    """Draw a driver Z and two nondecreasing step functions of it.

    The functions are cumulative sums of nonnegative grid increments over
    the sorted distinct driver values; zero increments occur, so constant
    stretches and full constants are generated.  The output passes
    ``is_comonotone`` by construction.
    """
    rng = as_rng(seed)
    return pair_on_driver(space, grid_randvar(space, rng), rng)


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
    drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_rng(seed)
    worst: tuple[float, RandVar, RandVar] | None = None
    for _ in range(trials):
        pair = generate_comonotone_pair(space, rng)
        gap = rho_fn(pair.x + pair.y) - rho_fn(pair.x) - rho_fn(pair.y)
        if abs(gap) > tol and (worst is None or abs(gap) > abs(worst[0])):
            worst = (gap, pair.x, pair.y)
    if worst is None:
        return CheckReport("comonotone-additivity", True, trials)
    gap, x, y = worst
    assert is_comonotone(x, y)
    return CheckReport(
        "comonotone-additivity", False, trials,
        witness={"x": x, "y": y, "gap": gap},
        note="superadditive" if gap > 0 else "subadditive",
    )


def probe_and_draw_passes(spec, asset, trials: int, seed: int, tol: float = 1e-9) -> bool:
    """Sampled additivity on pairs comonotone with the payoff, without the constant pair first.

    The pairs are the negated payoff level-set steps, each with every step
    and with 1 and -1, then (1, 1) and (-1, 1), then ``trials`` seeded pairs
    of nondecreasing step functions of the payoff; a gap above ``tol``
    fails.  This is the sampled reference that
    ``additivity_on_S_comonotone``'s exact decision is tested against.
    """
    rng = as_rng(seed)
    space = asset.payoff.space
    rho_fn = _requirement(spec, asset, min(tol * 1e-2, 1e-12))
    steps = list(_payoff_steps(asset))
    consts = [RandVar.constant(space, c) for c in (1.0, -1.0)]
    pairs = [(sx, sy) for sx in steps for sy in steps + consts]
    pairs += [(cx, consts[0]) for cx in consts]
    for _ in range(trials):
        pair = pair_on_driver(space, asset.payoff, rng)
        pairs.append((pair.x, pair.y))
    return all(abs(rho_fn(x + y) - rho_fn(x) - rho_fn(y)) <= tol for x, y in pairs)
