"""Exact comonotonicity testing, comonotone pair generation, and additivity checks.

Two positions are comonotone when no pair of outcomes orders them in
opposite directions; on a finite space with all-positive atom masses the
atomwise pairwise product test is exactly the almost-sure condition.  The
pairwise check is the normative definition; a sort-based fast path must
agree with it and the test suite enforces that.

Comparisons are exact (``>= 0``, not ``>= -tol``); generated values live on
coarse 1/64 grids so equality cases genuinely occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import _sampling as smp
from .acceptance import AcceptanceSpec
from .engine import EligibleAsset, rho
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

    ``pairwise`` checks (x_i - x_j)(y_i - y_j) >= 0 over all atom pairs and
    is the normative definition; it allocates two n-by-n arrays, so it serves
    as the oracle in tests.  ``sorted`` (the default) orders atoms
    lexicographically by (x, y) and verifies y is nondecreasing along the
    order; it is an O(n log n) equivalent.
    """
    if not x.space.compatible(y.space):
        raise SpaceMismatchError("random variables live on different spaces")
    vx, vy = x.values, y.values
    if method == "pairwise":
        dx = np.subtract.outer(vx, vx)
        dy = np.subtract.outer(vy, vy)
        return bool(np.all(dx * dy >= 0.0))
    if method == "sorted":
        order = np.lexsort((vy, vx))
        return bool(np.all(np.diff(vy[order]) >= 0.0))
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


def _payoff_steps(asset: EligibleAsset) -> list[RandVar]:
    """Negated level-set steps -c * 1{S1 <= t}, c in (1, 2), below the top payoff level."""
    payoff = asset.payoff
    return [
        RandVar(payoff.space, np.where(payoff.values <= t, -c, 0.0))
        for t in np.unique(payoff.values)[:-1]
        for c in (1.0, 2.0)
    ]


def _shrink_witness(
    rho_fn: Callable[[RandVar], float],
    x: RandVar,
    y: RandVar,
    tol: float,
) -> tuple[RandVar, RandVar, float]:
    """Deterministic witness refinement: rescale for a larger gap, then zero atoms.

    Every intermediate candidate must stay comonotone and keep violating;
    the final pair is re-verified by the caller.
    """

    def gap_of(a: RandVar, b: RandVar) -> float:
        return rho_fn(a + b) - rho_fn(a) - rho_fn(b)

    best_gap = gap_of(x, y)
    for t in (2.0, 4.0):
        for c in (0.0, 1.0, -1.0):
            cand_x, cand_y = t * x + c, t * y
            if not is_comonotone(cand_x, cand_y):
                continue
            g = gap_of(cand_x, cand_y)
            if abs(g) > abs(best_gap):
                x, y, best_gap = cand_x, cand_y, g
    changed = True
    while changed:
        changed = False
        for i in range(x.space.n_atoms):
            if x.values[i] == 0.0 and y.values[i] == 0.0:
                continue
            vx = x.values.copy()
            vy = y.values.copy()
            vx[i] = 0.0
            vy[i] = 0.0
            cand_x, cand_y = RandVar(x.space, vx), RandVar(y.space, vy)
            if not is_comonotone(cand_x, cand_y):
                continue
            g = gap_of(cand_x, cand_y)
            if abs(g) > tol and abs(g) >= 0.5 * abs(best_gap):
                x, y, best_gap = cand_x, cand_y, g
                changed = True
    return x, y, best_gap


def additivity_on_comonotone(
    rho_fn: Callable[[RandVar], float],
    space: FiniteSpace,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckReport:
    """Sampled comonotonic additivity of an arbitrary functional handle.

    Passes iff |rho(X + Y) - rho(X) - rho(Y)| <= tol on every generated
    comonotone pair; otherwise the worst violating pair is refined to a
    small-support witness and reported.
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
    x, y, gap = _shrink_witness(rho_fn, worst[1], worst[2], tol)
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
    {X, Y, S1} always forms a comonotonic set.  Deterministic probes pair
    negated level-set steps of the payoff with constants before the
    randomized phase.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    space = asset.payoff.space
    rho_fn = _requirement(spec, asset, min(tol * 1e-2, 1e-12))

    steps = _payoff_steps(asset)
    consts = [RandVar.constant(space, c) for c in (1.0, -1.0)]
    probes = [ComonoPair(sx, sy) for sx in steps for sy in steps + consts]
    probes += [ComonoPair(cx, consts[0]) for cx in consts]
    draws = (_pair_on_driver(space, asset.payoff, rng) for _ in range(trials))
    worst: tuple[float, RandVar, RandVar] | None = None
    for pair in chain(probes, draws):
        gap = rho_fn(pair.x + pair.y) - rho_fn(pair.x) - rho_fn(pair.y)
        if abs(gap) > tol and (worst is None or abs(gap) > abs(worst[0])):
            worst = (gap, pair.x, pair.y)
    count = len(probes) + trials
    if worst is None:
        return CheckReport("asset-comonotone-additivity", True, count, seed)
    gap, x, y = worst
    assert is_comonotone(x, y) and is_comonotone(x, asset.payoff) and is_comonotone(y, asset.payoff)
    return CheckReport(
        "asset-comonotone-additivity", False, count, seed,
        witness={"x": x, "y": y, "gap": gap},
        note="superadditive" if gap > 0 else "subadditive",
    )


def _numeraire_forward_probe(asset: EligibleAsset) -> tuple[RandVar, RandVar]:
    """Comonotone discounted pair whose undiscounted versions are not comonotone.

    With atoms i, j carrying the smallest and largest payoff, a pair that
    decreases from i to j more slowly than the payoff grows flips order under
    multiplication while staying comonotone itself.
    """
    space = asset.payoff.space
    s = asset.payoff.values
    i = int(np.argmin(s))
    j = int(np.argmax(s))
    ratio = float(s[j] / s[i])
    t = 0.5 * (1.0 + ratio)
    xp = RandVar.constant(space, 1.0) + (t - 1.0) * RandVar.indicator(space, [i])
    yp = RandVar.constant(space, 1.0) + ratio * RandVar.indicator(space, [i])
    return xp, yp


def _numeraire_reverse_probe(asset: EligibleAsset) -> tuple[RandVar, RandVar]:
    """Non-comonotone discounted pair whose undiscounted versions are comonotone."""
    space = asset.payoff.space
    s = asset.payoff.values
    i = int(np.argmin(s))
    j = int(np.argmax(s))
    ratio = float(s[i] / s[j])  # reciprocal payoff grows from j to i
    u = 0.5 * (1.0 + 1.0 / ratio)
    x = RandVar.constant(space, 1.0) + (u - 1.0) * RandVar.indicator(space, [j])
    y = RandVar.constant(space, 1.0) + (1.0 / ratio) * RandVar.indicator(space, [j])
    return x / asset.payoff, y / asset.payoff


def comono_preservation_under_numeraire(
    asset: EligibleAsset, trials: int = 10000, seed: int = 0
) -> CheckReport:
    """Search both failure directions of comonotonicity under the numeraire change.

    Forward: a comonotone discounted pair whose products with the payoff are
    not comonotone.  Reverse: a non-comonotone discounted pair whose products
    are comonotone.  For a constant payoff no witness exists in either
    direction and the report states preservation; for a nonconstant payoff
    deterministic probes run before the random draws, so both witnesses are
    found well inside the budget.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    space = asset.payoff.space
    if asset.risk_free:
        return CheckReport(
            "numeraire-comonotonicity", True, 0, seed,
            note="constant payoff: multiplication preserves comonotonicity exactly",
        )

    forward: dict | None = None
    reverse: dict | None = None
    draws = 0

    def try_forward(xp: RandVar, yp: RandVar) -> None:
        nonlocal forward
        if forward is None and is_comonotone(xp, yp):
            x, y = xp * asset.payoff, yp * asset.payoff
            if not is_comonotone(x, y):
                forward = {"x_discounted": xp, "y_discounted": yp, "x": x, "y": y}

    def try_reverse(xp: RandVar, yp: RandVar) -> None:
        nonlocal reverse
        if reverse is None and not is_comonotone(xp, yp):
            x, y = xp * asset.payoff, yp * asset.payoff
            if is_comonotone(x, y):
                reverse = {"x_discounted": xp, "y_discounted": yp, "x": x, "y": y}

    try_forward(*_numeraire_forward_probe(asset))
    try_reverse(*_numeraire_reverse_probe(asset))
    while draws < trials and (forward is None or reverse is None):
        draws += 1
        pair = generate_comonotone_pair(space, rng)
        try_forward(pair.x, pair.y)
        xp = smp.grid_randvar(space, rng)
        yp = smp.grid_randvar(space, rng)
        try_reverse(xp, yp)

    found_both = forward is not None and reverse is not None
    witness = {}
    if forward is not None:
        witness["forward"] = forward
    if reverse is not None:
        witness["reverse"] = reverse
    return CheckReport(
        "numeraire-comonotonicity", not found_both, draws, seed,
        witness=witness or None,
        note=(
            "witnesses in both directions: multiplication by the payoff disrupts comonotonicity"
            if found_both
            else "search incomplete"
        ),
    )
