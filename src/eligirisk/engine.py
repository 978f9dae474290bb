"""The eligible-asset risk measure: least capital invested in S reaching acceptability.

For an acceptance set A, an eligible asset S = (S0, S1) with S0 > 0 and
payoff bounded away from zero, and a position X, the engine computes

    rho(X) = inf{m : X + (m / S0) * S1 in A}.

Acceptability of the shifted position is monotone nondecreasing in m (the
payoff is strictly positive and the set is monotone), so the infimum is a
bracketed root of a membership predicate.  Four closed forms bypass the
bracketing entirely:

* value-at-risk criteria reduce pointwise to S0 * var(X / S1, alpha);
* expectation-linear criteria give -S0 * E[X] / E[S1];
* risk-free assets rescale the cash functional: (S0 / s) * functional(X);
* X = 0 yields exactly 0 for every conic built-in criterion.

Everything else runs bracketed bisection on membership down to a requested
bracket width and returns the upper endpoint, which is itself a member, so
for closed criteria the returned level is acceptable and within tol of the
infimum.  Membership inside the bisection uses the exact functional
comparison; the bracket width is the only approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sampling as smp
from .acceptance import AcceptanceSpec
from .measures import var
from .reporting import CheckReport
from .spaces import FiniteSpace, RandVar, expectation

__all__ = [
    "EligibleAsset",
    "RiskQuote",
    "BracketExpansionError",
    "cash_asset",
    "default_tol",
    "rho",
    "rho_cash",
    "s_additivity_check",
    "change_numeraire",
    "discounted_acceptance",
    "numeraire_identity_check",
]

MAX_BRACKET_DOUBLINGS = 128


class BracketExpansionError(RuntimeError):
    """Bracket expansion failed; the wrapped functional is not a decreasing criterion."""


@dataclass(frozen=True, eq=False)
class EligibleAsset:
    """Traded asset used to raise capital: price at 0 and strictly positive payoff."""

    price: float
    payoff: RandVar

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", float(self.price))
        if not 0.0 < self.price < math.inf:
            raise ValueError(f"asset price must be positive and finite, got {self.price}")
        if not float(np.min(self.payoff.values)) > 0.0:
            raise ValueError("asset payoff must be bounded away from zero (all values > 0)")

    @property
    def eps(self) -> float:
        """Guaranteed payoff floor (the smallest atom value)."""
        return float(np.min(self.payoff.values))

    @property
    def risk_free(self) -> bool:
        return self.payoff.is_constant


def cash_asset(space: FiniteSpace) -> EligibleAsset:
    return EligibleAsset(1.0, RandVar.constant(space, 1.0))


@dataclass(frozen=True)
class RiskQuote:
    """Computed requirement with solver diagnostics.

    ``bracket_width`` is 0 on the closed-form path and at most the requested
    tolerance after bisection.
    """

    value: float
    method: str
    iterations: int
    bracket_width: float


def default_tol(asset: EligibleAsset, x: RandVar) -> float:
    """Relative default tolerance; keeps bisection near 60 iterations across magnitudes."""
    return 1e-10 * max(1.0, x.max_abs * asset.price / asset.eps)


def _bisect(spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar, tol: float) -> RiskQuote:
    s0 = asset.price
    payoff = asset.payoff

    def member(m: float) -> bool:
        return spec.functional_value(x + (m / s0) * payoff) <= 0.0

    hi = s0 * x.max_abs / asset.eps
    if hi <= 0.0:
        hi = 1.0
    doublings = 0
    while not member(hi):
        hi = 2.0 * hi + 1.0
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionError(
                "no acceptable capital level found; functional is not decreasing"
            )
    lo = -hi - 1.0
    while member(lo):
        lo = 2.0 * lo - 1.0
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionError(
                "every capital level is acceptable; criterion is not proper"
            )
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (hi + lo)
        if not lo < mid < hi:
            break
        if member(mid):
            hi = mid
        else:
            lo = mid
        iters += 1
    return RiskQuote(hi, "bisection", iters, hi - lo)


def rho(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    x: RandVar,
    tol: float | None = None,
    method: str = "auto",
) -> RiskQuote:
    """Least capital invested in the asset that makes the position acceptable."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if method not in ("auto", "bisection"):
        raise ValueError(f"unknown method {method!r}")
    if tol is None:
        tol = default_tol(asset, x)
    if method == "auto":
        if spec.is_builtin and x.max_abs == 0.0:
            # conic criteria price the zero position at exactly zero
            return RiskQuote(0.0, "closed_form", 0, 0.0)
        if spec.kind == "var":
            value = asset.price * var(x / asset.payoff, spec.level)
            return RiskQuote(value, "closed_form", 0, 0.0)
        if spec.is_linear_kind:
            value = -asset.price * expectation(x) / expectation(asset.payoff)
            return RiskQuote(value, "closed_form", 0, 0.0)
        if asset.risk_free and spec.is_builtin:
            s = float(asset.payoff.values[0])
            value = asset.price * spec.functional_value(x) / s
            return RiskQuote(value, "closed_form", 0, 0.0)
    return _bisect(spec, asset, x, tol)


def rho_cash(spec: AcceptanceSpec, x: RandVar, tol: float | None = None) -> float:
    """Requirement under the cash asset (price 1, payoff 1).

    Built-in functionals are cash additive, so the requirement equals the
    functional value itself; only explicit criteria need the solver.
    """
    if spec.is_builtin:
        return spec.functional_value(x)
    return rho(spec, cash_asset(x.space), x, tol).value


def change_numeraire(x: RandVar, asset: EligibleAsset) -> RandVar:
    """The position expressed in units of the asset payoff (atomwise ratio)."""
    return x / asset.payoff


def discounted_acceptance(spec: AcceptanceSpec, asset: EligibleAsset) -> AcceptanceSpec:
    """Image of the acceptance set under the numeraire change.

    A discounted position is acceptable iff its undiscounted version is, so
    membership evaluates the original functional at X' * S1.
    """
    payoff = asset.payoff
    return AcceptanceSpec.explicit(
        lambda xp: spec.functional_value(xp * payoff),
        label=f"discounted {spec.label}",
    )


def _identity_check(statement: str, trials: int, seed: int, draw_sides) -> CheckReport:
    """Sample ``draw_sides(rng) -> (witness fields, lhs, rhs, tol)``; fail at a gap over 10 tol."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    worst = 0.0
    for _ in range(trials):
        fields, left, right, tol_eff = draw_sides(rng)
        err = abs(left - right)
        worst = max(worst, err)
        if err > 10.0 * tol_eff:
            return CheckReport(
                statement, False, trials, seed,
                witness={**fields, "lhs": left, "rhs": right},
                data={"worst_error": worst},
            )
    return CheckReport(statement, True, trials, seed, data={"worst_error": worst})


def s_additivity_check(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    trials: int = 500,
    seed: int = 0,
    tol: float | None = None,
) -> CheckReport:
    """Sampled check that shifting by lambda * payoff moves the quote by -lambda * price."""
    space = asset.payoff.space

    def draw_sides(rng):
        x = smp.grid_randvar(space, rng)
        lam = smp.grid_scalar(rng)
        shifted = x + lam * asset.payoff
        tol_eff = tol if tol is not None else max(default_tol(asset, x), default_tol(asset, shifted))
        left = rho(spec, asset, shifted, tol_eff).value
        right = rho(spec, asset, x, tol_eff).value - lam * asset.price
        return {"x": x, "lambda": lam}, left, right, tol_eff

    return _identity_check("s-additivity", trials, seed, draw_sides)


def numeraire_identity_check(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    trials: int = 500,
    seed: int = 0,
    tol: float | None = None,
) -> CheckReport:
    """Sampled check of the numeraire-change identity.

    The requirement equals the asset price times the cash requirement of the
    discounted position under the discounted acceptance set; both sides are
    computed independently (the right side always through the bracketed
    solver on the wrapped membership).
    """
    space = asset.payoff.space
    disc = discounted_acceptance(spec, asset)
    cash = cash_asset(space)

    def draw_sides(rng):
        x = smp.grid_randvar(space, rng)
        tol_eff = tol if tol is not None else default_tol(asset, x)
        left = rho(spec, asset, x, tol_eff).value
        inner_tol = tol_eff / max(asset.price, 1.0)
        right = asset.price * rho(disc, cash, change_numeraire(x, asset), inner_tol).value
        return {"x": x}, left, right, tol_eff

    return _identity_check("numeraire-identity", trials, seed, draw_sides)
