"""Solver audits of the two identities that hold by definition: the tests' property oracle.

S-additivity, rho(X + lambda * S1) = rho(X) - lambda * S0, and the change of
numeraire, rho_{A,S}(X) = S0 * rho_{A^S,1}(X / S1), hold for every
acceptance set, asset and position, so the package decides both by their
lemmas.  These audits price both sides through the solver on a fixed list
of positions; a failure can only be a solver defect.  Every quote is looked
up on ``engine.rho`` at call time, so a wrapper installed there sees it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from eligirisk import AcceptanceSpec, CheckReport, EligibleAsset, RandVar, engine
from eligirisk.engine import (
    _requirement,
    cash_asset,
    change_numeraire,
    default_tol,
    discounted_acceptance,
)

#: Multiples of the payoff that ``s_additivity_check`` shifts each position by.
S_ADDITIVITY_LAMBDAS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _payoff_steps(asset: EligibleAsset) -> Iterator[RandVar]:
    """Negated level-set steps -c * 1{S1 <= t}, c in (1, 2), below the top payoff level.

    Yielded one at a time: an audit holds one dense step, not all 2(L - 1).
    """
    payoff = asset.payoff
    for t in np.unique(payoff.values)[:-1]:
        for c in (1.0, 2.0):
            yield RandVar(payoff.space, np.where(payoff.values <= t, -c, 0.0))


def _audit_positions(asset: EligibleAsset, positions: Iterable[RandVar]) -> Iterator[RandVar]:
    """Positions of the identity checks: the given ones, constants 0, 1 and -1, then payoff steps.

    The identities hold for every position, so the list is fixed and no seed is drawn.
    """
    consts = (RandVar.constant(asset.payoff.space, c) for c in (0.0, 1.0, -1.0))
    return chain(positions, consts, _payoff_steps(asset))


#: Names the position list of both identity checks in their reports.
AUDIT_NOTE = "given positions, then constants 0, 1, -1, then steps -c*1{S1 <= t}, c in (1, 2)"


def _identity_check(statement: str, comparisons: Iterable[tuple], note: str) -> CheckReport:
    """Run ``(witness fields, lhs, rhs, tol)`` comparisons in order; fail at a gap over 10 tol."""
    worst, found = 0.0, None
    for count, (fields, left, right, tol_eff) in enumerate(comparisons, 1):
        worst = max(worst, abs(left - right))
        if abs(left - right) > 10.0 * tol_eff:
            found = {**fields, "lhs": left, "rhs": right}
            break
    return CheckReport(statement, found is None, count, found, note, {"worst_error": worst})


def s_additivity_check(
    spec: AcceptanceSpec, asset: EligibleAsset, positions: Iterable[RandVar] = (),
    tol: float | None = None,
) -> CheckReport:
    """Check that a shift by lambda * payoff moves an audit position's quote by -lambda * price.

    Each distinct (position, tolerance) is priced once: rho(X) recurs over
    the six lambda wherever their tolerances agree.
    """
    requirement = _requirement(spec, asset)

    def sides(x: RandVar, lam: float):
        shifted = x + lam * asset.payoff
        tol_eff = tol if tol is not None else max(default_tol(asset, x), default_tol(asset, shifted))
        left = requirement(shifted, tol_eff)
        right = requirement(x, tol_eff) - lam * asset.price
        return {"x": x, "lambda": lam}, left, right, tol_eff

    comparisons = (
        sides(x, lam) for x in _audit_positions(asset, positions) for lam in S_ADDITIVITY_LAMBDAS
    )
    note = f"{AUDIT_NOTE}; lambda in {S_ADDITIVITY_LAMBDAS}"
    return _identity_check("s-additivity", comparisons, note)


def numeraire_identity_check(
    spec: AcceptanceSpec, asset: EligibleAsset, positions: Iterable[RandVar] = (),
    tol: float | None = None,
) -> CheckReport:
    """Check the numeraire-change identity at each audit position.

    The requirement equals the asset price times the cash requirement of the
    discounted position under the discounted acceptance set; both sides are
    computed independently (the right side always through the bracketed
    solver on the wrapped membership).
    """
    disc = discounted_acceptance(spec, asset)
    cash = cash_asset(asset.payoff.space)

    def sides(x: RandVar):
        tol_eff = tol if tol is not None else default_tol(asset, x)
        left = engine.rho(spec, asset, x, tol_eff).value
        inner_tol = tol_eff / max(asset.price, 1.0)
        right = asset.price * engine.rho(disc, cash, change_numeraire(x, asset), inner_tol).value
        return {"x": x}, left, right, tol_eff

    comparisons = (sides(x) for x in _audit_positions(asset, positions))
    return _identity_check("numeraire-identity", comparisons, AUDIT_NOTE)
