"""Solver audits of the statements the package decides by a lemma: the tests' property oracle.

S-additivity, rho(X + lambda * S1) = rho(X) - lambda * S0, and the change of
numeraire, rho_{A,S}(X) = S0 * rho_{A^S,1}(X / S1), hold for every
acceptance set, asset and position.  ``cash-reduction`` and
``lemma-equality`` follow from the lemma rho_S = rho_R iff A + t * D = A.
The package decides all four by their lemmas.  These audits price the
sides through the solver, on a fixed list of positions or at the positions
the lemma's proof constructs, and compare them within a tolerance; a
failure can only be a solver defect.  Every quote is looked up on
``engine.rho`` at call time, so a wrapper installed there sees it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from eligirisk import (
    AcceptanceSpec,
    CheckReport,
    EligibleAsset,
    RandVar,
    TheoremVerdict,
    engine,
    find_additivity_violation,
)
from eligirisk.engine import (
    _requirement,
    cash_asset,
    change_numeraire,
    default_tol,
    discounted_acceptance,
    rho_cash,
)
from eligirisk.theorems import ADDITIVITY_THRESHOLD, _rho_one, absorbs

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


def cash_reduction_audit(
    spec: AcceptanceSpec, asset: EligibleAsset, tol: float = 1e-9
) -> TheoremVerdict:
    """Comonotonic additivity against the cash-reduction identity, both sides priced.

    The additivity half is :func:`~eligirisk.find_additivity_violation`, on
    constructed pairs against its threshold.  The identity
    rho_S = -r1 * rho_cash is the lemma for the asset R = (-r1, 1), whose gap
    direction is D = S1 / S0 + 1 / r1; the requirement is compared with -r1
    times the cash requirement, to within ``tol``, at these positions:

    * when additivity fails, x, y and x + y of its witness: every
      constructed pair holds a constant and the cash requirement is cash
      additive, so the identity errors e satisfy e(x + y) - e(x) - e(y) =
      gap, and one of the three exceeds ``tol`` whenever ``tol`` <
      threshold / 3;
    * when it holds and :func:`~eligirisk.theorems.absorbs` ejects x along
      t * D (t = +1 or -1), the carried Z = x - t * R1 / R0 = x + t / r1, at
      which -r1 * rho_cash(Z) <= t < rho_S(Z);
    * none when the set absorbs D (a constant payoff gives D = 0 exactly).

    The verdict is "pass" when the two halves are consistent.
    """
    r1 = _rho_one(spec, asset)
    rho_fn = _requirement(spec, asset, min(tol * 1e-2, 1e-12))
    additivity = find_additivity_violation(spec, asset)
    if additivity.witness is not None:
        x, y = additivity.witness["x"], additivity.witness["y"]
        positions = [x, y, x + y]
        route = "at the additivity witness x, y and x + y"
    else:
        d = asset.payoff / asset.price + 1.0 / r1
        ejected = None if asset.risk_free else absorbs(spec, d.space, d)
        if ejected is None:
            positions, route = [], "by the lemma: the set absorbs D = S1/S0 + 1/r1"
        else:
            t = 1.0 if ejected["direction"] == "+" else -1.0
            positions = [ejected["x"] + t / r1]
            route = "at the position carried from an ejection along D = S1/S0 + 1/r1"

    identity_witness = None
    worst = 0.0
    for x in positions:
        lhs = rho_fn(x)
        rhs = -r1 * rho_cash(spec, x)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > tol and identity_witness is None:
            identity_witness = {"x": x, "lhs": lhs, "rhs": rhs}

    holds = "fails" if identity_witness else "holds"
    if additivity.passed:
        ok = identity_witness is None
        note = f"additivity holds on the constructed pairs; the cash reduction identity {holds} {route}"
    else:
        ok = identity_witness is not None
        note = f"additivity fails; the cash reduction identity {holds} {route}"
    return TheoremVerdict(
        "cash-reduction", "pass" if ok else "fail", len(positions),
        witness=identity_witness,
        condition_values={"rho_one": r1, "identity_factor": -r1,
                          "additivity_passed": additivity.passed,
                          "threshold": ADDITIVITY_THRESHOLD,
                          "worst_identity_error": worst},
        note=note,
    )


def lemma_equality_audit(
    spec: AcceptanceSpec, asset_s: EligibleAsset, asset_r: EligibleAsset, tol: float = 1e-9
) -> TheoremVerdict:
    """The lemma's two sides, side (a) priced: rho_S = rho_R iff the set absorbs D.

    Side (b) asks :func:`~eligirisk.theorems.absorbs` for D = S1/S0 - R1/R0;
    D = 0 exactly holds with no call.  If the set absorbs D, side (a) holds
    by the lemma and nothing is evaluated.  Otherwise x is accepted and
    x + t * D rejected (t = +1 or -1 from the witness's direction), and side
    (a) is priced, to within ``tol``, at the carried Z = x - t * R1/R0, where
    rho_R(Z) <= t < rho_S(Z).  ``samples`` counts the positions priced (0 or
    1).  The verdict is "pass" when the two sides agree.
    """
    if not spec.is_builtin:
        raise ValueError("lemma-equality requires a built-in criterion")
    unit_r = asset_r.payoff / asset_r.price
    gap = asset_s.payoff / asset_s.price - unit_r
    b_witness = None if gap.max_abs == 0.0 else absorbs(spec, gap.space, gap)
    a_witness = None
    if b_witness is not None:
        t = 1.0 if b_witness["direction"] == "+" else -1.0
        z = b_witness["x"] - t * unit_r
        solver_tol = min(tol * 1e-2, 1e-12)
        rho_s, rho_r = (_requirement(spec, a, solver_tol)(z) for a in (asset_s, asset_r))
        if abs(rho_s - rho_r) > tol:
            a_witness = {"x": z, "rho_s": rho_s, "rho_r": rho_r}
    a_holds, b_holds = a_witness is None, b_witness is None

    ok = a_holds == b_holds
    if b_holds:
        note = "the set absorbs the gap direction, so by the lemma the requirements agree"
    else:
        note = ("an accepted position is ejected along the gap direction, and the carried "
                f"position is priced {'apart' if a_witness else 'alike to within tol'}")
    return TheoremVerdict(
        "lemma-equality", "pass" if ok else "fail", 0 if b_holds else 1,
        witness={"equality": a_witness, "stability": b_witness} if b_witness else None,
        condition_values={"equality_holds": a_holds, "stability_holds": b_holds,
                          "gap_direction": gap},
        note=note,
    )
