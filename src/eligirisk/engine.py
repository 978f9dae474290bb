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

Expected shortfall and distortion mixtures with a risky payoff run a finite
Newton iteration: their requirement function is convex, decreasing and
piecewise linear, so a few steps land on the root.  Explicit criteria, and
``method="bisection"``, run bracketed bisection.  Both solvers return the
upper end ``hi`` of a certified bracket: ``hi`` is accepted and
``hi - bracket_width`` is rejected, with the width at most
``max(tol, ulp(hi))``: two adjacent floats when the requested tol is finer
than the float grid at ``hi``.  Membership uses the exact functional
comparison; the bracket width is the only approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

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
#: Newton steps before the halving loop takes over.  Quotes on 2-16 atoms
#: take 1-9; the cap bounds a crawl by next floats through float noise.
MAX_NEWTON_STEPS = 16
#: Multiples of the payoff that ``s_additivity_check`` shifts each position by.
S_ADDITIVITY_LAMBDAS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


class BracketExpansionError(RuntimeError):
    """Bracket expansion failed; the wrapped functional is not a decreasing criterion."""


@dataclass(frozen=True, eq=False)
class EligibleAsset:
    """Traded asset used to raise capital: price at 0 and strictly positive payoff.

    ``eps``, the guaranteed payoff floor (the smallest atom value), and
    ``risk_free`` (a constant payoff) are derived once from the immutable
    payoff.
    """

    price: float
    payoff: RandVar
    eps: float = field(init=False, repr=False)
    risk_free: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", float(self.price))
        if not 0.0 < self.price < math.inf:
            raise ValueError(f"asset price must be positive and finite, got {self.price}")
        eps = float(self.payoff.values.min())
        if not eps > 0.0:
            raise ValueError("asset payoff must be bounded away from zero (all values > 0)")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "risk_free", self.payoff.is_constant)


def cash_asset(space: FiniteSpace) -> EligibleAsset:
    return EligibleAsset(1.0, RandVar.constant(space, 1.0))


@dataclass(frozen=True)
class RiskQuote:
    """Computed requirement with solver diagnostics.

    ``method`` is ``closed_form``, ``newton`` or ``bisection``.  ``iterations``
    counts Newton steps, the levels of Newton's walk down, and halvings.
    ``bracket_width`` is 0 on the closed-form path; a solver returns
    ``value`` accepted and ``value - bracket_width`` rejected, with the width
    at most ``max(tol, ulp(value))`` (two adjacent floats when the requested
    tol is finer than the float grid at ``value``).
    """

    value: float
    method: str
    iterations: int
    bracket_width: float


def default_tol(asset: EligibleAsset, x: RandVar) -> float:
    """Relative default tolerance, 1e-10 of the bracket scale B = S0 * max|X| / eps.

    Bisection (explicit criteria, ``method="bisection"``) from the initial
    bracket [-B - 1, B] then takes about log2(2e10), i.e. 35, halvings at
    every magnitude.  Newton lands within it in a few steps, and its closing
    test at ``hi - tol`` certifies the bracket.
    """
    return 1e-10 * max(1.0, x.max_abs * asset.price / asset.eps)


def _bisect(
    member, start: float, tol: float, lo: float | None = None, hi: float | None = None
) -> tuple[float, float, int]:
    """Bracket the infimum, ``lo`` rejected and ``hi`` accepted, then halve to width ``tol``.

    A missing ``hi`` is found by doubling up from ``start``, a missing ``lo``
    by doubling down from ``-|hi| - 1``.  Returns ``(lo, hi, halvings)``.
    """
    doublings = 0
    if hi is None:
        hi = start
        while not member(hi):
            hi = 2.0 * hi + 1.0
            doublings += 1
            if doublings > MAX_BRACKET_DOUBLINGS:
                raise BracketExpansionError(
                    "no acceptable capital level found; functional is not decreasing"
                )
    if lo is None:
        lo = -abs(hi) - 1.0
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
    return lo, hi, iters


def _right_slope(spec: AcceptanceSpec, y: RandVar, payoff: RandVar) -> float:
    """Right derivative of t -> functional(Y + t * S1) at t = 0, for ES and distortion mixtures.

    Just right of 0 the atoms of Y + t * S1 sort by value, ties by payoff,
    both ascending.  On that order the functional is the Choquet sum
    -sum(w_i * (Y_i + t * S1_i)), so the derivative is -sum(w_i * S1_i).  The
    ES(alpha) weights are the increments of min(cum / alpha, 1): all on the
    first atom at alpha 0, the probabilities at alpha 1.  A mixture sums them.

    It runs once per Newton step, so it follows the hot-path rule of
    :mod:`eligirisk.spaces`: ndarray methods, and increments taken in place by
    slice differences (``g[0] - 0.0 == g[0]``, so they equal ``np.diff`` with
    ``prepend=0.0`` bit for bit) instead of the ``np.<func>`` wrappers.
    """
    order = np.lexsort((payoff.values, y.values))
    p = y.space.probs[order]
    cum = p.cumsum()
    points = ((spec.level.alpha, 1.0),) if spec.kind == "es" else spec.weights.points
    w = np.zeros(p.size)
    for alpha, weight in points:
        if alpha == 0.0:
            w[0] += weight
        elif alpha == 1.0:
            w += weight * p
        else:
            g = np.minimum(cum / alpha, 1.0)
            g[1:] -= g[:-1].copy()  # cheaper than numpy buffering the overlap itself
            w += weight * g
    return -float(w.dot(payoff.values[order]))


def _newton(
    spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar, tol: float, member
) -> tuple[float | None, float | None, int]:
    """Finite Newton on g(m) = functional(X + (m / S0) * S1) for ES and distortion mixtures.

    g is convex, decreasing and piecewise linear: linear wherever the order
    of the position is fixed.  The tangent along the right derivative lies
    below g, so the step from m = 0 lands at or left of the root, and the
    rejected iterates then rise onto it after finitely many steps.  A step
    from a rejected iterate moves m by at least one float; when it would
    leave the rounded position unchanged, it moves m by ulp(max|Y|) * S0 /
    eps instead, the position's own rounding scale.  ``hi`` is the first
    accepted iterate after m = 0 and ``lo`` the last rejected one.  When no
    iterate was rejected, or ``hi - lo`` exceeds ``tol``, one test at
    ``hi - tol`` closes the bracket.  If that test accepts, ``hi`` landed
    more than ``tol`` over the root (a ``tol`` below the landing error);
    levels are then tested down from the probe by steps doubling from the
    probe's distance to ``hi`` (at least ``ulp(hi)``) until one is rejected.
    Returns ``(lo, hi, steps)``, the walk's levels counted as steps.  When
    the step cap is hit (``hi`` is None), or the walk leaves a bracket wider
    than ``tol``, the halving loop of :func:`_bisect` finishes it.
    """
    s0, payoff = asset.price, asset.payoff
    lo = hi = None
    m = 0.0
    for steps in range(MAX_NEWTON_STEPS + 1):
        y = x + (m / s0) * payoff
        g = spec.functional_value(y)
        if g <= 0.0 and (steps > 0 or g == 0.0):
            hi = m
            break
        if g > 0.0:
            lo = m
        if steps == MAX_NEWTON_STEPS:
            return lo, None, steps
        nxt = m - s0 * g / _right_slope(spec, y, payoff)
        if g > 0.0:
            nxt = max(nxt, math.nextafter(m, math.inf))
            if not np.count_nonzero(x.values + (nxt / s0) * payoff.values != y.values):
                # the step leaves the rounded position, hence g, unchanged
                nxt = max(nxt, m + s0 * math.ulp(y.max_abs) / asset.eps)
        m = nxt
    if lo is None or hi - lo > tol:
        probe = hi - tol
        while hi - probe > tol:  # rounding widened the step
            probe = math.nextafter(probe, math.inf)
        if not member(probe):
            return probe, hi, steps
        # hi lies over tol above the root: walk down from the probe by doubling steps
        step = max(hi - probe, math.ulp(hi))
        hi = probe
        for _ in range(MAX_BRACKET_DOUBLINGS):
            steps += 1
            level = hi - step
            if not member(level):
                return level, hi, steps
            hi, step = level, 2.0 * step
        raise BracketExpansionError("every capital level is acceptable; criterion is not proper")
    return lo, hi, steps


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
    if method == "auto":
        if spec.is_builtin and not np.count_nonzero(x.values):
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
    if tol is None:
        tol = default_tol(asset, x)
    s0, payoff = asset.price, asset.payoff

    def member(m: float) -> bool:
        return spec.functional_value(x + (m / s0) * payoff) <= 0.0

    # what the closed forms leave of the built-in kinds: es and distortion, risky payoff
    newton = method == "auto" and spec.is_builtin
    lo, hi, steps = _newton(spec, asset, x, tol, member) if newton else (None, None, 0)
    start = s0 * x.max_abs / asset.eps
    lo, hi, halvings = _bisect(member, start if start > 0.0 else 1.0, tol, lo, hi)
    return RiskQuote(hi, "newton" if newton else "bisection", steps + halvings, hi - lo)


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


def _payoff_steps(asset: EligibleAsset) -> list[RandVar]:
    """Negated level-set steps -c * 1{S1 <= t}, c in (1, 2), below the top payoff level."""
    payoff = asset.payoff
    return [
        RandVar(payoff.space, np.where(payoff.values <= t, -c, 0.0))
        for t in np.unique(payoff.values)[:-1]
        for c in (1.0, 2.0)
    ]


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
    return CheckReport(statement, found is None, count, None, found, note, {"worst_error": worst})


def s_additivity_check(
    spec: AcceptanceSpec, asset: EligibleAsset, positions: Iterable[RandVar] = (),
    tol: float | None = None,
) -> CheckReport:
    """Check that a shift by lambda * payoff moves an audit position's quote by -lambda * price."""

    def sides(x: RandVar, lam: float):
        shifted = x + lam * asset.payoff
        tol_eff = tol if tol is not None else max(default_tol(asset, x), default_tol(asset, shifted))
        left = rho(spec, asset, shifted, tol_eff).value
        right = rho(spec, asset, x, tol_eff).value - lam * asset.price
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
        left = rho(spec, asset, x, tol_eff).value
        inner_tol = tol_eff / max(asset.price, 1.0)
        right = asset.price * rho(disc, cash, change_numeraire(x, asset), inner_tol).value
        return {"x": x}, left, right, tol_eff

    comparisons = (sides(x) for x in _audit_positions(asset, positions))
    return _identity_check("numeraire-identity", comparisons, AUDIT_NOTE)
