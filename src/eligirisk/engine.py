"""The eligible-asset risk measure: least capital invested in S reaching acceptability.

For an acceptance set A, an eligible asset S = (S0, S1) with S0 > 0 and
payoff bounded away from zero, and a position X, the engine computes

    rho(X) = inf{m : X + (m / S0) * S1 in A}.

Acceptability of the shifted position is monotone nondecreasing in m (the
payoff is strictly positive and the set is monotone), so the infimum is a
bracketed root of a membership predicate.  Three closed forms bypass the
bracketing entirely:

* value-at-risk criteria reduce pointwise to S0 * var(X / S1, alpha), the
  order statistic of the raw quotient (an overflow to +-inf only orders the
  atoms; an infinite quote is a ``ValueError``);
* risk-free assets rescale the cash functional: (S0 / s) * functional(X);
* X = 0 yields exactly 0 for every conic built-in criterion.

Distortion mixtures (expected shortfall and the expectation floor among
them) with a risky payoff run a finite Newton iteration: their requirement
function is convex, decreasing and piecewise linear, so a few steps land on
the root.  Each iterate costs one argsort and one walk of the shifted
position, :func:`~eligirisk.measures.shortfall_and_slope`, which returns
the value and the right slope together.  Explicit criteria, and
``method="bisection"``, run bracketed bisection.  Both solvers return the
upper end ``hi`` of a certified bracket: ``hi`` is accepted and
``hi - bracket_width`` is rejected, with the width at most
``max(tol, ulp(hi))``: two adjacent floats when the requested tol is finer
than the float grid at ``hi``.  Membership uses the exact functional
comparison, and a solver's bracket width is its only approximation.  The
VaR and risk-free closed forms are not certified: the rounding of their
value and of the shifted position can leave it just outside the set.

The position must live on the payoff's space (or a compatible copy);
any other is a ``SpaceMismatchError``.  S-additivity and the change of
numeraire hold by definition, so :func:`decide_identity` decides them by
their lemmas; the tests keep the solver audits of both as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .acceptance import AcceptanceSpec
from .measures import shortfall_and_slope, var_of_ratio
from .reporting import CheckReport
from .spaces import FiniteSpace, RandVar, SpaceMismatchError, expectation

__all__ = [
    "EligibleAsset",
    "RiskQuote",
    "BracketExpansionError",
    "cash_asset",
    "default_tol",
    "rho",
    "rho_cash",
    "change_numeraire",
    "discounted_acceptance",
    "IDENTITY_LEMMAS",
    "decide_identity",
]

MAX_BRACKET_DOUBLINGS = 128
#: Newton steps before the halving loop takes over.  Quotes on 2-16 atoms
#: take 1-9; the cap bounds a crawl by next floats through float noise.
MAX_NEWTON_STEPS = 16
#: Under this bound on |t| * max S1 + max|X|, no atom of X + t * S1 can overflow.
FLOAT_SAFE = 2.0**1023


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
    return _tol_at(x.max_abs * asset.price / asset.eps)


def _check_space(x: RandVar, asset: EligibleAsset) -> None:
    """X must live on the payoff's space: every solver path combines their arrays atom by atom."""
    if not x.space.compatible(asset.payoff.space):
        raise SpaceMismatchError("the position and the asset payoff live on different spaces")


def _tol_at(scale: float) -> float:
    """:func:`default_tol` at the bracket scale B; a B outside the float range is a ``ValueError``."""
    if scale == math.inf:
        raise ValueError("the bracket scale S0 * max|X| / eps leaves the float range")
    return 1e-10 * max(1.0, scale)


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


def _newton(
    spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar, pays: list[float], shifted
) -> tuple[float | None, float | None, int]:
    """Finite Newton on g(m) = functional(X + (m / S0) * S1) for a distortion mixture.

    g is convex, decreasing and piecewise linear: linear wherever the order
    of the position is fixed.  The tangent along the right derivative lies
    below g, so the step from m = 0 lands at or left of the root, and the
    rejected iterates then rise onto it after finitely many steps.  Each
    iterate is priced by one sorted walk, :func:`shortfall_and_slope`, which
    returns g and its right slope together.  A step from a rejected iterate
    moves m by at least one float; when it would leave the rounded position
    unchanged, it moves m by ulp(max|Y|) * S0 / eps instead, the position's
    own rounding scale.  Returns ``(lo, hi, steps)``: ``hi`` is the first
    accepted iterate after m = 0 (None at the step cap), ``lo`` the last
    rejected one (or None).  ``pays`` lists S1, and ``shifted`` is
    :func:`rho`'s; an iterate outside the float range raises a ``ValueError``.
    """
    s0, payoff = asset.price, asset.payoff
    mass = (x.space.probs * payoff.values).tolist()
    mean = expectation(payoff)

    lo = None
    m = 0.0
    values = shifted(m)
    for steps in range(MAX_NEWTON_STEPS + 1):
        y = RandVar._fresh(x.space, values)
        g, slope = shortfall_and_slope(y, spec.weights, pays, mass, mean)
        if g <= 0.0 and (steps > 0 or g == 0.0):
            return lo, m, steps
        if g > 0.0:
            lo = m
        if steps == MAX_NEWTON_STEPS:
            return lo, None, steps
        # a slope that underflowed to 0 sends the step out of the float range
        nxt = m - s0 * g / slope if slope else math.copysign(math.inf, g)
        if g > 0.0:
            nxt = max(nxt, math.nextafter(m, math.inf))
        values = shifted(nxt)
        if g > 0.0 and not np.count_nonzero(values != y.values):
            # the step leaves the rounded position, hence g, unchanged
            nxt = max(nxt, m + s0 * math.ulp(y.max_abs) / asset.eps)
            values = shifted(nxt)
        m = nxt


def _close(member, lo: float | None, hi: float, tol: float, steps: int) -> tuple[float, float, int]:
    """Certify Newton's accepted landing ``hi``: test ``hi - tol`` unless ``lo`` is within ``tol``.

    If that probe accepts, ``hi`` landed over ``tol`` above the root, and
    levels are tested down from the probe by steps doubling from ``hi -
    probe`` (at least ``ulp(hi)``) until one is rejected, each counted as a
    step.  :func:`_bisect` halves what is left wider than ``tol``.
    """
    if lo is not None and hi - lo <= tol:
        return lo, hi, steps
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


def rho(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    x: RandVar,
    tol: float | None = None,
    method: str = "auto",
) -> RiskQuote:
    """Least capital invested in the asset that makes the position acceptable."""
    _check_space(x, asset)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if method not in ("auto", "bisection"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        if spec.is_builtin and not np.count_nonzero(x.values):
            # conic criteria price the zero position at exactly zero
            return RiskQuote(0.0, "closed_form", 0, 0.0)
        if spec.kind == "var":
            q = var_of_ratio(x, asset.payoff, spec.level)
            value = asset.price * q
            if not math.isfinite(value):
                raise ValueError(f"the VaR quote S0 * VaR(X / S1) overflows: VaR(X / S1) is {q!r}")
            return RiskQuote(value, "closed_form", 0, 0.0)
        if asset.risk_free and spec.is_builtin:
            s = float(asset.payoff.values[0])
            value = asset.price * spec.functional_value(x) / s
            return RiskQuote(value, "closed_form", 0, 0.0)
    s0, payoff = asset.price, asset.payoff
    pays = payoff.values.tolist()
    xmax, top = x.max_abs, max(pays)
    start = s0 * xmax / asset.eps

    def shifted(m: float) -> np.ndarray:
        """The values of X + (m / S0) * S1, checked finite."""
        t = m / s0
        if abs(t) * top + xmax < FLOAT_SAFE:  # no atom can overflow
            return x.values + t * payoff.values
        with np.errstate(over="ignore", invalid="ignore"):
            values = x.values + t * payoff.values
        if np.count_nonzero(np.isfinite(values)) != values.size:
            raise ValueError(f"the shifted position X + (m / S0) * S1 leaves the float range at m = {m!r}")
        return values

    def member(m: float) -> bool:
        return spec.functional_value(RandVar._fresh(x.space, shifted(m))) <= 0.0

    # what the closed forms leave of the built-in kinds: distortion, risky payoff
    newton = method == "auto" and spec.is_builtin
    lo, hi, steps = _newton(spec, asset, x, pays, shifted) if newton else (None, None, 0)
    if tol is None:
        tol = _tol_at(start)
    if hi is not None:
        lo, hi, steps = _close(member, lo, hi, tol, steps)
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
    """The position expressed in units of the asset payoff (atomwise ratio).

    A payoff near 0 can overflow an atom of X / S1; that is a ``ValueError``
    naming the discounted position.
    """
    _check_space(x, asset)
    with np.errstate(over="ignore"):
        values = x.values / asset.payoff.values
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise ValueError("the discounted position X / S1 leaves the float range")
    return RandVar._fresh(x.space, values)


def discounted_acceptance(spec: AcceptanceSpec, asset: EligibleAsset) -> AcceptanceSpec:
    """Image of the acceptance set under the numeraire change.

    A discounted position is acceptable iff its undiscounted version is, so
    membership evaluates the original functional at X' * S1.
    """
    payoff = asset.payoff
    return AcceptanceSpec.explicit(lambda xp: spec.functional_value(xp * payoff))


#: The identities that hold for every acceptance set, eligible asset and
#: position, each noted with the substitution in the infimum that proves it.
IDENTITY_LEMMAS = {
    "s-additivity": "lemma: X + lambda*S1 + (m/S0)*S1 = X + ((m + lambda*S0)/S0)*S1, "
    "so rho(X + lambda*S1) = rho(X) - lambda*S0 for every set, asset and position",
    "numeraire-identity": "lemma: X + (m/S0)*S1 is in A iff X/S1 + m/S0 is in A^S, "
    "so rho_{A,S}(X) = S0*rho_{A^S,1}(X/S1) for every set, asset and position",
}


def decide_identity(statement: str) -> CheckReport:
    """Decide an identity of :data:`IDENTITY_LEMMAS` by its lemma: it holds, and nothing is priced."""
    return CheckReport(statement, True, 1, note=IDENTITY_LEMMAS[statement])


def _requirement(
    spec: AcceptanceSpec, asset: EligibleAsset, tol: float | None = None
) -> Callable[..., float]:
    """The requirement ``(X, tol=tol) -> rho(X)``, pricing each distinct position once.

    Quotes are kept for the life of the returned function, one statement
    call, keyed by ``(X.space, X.values.tobytes(), tol)``.  ``rho`` is pure
    in those, so a hit returns exactly what a new call would.  The space
    object is part of the key, so a position on another space always misses
    and reaches ``rho``, which raises ``SpaceMismatchError`` unless the
    spaces are compatible; bytes keep -0.0 apart from 0.0, so a key can miss
    on equal values but never hit on different ones.  ``rho`` is looked up
    on each miss, not bound once, so that a wrapper installed on this
    module's ``rho`` sees every evaluation.
    """
    quotes: dict[tuple, float] = {}

    def requirement(x: RandVar, tol: float | None = tol) -> float:
        key = (x.space, x.values.tobytes(), tol)
        if key not in quotes:
            quotes[key] = rho(spec, asset, x, tol=tol).value
        return quotes[key]

    return requirement
