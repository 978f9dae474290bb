"""Exact comonotonicity testing and the comonotonicity statements about the asset.

Two positions are comonotone when no pair of outcomes orders them in
opposite directions; on a finite space with all-positive atom masses the
atomwise pairwise test is exactly the almost-sure condition.  The pairwise
check is the normative definition; it compares the signs of the atomwise
differences, so no product of tiny differences can underflow to a passing
-0.0.  A sort-based fast path must agree with it and the test suite
enforces that.

Comparisons are exact (``>= 0``, not ``>= -tol``).  Both statements here
are decided by construction, with no seed: additivity on pairs comonotone
with the payoff by the criterion's kind and, for VaR, the mass of one
payoff level; whether the change of numeraire preserves comonotonicity by
witnesses built from the payoff's extreme atoms.
"""

from __future__ import annotations

import math

import numpy as np

from .acceptance import AcceptanceSpec, var_loss_limit
from .engine import EligibleAsset, _requirement
from .reporting import CheckReport
from .spaces import RandVar, SpaceMismatchError, upper_quantile

__all__ = [
    "is_comonotone",
    "additivity_on_S_comonotone",
    "comono_preservation_under_numeraire",
]


def is_comonotone(x: RandVar, y: RandVar, method: str = "sorted") -> bool:
    """Exact comonotonicity test.

    ``pairwise`` checks sign(x_i - x_j) * sign(y_i - y_j) >= 0 over all atom
    pairs and is the normative definition; it allocates two n-by-n arrays, so
    it serves as the oracle in tests.  ``sorted`` (the default) orders atoms
    lexicographically by (x, y) and counts the steps along that order where
    y decreases; it is an O(n log n) equivalent.  On finite floats
    ``s[k+1] < s[k]`` is exactly ``s[k+1] - s[k] < 0``, with ``-0.0`` and
    ``0.0`` a tie.  :func:`_sorted_rows` is the same test on a block of pairs.
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


def _sorted_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row k is the ``sorted`` verdict of :func:`is_comonotone` on ``(xs[k], ys[k])``.

    One lexsort orders every row of the block by (x, y); the steps where y
    then decreases are the same comparisons as the one-pair test's.
    """
    order = np.lexsort((ys, xs), axis=-1)
    s = np.take(ys, order + xs.shape[1] * np.arange(len(xs))[:, None])
    return ~(s[:, 1:] < s[:, :-1]).any(axis=1)


def additivity_on_S_comonotone(spec: AcceptanceSpec, asset: EligibleAsset) -> CheckReport:
    """Decide additivity on pairs of nondecreasing functions of the payoff S1.

    The positions are constant on S1's level sets, so {X, Y, S1} is always
    comonotonic.  The verdict is decided by the rule below, with no seed;
    only a failing pair is priced, at solver tolerance 1e-12, for the gap its
    witness reports.  Where the rule passes, nothing is evaluated: the gap of
    the constant pair (1, -1) is then exactly 0.

    * ES, distortion mixtures and the expectation floor pass iff the payoff
      is constant or the criterion is linear; else F(S1) + F(-S1) > 0 for
      the pointed F, and (1, -1) is not additive.
    * VaR fails on (1, -1) when var(S1) + var(-S1) != 0.0, a sum of two
      stored payoff values, hence exact.  Otherwise let s* be the upper
      alpha-quantile of S1, L the :func:`var_loss_limit`, and ``on`` and
      ``off`` the integer masses of {S1 = s*} and of the rest.  It holds iff
      on > L and off <= L (a constant payoff is the one-level case).

    Why that is exact: on the level sets rho(f(S1)) = -S0 * q(f/s), with q
    the upper quantile at L of the ratios u = f/s.  If on > L and off <= L,
    q(u) = u(s*) for every u, so rho is linear.  Conversely, q is positively
    homogeneous and, away from ties, picks one coordinate; additive on the
    cone {f/s : f nondecreasing}, which has an interior, it is linear there,
    so q(u) = u(j) for one fixed level j, and the pair (1, -1) forces
    j = s*.  When f(s*) > 0, f can place any set of the other levels'
    ratios below or above f(s*)/s*, so q(u) = u(s*) for every f iff
    off <= L (the others below) and on > L (the others above).

    A VaR failure past (1, -1) is shown by one constructed, superadditive
    pair (two samples), re-verified comonotone with S1; the masses below and
    above s* are within L, as var(S1) + var(-S1) = 0.  If off > L:
    X = S1/2 but S1/4 below s*, Y = min(S1, s*)/2; q(X) = q(Y) = 1/2, while
    X + Y has its largest ratio, 1, at s* alone.  Else (on <= L):
    X = s*/4 but S1/2 above s*, Y = s*/2 but S1/4 below s*.  X's ratio is
    least at s* and Y's greatest, so q(X) = v > 1/4, q(Y) = 1/2, and X + Y's
    ratio stays below v + 1/2 on {u_X <= v}.  X + Y <= S1 cannot overflow.
    Explicit criteria raise ``ValueError``.
    """
    if not spec.is_builtin:
        raise ValueError("exact asset-comonotone additivity decision requires a built-in criterion")
    one = RandVar.constant(asset.payoff.space, 1.0)
    x, y, note = _decided_pair(spec, asset, one)
    if x is None:
        return CheckReport("asset-comonotone-additivity", True, 1, note=note)
    rho_fn = _requirement(spec, asset, 1e-12)
    return CheckReport(
        "asset-comonotone-additivity", False, 1 if x is one else 2,
        witness={"x": x, "y": y, "gap": rho_fn(x + y) - rho_fn(x) - rho_fn(y)}, note=note,
    )


def _decided_pair(
    spec: AcceptanceSpec, asset: EligibleAsset, one: RandVar
) -> tuple[RandVar | None, RandVar | None, str]:
    """``(x, y, note)`` of a pair that is not additive, or ``(None, None, note)`` if none is.

    See :func:`additivity_on_S_comonotone` for the rule and the pairs.
    """
    payoff = asset.payoff
    if spec.kind != "var":
        if asset.risk_free or spec.is_linear_kind:
            return None, None, "exact decision: constant payoff or linear criterion: rho is linear"
        return one, -one, "exact decision: F(S1) + F(-S1) > 0 for a pointed criterion"
    if spec.functional_value(payoff) + spec.functional_value(-payoff) != 0.0:
        return one, -one, "exact decision: var(S1) + var(-S1) != 0"
    space, s = payoff.space, payoff.values
    s_star = upper_quantile(payoff, spec.level.alpha)
    nums, _ = space.int_probs
    on = sum(m for m, level in zip(nums, s.tolist()) if level == s_star)
    off, limit = sum(nums) - on, var_loss_limit(spec, space)
    below, above = s < s_star, s > s_star
    if off > limit:
        x, y = np.where(below, s / 4, s / 2), np.minimum(s, s_star) / 2
        note = "exact decision: the mass off {S1 = s*} exceeds the VaR loss limit; superadditive"
    elif on <= limit:
        x, y = np.where(above, s / 2, s_star / 4), np.where(below, s / 4, s_star / 2)
        note = "exact decision: the mass of {S1 = s*} is within the VaR loss limit; superadditive"
    else:
        return None, None, "exact decision: only {S1 = s*} outweighs the VaR loss limit: linear"
    x, y = RandVar(space, x), RandVar(space, y)
    if not (is_comonotone(x, y) and is_comonotone(x, payoff) and is_comonotone(y, payoff)):
        raise ArithmeticError("additivity witness failed re-verification through is_comonotone")
    return x, y, note


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
            "numeraire-comonotonicity", True, 1,
            note="constant payoff: multiplication preserves comonotonicity exactly",
        )
    forward, reverse = _numeraire_witnesses(asset.payoff)
    for w, discounted_comonotone in ((forward, True), (reverse, False)):
        if (is_comonotone(w["x_discounted"], w["y_discounted"]) != discounted_comonotone
                or is_comonotone(w["x"], w["y"]) == discounted_comonotone):
            raise ArithmeticError("numeraire witness failed re-verification through is_comonotone")
    return CheckReport(
        "numeraire-comonotonicity", False, 1,
        witness={"forward": forward, "reverse": reverse},
        note="witnesses in both directions: multiplication by the payoff disrupts comonotonicity",
    )
