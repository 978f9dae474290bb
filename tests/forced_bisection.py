"""Forced bisection: the slow solver oracle of ``rho``'s closed forms and of Newton.

``rho`` bisects explicit criteria only.  Wrapping a built-in criterion's
functional as an explicit one sends its quote through that bisection, from
the same start and tolerance, with the same membership floats and the same
errors.
"""

from __future__ import annotations

from eligirisk import AcceptanceSpec, EligibleAsset, RandVar, RiskQuote, rho


def rho_bisection(
    spec: AcceptanceSpec, asset: EligibleAsset, x: RandVar, tol: float | None = None
) -> RiskQuote:
    """``rho`` of ``spec`` by bracketed bisection, whatever its kind."""
    return rho(AcceptanceSpec.explicit(spec.functional_value), asset, x, tol)
