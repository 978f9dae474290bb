"""Acceptance sets as membership predicates plus exact structural decisions.

An acceptance set is encoded by its defining decreasing functional: a
position is acceptable iff the functional value is <= 0.  Membership uses an
exact comparison with no tolerance, because the interesting counterexamples
live on boundaries which exact constructions can hit.

The built-in kinds are VaR and distortion mixtures, with expected
shortfall and the expectation floor as one-point mixtures; their set
properties are decided by kind, with one sample and no seed.  VaR is read
through the integer loss limit of :func:`var_loss_limit`: it accepts X iff
the mass of {X < 0} is within the limit, so its monotonicity and conicity
are exact on floats and its convexity and risk invariants are decided from
atom masses.  Distortion mixtures are decreasing, positively homogeneous
and subadditive, so their exact sets are monotone convex cones
by construction (:func:`decide_monotone`, :func:`decide_cone`,
:func:`decide_convex`); the float functional is not exactly conic at the
boundary, where the rounding of t * X can push a member just outside.
Explicit criteria have no set-property decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .measures import DistortionWeights, Level, distortion, var
from .reporting import CheckReport
from .spaces import FiniteSpace, RandVar

__all__ = [
    "AcceptanceSpec",
    "accepts",
    "var_loss_limit",
    "decide_monotone",
    "decide_cone",
    "decide_convex",
    "decide_risk_invariant",
]

BUILTIN_KINDS = ("var", "distortion")


@dataclass(frozen=True, eq=False)
class AcceptanceSpec:
    """Tagged acceptability criterion.

    Built-in kinds pair a standard tail functional with the zero threshold:
    ``var`` at a level, and ``distortion``, a mixture of expected shortfall
    levels.  Expected shortfall at alpha is the one-point mixture
    ((alpha, 1)) and the expectation floor the mixture ((1, 1)).  The
    ``explicit`` kind wraps a user-supplied decreasing functional with
    membership ``functional(X) <= 0`` (the wrapped functional must be
    continuous and decreasing for the induced set to be closed and monotone;
    this is documented, not checked at runtime).
    """

    kind: str
    level: Level | None = None
    weights: DistortionWeights | None = None
    functional: Callable[[RandVar], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in BUILTIN_KINDS + ("explicit",):
            raise ValueError(f"unknown acceptance kind {self.kind!r}")
        if self.kind == "var" and self.level is None:
            raise ValueError("kind 'var' needs a level")
        if self.kind == "distortion" and self.weights is None:
            raise ValueError("kind 'distortion' needs mixture weights")
        if self.kind == "explicit" and self.functional is None:
            raise ValueError("kind 'explicit' needs a functional")

    @classmethod
    def var_level(cls, alpha: float) -> "AcceptanceSpec":
        return cls("var", level=Level(alpha))

    @classmethod
    def es_level(cls, alpha: float) -> "AcceptanceSpec":
        return cls.distortion_mix(DistortionWeights(((Level(alpha).alpha, 1.0),)))

    @classmethod
    def distortion_mix(cls, weights: DistortionWeights) -> "AcceptanceSpec":
        return cls("distortion", weights=weights)

    @classmethod
    def expectation_floor(cls) -> "AcceptanceSpec":
        return cls.distortion_mix(DistortionWeights(((1.0, 1.0),)))

    @classmethod
    def explicit(cls, functional: Callable[[RandVar], float]) -> "AcceptanceSpec":
        return cls("explicit", functional=functional)

    def functional_value(self, x: RandVar) -> float:
        if self.kind == "var":
            return var(x, self.level)
        if self.kind == "distortion":
            return distortion(x, self.weights)
        return float(self.functional(x))

    @property
    def is_builtin(self) -> bool:
        return self.kind in BUILTIN_KINDS

    @property
    def is_convex_kind(self) -> bool:
        """Kinds whose functional is subadditive, hence set convex."""
        return self.kind == "distortion"

    @property
    def is_linear_kind(self) -> bool:
        """The negated expectation: a distortion that is the point mass at level 1."""
        return self.kind == "distortion" and self.weights.is_pure_expectation

    @property
    def is_pointed_kind(self) -> bool:
        """Kinds whose set meets its negation only at zero: convex, not linear."""
        return self.is_convex_kind and not self.is_linear_kind


def accepts(spec: AcceptanceSpec, x: RandVar) -> bool:
    """Capital adequacy test: defining functional <= 0, compared exactly."""
    return spec.functional_value(x) <= 0.0


def var_loss_limit(spec: AcceptanceSpec, space: FiniteSpace) -> int:
    """The largest integer mass over ``space.int_probs`` that VaR may lose.

    :func:`accepts` compares the correctly rounded P(X < 0) with alpha: a
    mass s passes iff s / den lies below the midpoint of alpha and the next
    float (one step down where that tie rounds up); the whole space never
    passes.  So a VaR criterion accepts X iff the numerators of {X < 0} sum
    to at most this limit.
    """
    nums, den = space.int_probs
    alpha = spec.level.alpha
    limit = math.floor((Fraction(alpha) + Fraction(math.nextafter(alpha, 1.0))) / 2 * den)
    return min(limit - (limit / den > alpha), sum(nums) - 1)


def _by_construction(name: str, spec: AcceptanceSpec, var_note: str, note: str) -> CheckReport:
    if not spec.is_builtin:
        raise ValueError(f"exact {name} decision requires a built-in criterion")
    return CheckReport(name, True, 1, note=var_note if spec.kind == "var" else note)


def decide_monotone(spec: AcceptanceSpec) -> CheckReport:
    """Exact monotonicity of a built-in acceptance set: it always holds.

    VaR accepts X iff the mass of {X < 0} is within :func:`var_loss_limit`,
    and Y >= X gives {Y < 0} within {X < 0}, on floats too.  ES, distortion
    mixtures and the expectation floor are decreasing functionals, so their
    exact sets are monotone by construction.
    """
    return _by_construction(
        "monotone", spec,
        "exact decision: Y >= X loses only atoms that X loses",
        "decreasing criterion: monotone by construction",
    )


def decide_cone(spec: AcceptanceSpec) -> CheckReport:
    """Exact conicity of a built-in acceptance set: it always holds.

    VaR: for t >= 0 the rounded t * X is negative only where X is (the sign
    of a float product is exact, and an underflow gives a zero), so
    {t * X < 0} lies within {X < 0}.  ES, distortion mixtures and the
    expectation floor are positively homogeneous, so their exact sets are
    cones by construction; the float functional need not be conic at a
    boundary member.
    """
    return _by_construction(
        "cone", spec,
        "exact decision: t * X for t >= 0 loses only atoms that X loses",
        "positively homogeneous criterion: a cone by construction",
    )


def decide_convex(spec: AcceptanceSpec, space: FiniteSpace) -> CheckReport:
    """Exact convexity of a built-in acceptance set.

    ES, distortion mixtures and the expectation floor are subadditive and
    positively homogeneous, so their sets are convex by construction.  VaR
    accepts X iff the mass of {X < 0} is within :func:`var_loss_limit`, and
    a blend of X and Y is negative only where X or Y is.  So the VaR set is
    convex iff the atoms accepted one at a time have an accepted total.
    Otherwise E, the longest accepted prefix of those atoms in ascending
    probability (ties by index), and the next atom i give the witness
    x = -1_E, y = -1_i, t = 1/2: their midpoint loses E and i together.
    The witness is re-verified through :func:`accepts`.
    """
    if not spec.is_builtin:
        raise ValueError("exact convex decision requires a built-in criterion")
    if spec.kind != "var":
        return CheckReport("convex", True, 1, note="subadditive criterion: convex by construction")
    nums, _ = space.int_probs
    limit = var_loss_limit(spec, space)
    singles = sorted((i for i, m in enumerate(nums) if m <= limit), key=nums.__getitem__)
    mass = 0
    for k, i in enumerate(singles):
        mass += nums[i]
        if mass > limit:
            # adding 0.0 clears the negative zeros off the complements
            x = -RandVar.indicator(space, singles[:k]) + 0.0
            y = -RandVar.indicator(space, [i]) + 0.0
            blend = 0.5 * x + 0.5 * y
            if not accepts(spec, x) or not accepts(spec, y) or accepts(spec, blend):
                raise ArithmeticError("convex witness failed re-verification through accepts")
            return CheckReport(
                "convex", False, 1,
                witness={"x": x, "y": y, "t": 0.5, "blend": blend},
                note="exact decision: the atoms accepted one at a time are not accepted together",
            )
    return CheckReport(
        "convex", True, 1,
        note="exact decision: the atoms accepted one at a time are accepted together",
    )


def decide_risk_invariant(spec: AcceptanceSpec, space: FiniteSpace) -> CheckReport:
    """Exact existence of a nonzero position acceptable together with its negation.

    * Pointed kinds (expected shortfall, distortion mixtures with mass off
      level 1): F(X) + F(-X) > 0 for nonconstant X, and c and -c are not
      both acceptable for c != 0, so no nonzero invariant exists.
    * VaR: W and -W are both acceptable only if each atom where W is
      nonzero may be lost alone, so an invariant exists iff some atom's
      indicator is one; the witness is the lowest-index such atom,
      re-verified through :func:`accepts`.
    * Expectation-linear kinds: the invariants are the mean-zero positions,
      so one exists iff there are two atoms.  The witness is
      p_1 * 1_0 - p_0 * 1_1: its mean p_0 * p_1 - p_1 * p_0 is zero in exact
      rationals over the stored probabilities.  It is not re-verified
      through ``accepts``, which sums the mean in floats: a fused
      multiply-add can leave the rounding residue of p_0 * p_1 there.

    ``passed`` is True when no invariant exists.
    """
    if not spec.is_builtin:
        raise ValueError("exact risk-invariant decision requires a built-in criterion")
    if spec.is_pointed_kind:
        return CheckReport(
            "risk-invariant", True, 1,
            note="pointed criterion: F(X) + F(-X) > 0 for nonconstant X, so no nonzero invariant exists",
        )
    if spec.kind == "var":
        limit = var_loss_limit(spec, space)
        atom = next((i for i, m in enumerate(space.int_probs[0]) if m <= limit), None)
        if atom is None:
            return CheckReport(
                "risk-invariant", True, 1,
                note="exact decision: no atom may be lost alone, so no invariant exists",
            )
        w = RandVar.indicator(space, [atom])
        if not accepts(spec, w) or not accepts(spec, -w):
            raise ArithmeticError("risk-invariant witness failed re-verification through accepts")
        return CheckReport(
            "risk-invariant", False, 1, witness={"w": w},
            note="exact decision: an atom that may be lost alone gives an invariant",
        )
    if space.n_atoms == 1:
        return CheckReport(
            "risk-invariant", True, 1,
            note="expectation-linear criterion on one atom: only 0 has mean zero",
        )
    p0, p1 = space.probs[:2].tolist()
    w = RandVar(space, [p1, -p0] + [0.0] * (space.n_atoms - 2))
    return CheckReport(
        "risk-invariant", False, 1, witness={"w": w},
        note="expectation-linear criterion: a two-atom position with mean zero in exact rationals",
    )

