"""Acceptance sets as membership predicates plus structural-property checkers.

An acceptance set is encoded by its defining decreasing functional: a
position is acceptable iff the functional value is <= 0.  Membership uses an
exact comparison with no tolerance, because the interesting counterexamples
live on boundaries which exact constructions can hit.

The structural checkers (monotone, cone, convex, risk invariants) verify
universally quantified set properties by seeded randomized sampling plus
deterministic probes; a "pass" therefore means "no violation found in N
trials", never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from . import _sampling as smp
from .measures import DistortionWeights, Level, distortion, es, var
from .reporting import CheckReport
from .spaces import FiniteSpace, RandVar, expectation

__all__ = [
    "AcceptanceSpec",
    "accepts",
    "boundary_member",
    "sample_accepted",
    "check_monotone",
    "check_cone",
    "check_convex",
    "find_risk_invariant",
]

BUILTIN_KINDS = ("var", "es", "distortion", "expectation")


@dataclass(frozen=True, eq=False)
class AcceptanceSpec:
    """Tagged acceptability criterion.

    Built-in kinds pair a standard tail functional with the zero threshold;
    the ``explicit`` kind wraps a user-supplied decreasing functional with
    membership ``functional(X) <= 0`` (the wrapped functional must be
    continuous and decreasing for the induced set to be closed and monotone;
    this is documented, not checked at runtime).
    """

    kind: str
    level: Level | None = None
    weights: DistortionWeights | None = None
    functional: Callable[[RandVar], float] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in BUILTIN_KINDS + ("explicit",):
            raise ValueError(f"unknown acceptance kind {self.kind!r}")
        if self.kind in ("var", "es") and self.level is None:
            raise ValueError(f"kind {self.kind!r} needs a level")
        if self.kind == "distortion" and self.weights is None:
            raise ValueError("kind 'distortion' needs mixture weights")
        if self.kind == "explicit" and self.functional is None:
            raise ValueError("kind 'explicit' needs a functional")

    @classmethod
    def var_level(cls, alpha: float) -> "AcceptanceSpec":
        return cls("var", level=Level(alpha), label=f"var({alpha})")

    @classmethod
    def es_level(cls, alpha: float) -> "AcceptanceSpec":
        return cls("es", level=Level(alpha), label=f"es({alpha})")

    @classmethod
    def distortion_mix(cls, weights: DistortionWeights) -> "AcceptanceSpec":
        return cls("distortion", weights=weights, label="distortion")

    @classmethod
    def expectation_floor(cls) -> "AcceptanceSpec":
        return cls("expectation", label="expectation")

    @classmethod
    def explicit(cls, functional: Callable[[RandVar], float], label: str = "explicit") -> "AcceptanceSpec":
        return cls("explicit", functional=functional, label=label)

    def functional_value(self, x: RandVar) -> float:
        if self.kind == "var":
            return var(x, self.level)
        if self.kind == "es":
            return es(x, self.level)
        if self.kind == "distortion":
            return distortion(x, self.weights)
        if self.kind == "expectation":
            return -expectation(x)
        return float(self.functional(x))

    @property
    def is_builtin(self) -> bool:
        return self.kind in BUILTIN_KINDS

    @property
    def is_convex_kind(self) -> bool:
        """Kinds whose functional is subadditive, hence set convex."""
        return self.kind in ("es", "distortion", "expectation")

    @property
    def is_linear_kind(self) -> bool:
        """Negated-expectation kinds: expectation, and a distortion that is the point mass at 1."""
        return self.kind == "expectation" or (
            self.kind == "distortion" and self.weights.is_pure_expectation
        )

    @property
    def is_pointed_kind(self) -> bool:
        """Kinds whose set meets its negation only at zero: convex, not linear."""
        return self.is_convex_kind and not self.is_linear_kind


def accepts(spec: AcceptanceSpec, x: RandVar) -> bool:
    """Capital adequacy test: defining functional <= 0, compared exactly."""
    return spec.functional_value(x) <= 0.0


def boundary_member(
    spec: AcceptanceSpec, space: FiniteSpace, rng: np.random.Generator, margin: float = 0.0
) -> RandVar | None:
    """Random acceptable position shifted to the boundary of acceptability.

    For built-in kinds the functional is cash additive, so adding its value
    as a constant lands the position at functional value 0; a geometric
    nudge absorbs the rare rounding residue that leaves the shifted position
    a hair outside.  Membership is compared exactly, so checkers that
    re-evaluate the functional on transformed copies of the position should
    request a small interior ``margin``: it keeps the member strictly inside
    the set, out of reach of rounding noise, while staying within ``margin``
    of the boundary.  Returns None when no acceptable position is found
    (possible only for ill-behaved explicit functionals).
    """
    y = smp.grid_randvar(space, rng)
    if not spec.is_builtin:
        for cand in (y, -y, RandVar.constant(space, 0.0)):
            if accepts(spec, cand):
                return cand
        for k in range(17):
            cand = RandVar.constant(space, -float(2**k))
            if accepts(spec, cand):
                return cand
        return None
    m = spec.functional_value(y)
    x = y + (m + margin)
    step = 1e-12 * max(1.0, abs(m), x.max_abs)
    for _ in range(64):
        if accepts(spec, x):
            return x
        x = x + step
        step *= 2.0
    return None


#: Interior margin for sampled members fed back through transformed
#: re-evaluations; far above rounding noise, far below any grid scale.
MEMBER_MARGIN = 1e-9


def sample_accepted(
    spec: AcceptanceSpec,
    space: FiniteSpace,
    rng: np.random.Generator,
    margin: float = MEMBER_MARGIN,
) -> RandVar | None:
    """Acceptable position for property trials: near-boundary draw or raw draw."""
    if bool(rng.integers(0, 2)):
        y = smp.grid_randvar(space, rng)
        if spec.functional_value(y) <= -margin:
            return y
    return boundary_member(spec, space, rng, margin=margin)


def check_monotone(
    spec: AcceptanceSpec, space: FiniteSpace, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Sampled monotonicity: X acceptable and Y >= X forces Y acceptable."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    done = 0
    for _ in range(trials):
        x = sample_accepted(spec, space, rng)
        if x is None:
            continue
        y = x + smp.nonneg_grid_randvar(space, rng)
        done += 1
        if not accepts(spec, y):
            return CheckReport(
                "monotone", False, done, seed,
                witness={"x": x, "y": y},
                note="acceptable x dominated by rejected y",
            )
    return CheckReport("monotone", True, done, seed)


def check_cone(
    spec: AcceptanceSpec, space: FiniteSpace, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Sampled conicity: nonnegative scalings of acceptable positions stay acceptable."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    done = 0
    for i in range(trials):
        x = sample_accepted(spec, space, rng)
        if x is None:
            continue
        # first trials walk a deterministic scale grid, 0 included
        grid = (0.0, 0.5, 2.0, 7.5)
        t = grid[i] if i < len(grid) else float(rng.uniform(0.0, 4.0))
        done += 1
        if not accepts(spec, t * x):
            return CheckReport(
                "cone", False, done, seed,
                witness={"x": x, "t": t, "scaled": t * x},
                note="acceptable x leaves the set under scaling",
            )
    return CheckReport("cone", True, done, seed)


def check_convex(
    spec: AcceptanceSpec, space: FiniteSpace, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Sampled convexity, with indicator-based deterministic probes first.

    The probes blend two acceptable positions that are each negative on a
    single small-probability atom; for quantile-based criteria the blend
    doubles the loss probability, which is exactly how convexity fails.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    n = space.n_atoms
    done = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = RandVar.constant(space, 1.0) - 4.0 * RandVar.indicator(space, [i])
            y = RandVar.constant(space, 1.0) - 4.0 * RandVar.indicator(space, [j])
            if not (accepts(spec, x) and accepts(spec, y)):
                continue
            blend = 0.5 * x + 0.5 * y
            done += 1
            if not accepts(spec, blend):
                return CheckReport(
                    "convex", False, done, seed,
                    witness={"x": x, "y": y, "t": 0.5, "blend": blend},
                    note="midpoint of two acceptable positions rejected",
                )
    for _ in range(trials):
        x = sample_accepted(spec, space, rng)
        y = sample_accepted(spec, space, rng)
        if x is None or y is None:
            continue
        t = float(rng.uniform())
        blend = t * x + (1.0 - t) * y
        done += 1
        if not accepts(spec, blend):
            return CheckReport(
                "convex", False, done, seed,
                witness={"x": x, "y": y, "t": t, "blend": blend},
                note="blend of two acceptable positions rejected",
            )
    return CheckReport("convex", True, done, seed)


def find_risk_invariant(
    spec: AcceptanceSpec, space: FiniteSpace, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Search for a nonzero position acceptable together with its negation.

    Deterministic probes cover scaled indicator differences, exactly
    mean-zero two-atom positions and single-atom indicators before the
    randomized phase.  A nonzero VaR invariant exists iff some atom's
    indicator is one, so for VaR the probes alone decide.  For pointed
    kinds (expected shortfall, distortion mixtures with mass off level 1)
    the report additionally carries the analytic certificate: the functional
    applied to X and to -X sums to a strictly positive number on every
    sampled nonconstant X, which rules out nonzero invariants outright.

    ``passed`` is True when no invariant was found.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = smp.as_rng(seed)
    gaps: list[float] = []

    def candidates():
        for i, j in permutations(range(space.n_atoms), 2):
            one_i = RandVar.indicator(space, [i])
            one_j = RandVar.indicator(space, [j])
            for c in (1.0, 2.0):
                yield c * (one_i - one_j)
            yield float(space.probs[j]) * one_i - float(space.probs[i]) * one_j
        for i in range(space.n_atoms):
            yield RandVar.indicator(space, [i])
        for _ in range(trials):
            x = smp.grid_randvar(space, rng)
            yield x
            yield x - expectation(x)
            if spec.is_pointed_kind and not x.is_constant:
                gaps.append(spec.functional_value(x) + spec.functional_value(-x))

    done = 0
    for w in candidates():
        done += 1
        if w.max_abs > 0.0 and accepts(spec, w) and accepts(spec, -w):
            return CheckReport(
                "risk-invariant", False, done, seed,
                witness={"w": w},
                note="nonzero risk invariant found",
            )

    data: dict = {}
    if spec.is_pointed_kind:
        certificate_min = min(gaps, default=float("inf"))
        data["pointedness_certificate"] = {
            "samples": len(gaps),
            "min_gap": certificate_min,
            "holds": bool(gaps) and certificate_min > 0.0,
        }
    return CheckReport(
        "risk-invariant", True, done, seed,
        note="none found",
        data=data,
    )
