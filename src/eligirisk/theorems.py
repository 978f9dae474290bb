"""Executable checkers for the characterization results linking comonotonic
additivity of the eligible-asset risk measure to properties of the
acceptance set and the asset.

Each checker turns one statement into a finite verification: exact single
membership tests where the statement reduces to one, one pass over integer
subset sums for VaR's ``theorem-b`` and ``var-condition-b`` (which hands its
asset to ``theorem-b``), and seeded sampling for universally quantified
conditions.  Single-pass exact verdicts report one sample and no seed; a
sampled "pass" means "no violation found", never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from . import _sampling as smp
from .acceptance import AcceptanceSpec, accepts, boundary_member
from .comonotone import (
    _payoff_steps,
    _requirement,
    additivity_on_comonotone,
    generate_comonotone_pair,
    is_comonotone,
)
from .engine import EligibleAsset, rho, rho_cash
from .measures import Level, var
from .reporting import witness_to_jsonable
from .spaces import FiniteSpace, RandVar, expectation

__all__ = [
    "TheoremVerdict",
    "check_theorem_condition_b",
    "check_corollary_convex",
    "check_cash_reduction_identity",
    "check_lemma_equality",
    "check_var_necessary_condition",
    "check_var_condition_b",
    "find_additivity_violation",
    "run_replication_suite",
    "REFERENCE_VALUES",
]

#: Solver tolerance used whenever a checker needs the requirement of the
#: constant position 1 before forming exact membership probes.
RHO_ONE_TOL = 1e-12

#: Least requirement gap that ``find_additivity_violation`` reports.
ADDITIVITY_THRESHOLD = 1e-7


@dataclass
class TheoremVerdict:
    """Outcome of one statement check.

    ``verdict`` is "pass" or "fail"; a witness, when present, is
    re-verifiable through the public membership and comonotonicity
    predicates.  ``condition_values`` records the quantities the statement
    is phrased in (for instance the leveraged payoff used in the stability
    condition), so a reader can redo the decisive comparisons by hand.
    """

    statement: str
    verdict: str
    samples: int = 0
    seed: int | None = None
    witness: dict | None = None
    condition_values: dict = field(default_factory=dict)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_jsonable(self) -> dict:
        return {
            "statement": self.statement,
            "verdict": self.verdict,
            "samples": self.samples,
            "seed": self.seed,
            "witness": witness_to_jsonable(self.witness),
            "condition_values": witness_to_jsonable(self.condition_values),
            "note": self.note,
        }


def _rho_one(spec: AcceptanceSpec, asset: EligibleAsset) -> float:
    """Requirement of the constant position 1, exact where a closed form exists."""
    one = RandVar.constant(asset.payoff.space, 1.0)
    quote = rho(spec, asset, one, tol=RHO_ONE_TOL)
    if quote.value == 0.0:
        raise ValueError(
            "requirement of the constant 1 vanishes; "
            "a nonzero comonotonic decreasing criterion prices it strictly negative"
        )
    return quote.value


def _frac_expectation(space: FiniteSpace, values) -> Fraction:
    nums, den = space.int_probs
    return sum((n * Fraction(v) for n, v in zip(nums, values)), Fraction(0)) / den


#: Most atoms :func:`_subset_sums` enumerates.  At 20 atoms the pass of
#: ``var-condition-b`` takes 0.26-0.40 s and the process peaks at 100-130 MB
#: RSS, of which ~35 MB is the interpreter and numpy (2 vCPUs, Python 3.11,
#: numpy 2.4); time and memory double with every further atom.
SUBSET_SUM_MAX_ATOMS = 20


def _subset_sums(weights: list[int]) -> np.ndarray:
    """The integer sums of all subsets of ``weights``, indexed by bitmask.

    The first index holding a value is the least bitmask attaining it.  The
    callers use different integer limits, as they decide different sets:
    ``var-condition-b`` decides the paper's P(B) <= alpha in exact rationals
    (the exact floor of alpha, pinned by its oracle test), and ``theorem-b``
    the set :func:`accepts` implements, so that its witness re-verifies.
    """
    if len(weights) > SUBSET_SUM_MAX_ATOMS:
        raise ValueError(
            f"{len(weights)} atoms exceed the exhaustive enumeration cap {SUBSET_SUM_MAX_ATOMS}"
        )
    sums = np.zeros(1, dtype=object)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums


def check_theorem_condition_b(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """Stability of the acceptance set under the fully leveraged payoff.

    With r1 the requirement of the constant 1, form W = 1 + (r1 / S0) * S1.
    The risk measure is comonotonic iff adding or subtracting W never ejects
    an acceptable position from the set.  Convex criteria reduce to
    :func:`check_corollary_convex`.  For VaR, with v = +W or -W and
    N = {v < 0}, {X + v < 0} lies in {X < 0} united with N, so X = -c * 1_E
    is ejected for the largest acceptable event E in N^c if any X is (E is
    empty when N alone is rejected): one subset-sum pass decides it exactly,
    and the witness is re-verified through :func:`accepts`.  The verdict also
    records the necessary condition that S1 + S0 / r1 is a risk invariant.
    """
    if not spec.is_builtin:
        raise ValueError("stability check requires a comonotonic built-in criterion")
    if spec.is_convex_kind:
        inner = check_corollary_convex(spec, asset)
        inner.statement = "theorem-b"
        inner.note = (
            "convex criterion: reduced to the exact single membership test. " + inner.note
        ).strip()
        return inner

    space = asset.payoff.space
    r1 = _rho_one(spec, asset)
    w = RandVar.constant(space, 1.0) + (r1 / asset.price) * asset.payoff
    w_inv = asset.payoff + asset.price / r1
    invariant_ok = accepts(spec, w_inv) and accepts(spec, -w_inv)
    values = {"rho_one": r1, "w": w, "invariant_candidate_ok": invariant_ok}

    # accepts compares the correctly rounded P(X < 0) with alpha: a mass s
    # passes iff s / den lies below the midpoint of alpha and the next float
    # (one step down where that tie rounds up); the whole space never passes
    nums, den = space.int_probs
    alpha = spec.level.alpha
    limit = math.floor((Fraction(alpha) + Fraction(math.nextafter(alpha, 1.0))) / 2 * den)
    limit = min(limit - (limit / den > alpha), sum(nums) - 1)
    for sign, v in (("+", w), ("-", -w)):
        rest = np.flatnonzero(v.values >= 0.0)
        if rest.size == space.n_atoms:
            continue  # X + v >= X atomwise
        loss = sum(nums) - sum(nums[i] for i in rest)
        best = 0  # N alone is rejected: X = 0 is ejected, nothing to enumerate
        if loss <= limit:
            sums = _subset_sums([nums[i] for i in rest])
            # argmax keeps the first, i.e. the least bitmask, among equal masses
            best = int(np.argmax(np.where(sums <= limit, sums, -1)))
            if loss + sums[best] <= limit:
                continue
        event = [int(i) for k, i in enumerate(rest) if best >> k & 1]
        c = 1.0 + max([0.0, *v.values[event].tolist()])
        # adding 0.0 clears the negative zeros off the event
        x = -c * RandVar.indicator(space, event) + 0.0
        shifted = x + w if sign == "+" else x - w
        if not accepts(spec, x) or accepts(spec, shifted):
            raise ArithmeticError("theorem-b witness failed re-verification through accepts")
        return TheoremVerdict(
            "theorem-b", "fail", 1, None,
            witness={"x": x, "direction": sign, "shifted": shifted},
            condition_values=values,
            note="acceptable position ejected by the leveraged payoff",
        )
    return TheoremVerdict(
        "theorem-b", "pass", 1, None,
        condition_values=values,
        note="exact subset-sum decision: no acceptable position is ejected",
    )


def check_corollary_convex(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """Exact single-membership characterization for convex criteria.

    For a closed convex conic acceptance set, comonotonicity of the risk
    measure is equivalent to W' = S1 + S0 / r1 being a risk invariant, so
    one exact membership of W' and -W' settles the verdict.  Two cases are
    decided without floating noise: a constant payoff makes W' identically
    zero, and an expectation-linear criterion makes the decisive expectation
    evaluate to an exact rational zero.
    """
    if not spec.is_convex_kind:
        raise ValueError("single-membership characterization requires a convex criterion")
    space = asset.payoff.space

    if asset.risk_free:
        s = float(asset.payoff.values[0])
        r1 = -asset.price / s
        # W' = S1 + S0 / r1 = s - s: identically zero, no rounding allowed in
        zero = RandVar.constant(space, 0.0)
        return TheoremVerdict(
            "corollary-convex", "pass", 1, None,
            condition_values={"rho_one": r1, "w_invariant": zero,
                              "value_plus": 0.0, "value_minus": 0.0},
            note="constant payoff: the leveraged payoff vanishes identically",
        )

    if spec.is_linear_kind:
        # exact rational arithmetic over the stored float probabilities (whose
        # exact rational sum sigma is 1 only up to renormalization rounding):
        # r1 = -S0 * sigma / E[S1] makes E[W'] vanish identically
        nums, den = space.int_probs
        sigma = Fraction(sum(nums), den)
        e_payoff = _frac_expectation(space, asset.payoff.values.tolist())
        r1_frac = -Fraction(asset.price) * sigma / e_payoff
        w_vals = [Fraction(v) + Fraction(asset.price) / r1_frac for v in asset.payoff.values.tolist()]
        residual = _frac_expectation(space, w_vals)
        verdict = "pass" if residual == 0 else "fail"
        w_float = RandVar(space, np.array([float(v) for v in w_vals]))
        return TheoremVerdict(
            "corollary-convex", verdict, 1, None,
            condition_values={"rho_one": float(r1_frac), "w_invariant": w_float,
                              "value_plus": float(-residual), "value_minus": float(residual)},
            note="expectation-linear criterion: decisive expectation taken in exact rationals",
        )

    r1 = _rho_one(spec, asset)
    w_inv = asset.payoff + asset.price / r1
    value_plus = spec.functional_value(w_inv)
    value_minus = spec.functional_value(-w_inv)
    ok = value_plus <= 0.0 and value_minus <= 0.0
    return TheoremVerdict(
        "corollary-convex", "pass" if ok else "fail", 1, None,
        witness=None if ok else {"w_invariant": w_inv},
        condition_values={"rho_one": r1, "w_invariant": w_inv,
                          "value_plus": value_plus, "value_minus": value_minus},
        note="leveraged payoff is a risk invariant" if ok
        else "leveraged payoff fails the risk-invariant test; the measure is not comonotonic",
    )


def check_cash_reduction_identity(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    trials: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
) -> TheoremVerdict:
    """Consistency of comonotonic additivity with the cash-reduction identity.

    When the sampled additivity check finds no violation, the requirement
    must agree with -r1 times the cash requirement on every sampled
    position; when additivity fails, the identity must fail somewhere too.
    The verdict is "pass" when the two observations are consistent.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space = asset.payoff.space
    rng = smp.as_rng(seed)
    r1 = _rho_one(spec, asset)
    rho_fn = _requirement(spec, asset, min(tol * 1e-2, 1e-12))
    additivity = additivity_on_comonotone(rho_fn, space, max(trials // 2, 1), seed, tol)

    identity_witness = None
    worst = 0.0
    samples = []
    for _ in range(trials):
        samples.append(smp.grid_randvar(space, rng))
    if additivity.witness is not None:
        samples = [additivity.witness["x"], additivity.witness["y"]] + samples
    for x in samples:
        lhs = rho_fn(x)
        rhs = -r1 * rho_cash(spec, x)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > tol and identity_witness is None:
            identity_witness = {"x": x, "lhs": lhs, "rhs": rhs}

    if additivity.passed:
        ok = identity_witness is None
        note = (
            "comonotonic additivity holds on all samples and the cash reduction identity holds"
            if ok
            else "additivity passed the sampled check but the cash reduction identity fails"
        )
    else:
        ok = identity_witness is not None
        note = (
            "additivity fails and, consistently, the cash reduction identity fails"
            if ok
            else "additivity fails but no identity violation was sampled (inapplicable)"
        )
    return TheoremVerdict(
        "cash-reduction", "pass" if ok else "fail", len(samples), seed,
        witness=identity_witness,
        condition_values={"rho_one": r1, "identity_factor": -r1,
                          "additivity_passed": additivity.passed,
                          "worst_identity_error": worst},
        note=note,
    )


def check_lemma_equality(
    spec: AcceptanceSpec,
    asset_s: EligibleAsset,
    asset_r: EligibleAsset,
    trials: int = 300,
    seed: int = 0,
    tol: float = 1e-9,
) -> TheoremVerdict:
    """Two assets price every position equally iff the set absorbs their gap direction.

    Side (a) samples positions and compares the two requirements; side (b)
    samples boundary members shifted by grid multiples of
    S1/S0 - R1/R0 and tests membership.  The verdict is "pass" when the two
    sampled sides agree.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space = asset_s.payoff.space
    rng = smp.as_rng(seed)
    solver_tol = min(tol * 1e-2, 1e-12)

    a_witness = None
    for _ in range(trials):
        x = smp.grid_randvar(space, rng)
        lhs = rho(spec, asset_s, x, tol=solver_tol).value
        rhs = rho(spec, asset_r, x, tol=solver_tol).value
        if abs(lhs - rhs) > tol:
            a_witness = {"x": x, "rho_s": lhs, "rho_r": rhs}
            break
    a_holds = a_witness is None

    gap = asset_s.payoff / asset_s.price - asset_r.payoff / asset_r.price
    b_witness = None
    if gap.max_abs == 0.0:
        b_holds = True
    else:
        b_holds = True
        for k in range(trials):
            x = RandVar.constant(space, 0.0) if k == 0 else boundary_member(spec, space, rng)
            if x is None:
                continue
            for t in (-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, smp.grid_scalar(rng)):
                if not accepts(spec, x + t * gap):
                    b_witness = {"x": x, "t": t, "shifted": x + t * gap}
                    b_holds = False
                    break
            if not b_holds:
                break

    ok = a_holds == b_holds
    return TheoremVerdict(
        "lemma-equality", "pass" if ok else "fail", trials, seed,
        witness={"equality": a_witness, "stability": b_witness}
        if (a_witness or b_witness)
        else None,
        condition_values={"equality_holds": a_holds, "stability_holds": b_holds,
                          "gap_direction": gap},
        note="sampled verdicts of the two sides agree" if ok
        else "sampled verdicts of the two sides disagree",
    )


def check_var_necessary_condition(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """Necessary payoff concentration for a comonotonic quantile-based measure.

    The payoff must equal a single constant with probability at least
    1 - 2 * alpha; the constant is the payoff level whose reciprocal is the
    upper quantile of 1 / S1, so the event is evaluated by exact equality on
    the reciprocal values with no rounding of the constant itself, and its
    mass is compared with 1 - 2 * alpha in integers.  A false verdict
    certifies non-comonotonicity by contraposition.
    """
    if spec.kind != "var":
        raise ValueError("the concentration condition applies to the quantile criterion")
    alpha = spec.level.alpha
    recip = 1.0 / asset.payoff
    v = var(recip, spec.level)
    q = -v  # the selected reciprocal payoff level
    mask = recip.values == q
    event = np.flatnonzero(mask)
    nums, den = asset.payoff.space.int_probs
    num_alpha, den_alpha = alpha.as_integer_ratio()
    holds = sum(nums[i] for i in event) * den_alpha >= (den_alpha - 2 * num_alpha) * den
    return TheoremVerdict(
        "var-necessary", "pass" if holds else "fail", 1, None,
        condition_values={
            "var_of_reciprocal_payoff": v,
            "payoff_constant": float(asset.payoff.values[np.argmax(mask)]),
            "mass_at_constant": asset.payoff.space.event_prob(event),
            "threshold": 1.0 - 2.0 * alpha,
        },
        note="payoff concentration condition holds" if holds
        else "payoff concentration fails: the measure cannot be comonotonic",
    )


def check_var_condition_b(space: FiniteSpace, level: Level) -> TheoremVerdict:
    """Existence of a risky asset making the quantile-based measure comonotonic.

    The condition asks for an event A with 0 < P(A) <= alpha and
    P(A) + max{P(B) : B in A^c, P(B) <= alpha} <= alpha.  It is decided
    exactly, independent of atom order and without deduplication: the subset
    sums are formed from the integer probabilities of
    :attr:`FiniteSpace.int_probs`, alpha enters as the exact floor of its
    value on that scale, and one max-zeta pass over all 2^n subset sums
    gives the inner maximum of every complement at once.  The chosen event has
    the least probability (then the least bitmask); ``samples`` counts the
    candidate events.  On success the witness asset (price 1, payoff 2 on A
    and 1 elsewhere, so W = -1_A) is decided by the exact theorem-b pass under
    the rounding of :func:`accepts`, whose verdict and witness are reported.
    """
    n = space.n_atoms
    alpha = level.alpha
    weights, scale = space.int_probs
    num, den = alpha.as_integer_ratio()
    limit = num * scale // den  # P(B) <= alpha  iff  sums[B] <= limit
    sums = _subset_sums(weights)
    # inner[M] = max{P(B) : B subset of M, P(B) <= alpha}, one atom at a time
    inner = np.where(sums <= limit, sums, 0)
    for i in range(n):
        view = inner.reshape(-1, 2, 2**i)
        np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    candidates = np.flatnonzero((sums > 0) & (sums <= limit))
    totals = sums[candidates] + inner[(sums.size - 1) ^ candidates]
    holds = candidates[totals <= limit]

    if holds.size == 0:
        detail = (
            "no event carries probability within (0, alpha] at all"
            if candidates.size == 0
            else "every candidate event is spoiled by a subset of its complement"
        )
        return TheoremVerdict(
            "var-condition-b", "fail", candidates.size, None,
            condition_values={
                "alpha": alpha,
                "candidate_events": candidates.size,
                "best_total": totals.min() / scale if candidates.size else None,
            },
            note=f"exhaustive enumeration: {detail}; "
            "only constant payoffs give a comonotonic measure on this space",
        )

    # argmin keeps the first, i.e. the least bitmask, among equal probabilities
    found = int(holds[np.argmin(sums[holds])])
    event = [i for i in range(n) if found >> i & 1]
    asset = EligibleAsset(1.0, RandVar.constant(space, 1.0) + RandVar.indicator(space, event))
    stability = check_theorem_condition_b(AcceptanceSpec.var_level(alpha), asset)
    return TheoremVerdict(
        "var-condition-b", stability.verdict, candidates.size, None,
        witness=stability.witness,
        condition_values={
            "alpha": alpha,
            "event": event,
            "event_prob": sums[found] / scale,
            "inner_max": inner[(sums.size - 1) ^ found] / scale,
            "witness_payoff": asset.payoff,
        },
        note="condition holds; constructed risky asset passes the exact theorem-b check"
        if stability.passed
        else "condition holds, but under the rounding of accepts the constructed asset "
        "ejects an accepted position",
    )


def find_additivity_violation(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    budget: int = 2000,
    seed: int = 0,
    seed_pairs: list[tuple[RandVar, RandVar]] | None = None,
) -> TheoremVerdict:
    """Search for a comonotone pair breaking additivity of the requirement.

    The probe order is: caller-supplied pairs, the constant pair (1, -1),
    negated level-set steps of the payoff paired with constants (the shape
    of the known counterexamples), random comonotone pairs, and random
    positions paired with constants.  If all of that stays within the
    threshold, a deterministic fallback looks for a position where the
    requirement deviates from -r1 times the cash requirement and converts
    that deviation into a violating pair built from the position and two
    nearby constants; for a risky asset and a pointed convex criterion such
    a position always exists.

    The verdict is "fail" (witness found) exactly when a verified
    comonotone pair exceeds the threshold; searches are exit-coded like
    checks so expected failures can be asserted.
    """
    space = asset.payoff.space
    rng = smp.as_rng(seed)
    rho_fn = _requirement(spec, asset, 1e-12)  # far below the threshold

    def gap_of(x: RandVar, y: RandVar) -> float:
        return rho_fn(x + y) - rho_fn(x) - rho_fn(y)

    best: tuple[float, RandVar, RandVar] | None = None
    evaluated = 0

    def consider(x: RandVar, y: RandVar) -> bool:
        nonlocal best, evaluated
        if not is_comonotone(x, y):
            return False
        evaluated += 1
        g = gap_of(x, y)
        if abs(g) > ADDITIVITY_THRESHOLD and (best is None or abs(g) > abs(best[0])):
            best = (g, x, y)
        return best is not None and abs(best[0]) > ADDITIVITY_THRESHOLD

    one = RandVar.constant(space, 1.0)
    probes: list[tuple[RandVar, RandVar]] = list(seed_pairs or [])
    probes.append((one, -one))
    for s in _payoff_steps(asset):
        probes.append((s, one))
        probes.append((s, -one))
        probes.append((s, 2.0 * s))

    for x, y in probes:
        if consider(x, y):
            break
    while best is None and evaluated < budget:
        pair = generate_comonotone_pair(space, rng)
        if consider(pair.x, pair.y):
            break
        x = smp.grid_randvar(space, rng)
        lam = smp.grid_scalar(rng)
        consider(x, RandVar.constant(space, lam))

    if best is None:
        # deterministic fallback via the cash-reduction identity
        r1 = _rho_one(spec, asset)
        candidates = [RandVar.indicator(space, [i]) * (-1.0) for i in range(space.n_atoms)]
        candidates += [RandVar.indicator(space, [i]) for i in range(space.n_atoms)]
        candidates += [smp.grid_randvar(space, rng) for _ in range(64)]
        for x in candidates:
            dev = rho_fn(x) + r1 * rho_cash(spec, x)
            if abs(dev) <= 8.0 * ADDITIVITY_THRESHOLD:
                continue
            lam = rho_cash(spec, x)
            delta = abs(dev) / (2.0 * abs(r1))
            for const in (lam, lam - delta, 1.0, -1.0):
                if consider(x, RandVar.constant(space, const)):
                    break
            if best is not None:
                break

    if best is None:
        return TheoremVerdict(
            "additivity-violation", "pass", evaluated, seed,
            condition_values={"threshold": ADDITIVITY_THRESHOLD},
            note="no comonotone additivity violation found within the budget",
        )
    g, x, y = best
    assert is_comonotone(x, y)
    g = gap_of(x, y)
    return TheoremVerdict(
        "additivity-violation", "fail", evaluated, seed,
        witness={"x": x, "y": y, "gap": g},
        condition_values={"threshold": ADDITIVITY_THRESHOLD,
                          "direction": "superadditive" if g > 0 else "subadditive"},
        note="verified comonotone pair with non-additive requirement",
    )

# ---------------------------------------------------------------------------
# Replication of the worked reference examples
# ---------------------------------------------------------------------------

#: Frozen expected values of the worked examples.  ``run_replication_suite``
#: recomputes every quantity and compares against these; overriding an entry
#: is the supported way to run a tampering negative control.
REFERENCE_VALUES: dict[str, dict[str, Any]] = {
    "svar-superadditivity": {
        "probs": [0.05, 0.05, 0.9],
        "alpha": 0.05,
        "price": 1.0,
        "payoff": [1.0, 2.0, 1.0],
        "x": [-2.0, -3.0, 2.0],
        "y": [-4.0, -9.0, 0.0],
        "rho_x": 1.5,
        "rho_y": 4.0,
        "rho_sum": 6.0,
        "pairs_comonotone": True,
    },
    "svar-near-risk-free": {
        "probs": [0.1, 0.1, 0.8],
        "alpha": 0.1,
        "price": 1.0,
        "payoff": [1.0, 2.0, 1.0],
        "rho_one": -1.0,
        "necessary_condition": "pass",
        "theorem_b": "fail",
        "witness_x": [-1.0, 0.0, 0.0],
        "witness_shifted": [-1.0, -1.0, 0.0],
    },
    "accept-var-indicators": {
        "probs": [0.1, 0.1, 0.8],
        "alpha": 0.1,
        "single_event_accepted": True,
        "double_event_accepted": False,
    },
    "es-pointedness": {
        "probs": [0.5, 0.5],
        "alpha": 0.1,
        "risky_payoff": [1.0, 2.0],
        "risky_verdict": "fail",
        "risk_free_payoff": [2.0, 2.0],
        "risk_free_verdict": "pass",
        "certificate_strictly_positive": True,
    },
    "distortion-expectation": {
        "probs": [0.1, 0.1, 0.8],
        "risky_payoff": [1.0, 2.0, 1.0],
        "verdict": "pass",
        "value_example_x": [-2.0, -3.0, 2.0],
        "value_example": -1.1,
    },
}


def _merge_expected(overrides: dict | None) -> dict:
    if not overrides:
        return REFERENCE_VALUES
    merged = {k: dict(v) for k, v in REFERENCE_VALUES.items()}
    for key, patch in overrides.items():
        if key not in merged:
            raise KeyError(f"unknown replication fixture {key!r}")
        merged[key].update(patch)
    return merged


def _verdict(statement: str, mismatches: list[str], values: dict) -> TheoremVerdict:
    ok = not mismatches
    return TheoremVerdict(
        statement, "pass" if ok else "fail", 1, None,
        condition_values=values,
        note="all reference values reproduced" if ok else "; ".join(mismatches),
    )


def _mismatches(expected: dict, got: dict) -> list[str]:
    """One message per computed value that misses its expected value.

    Floats match within 1e-12, every other value by equality.
    """
    return [
        f"{k}: expected {expected[k]!r}, computed {v!r}"
        for k, v in got.items()
        if not (abs(v - expected[k]) <= 1e-12 if isinstance(v, float) else v == expected[k])
    ]


def _replicate_superadditivity(exp: dict) -> TheoremVerdict:
    space = FiniteSpace(exp["probs"])
    spec = AcceptanceSpec.var_level(exp["alpha"])
    asset = EligibleAsset(exp["price"], RandVar(space, exp["payoff"]))
    x = RandVar(space, exp["x"])
    y = RandVar(space, exp["y"])
    got = {
        "rho_x": rho(spec, asset, x).value,
        "rho_y": rho(spec, asset, y).value,
        "rho_sum": rho(spec, asset, x + y).value,
        "pairs_comonotone": is_comonotone(x, y),
    }
    mismatches = _mismatches(exp, got)
    if got["rho_sum"] <= got["rho_x"] + got["rho_y"]:
        mismatches.append("aggregated requirement is not strictly superadditive")
    return _verdict("replicate-svar-superadditivity", mismatches, got)


def _replicate_near_risk_free(exp: dict) -> TheoremVerdict:
    space = FiniteSpace(exp["probs"])
    spec = AcceptanceSpec.var_level(exp["alpha"])
    asset = EligibleAsset(exp["price"], RandVar(space, exp["payoff"]))
    r1 = _rho_one(spec, asset)
    necessary = check_var_necessary_condition(spec, asset)
    stability = check_theorem_condition_b(spec, asset)
    got = {
        "rho_one": r1,
        "necessary_condition": necessary.verdict,
        "theorem_b": stability.verdict,
        "witness_x": stability.witness["x"].tolist() if stability.witness else None,
        "witness_shifted": stability.witness["shifted"].tolist() if stability.witness else None,
    }
    return _verdict("replicate-svar-near-risk-free", _mismatches(exp, got), got)


def _replicate_indicators(exp: dict) -> TheoremVerdict:
    space = FiniteSpace(exp["probs"])
    spec = AcceptanceSpec.var_level(exp["alpha"])
    single = -1.0 * RandVar.indicator(space, [0])
    double = -1.0 * RandVar.indicator(space, [0, 1])
    got = {
        "single_event_accepted": accepts(spec, single),
        "double_event_accepted": accepts(spec, double),
    }
    return _verdict("replicate-accept-indicators", _mismatches(exp, got), got)


def _replicate_es_pointedness(exp: dict) -> TheoremVerdict:
    space = FiniteSpace(exp["probs"])
    spec = AcceptanceSpec.es_level(exp["alpha"])
    risky = EligibleAsset(1.0, RandVar(space, exp["risky_payoff"]))
    risk_free = EligibleAsset(1.0, RandVar(space, exp["risk_free_payoff"]))
    got = {
        "risky_verdict": check_corollary_convex(spec, risky).verdict,
        "risk_free_verdict": check_corollary_convex(spec, risk_free).verdict,
    }
    rng = smp.as_rng(11)
    min_gap = float("inf")
    for _ in range(200):
        x = smp.nonconstant_grid_randvar(space, rng)
        min_gap = min(min_gap, spec.functional_value(x) + spec.functional_value(-x))
    got["certificate_strictly_positive"] = min_gap > 0.0
    mismatches = _mismatches(exp, got)
    got["certificate_min_gap"] = min_gap
    return _verdict("replicate-es-pointedness", mismatches, got)


def _replicate_distortion_expectation(exp: dict) -> TheoremVerdict:
    from .measures import DistortionWeights, distortion

    space = FiniteSpace(exp["probs"])
    mu = DistortionWeights(((1.0, 1.0),))
    spec = AcceptanceSpec.distortion_mix(mu)
    risky = EligibleAsset(1.0, RandVar(space, exp["risky_payoff"]))
    got = {
        "verdict": check_corollary_convex(spec, risky).verdict,
        "value_example": distortion(RandVar(space, exp["value_example_x"]), mu),
    }
    return _verdict("replicate-distortion-expectation", _mismatches(exp, got), got)


def run_replication_suite(overrides: dict | None = None) -> list[TheoremVerdict]:
    """Recompute every worked reference example and compare to the frozen values.

    Deterministic: two runs produce identical verdict lists.  ``overrides``
    patches expected values per fixture (used as a tampering negative
    control); a mismatch yields a failing verdict naming the fixture and the
    offending quantity.
    """
    expected = _merge_expected(overrides)
    return [
        _replicate_superadditivity(expected["svar-superadditivity"]),
        _replicate_near_risk_free(expected["svar-near-risk-free"]),
        _replicate_indicators(expected["accept-var-indicators"]),
        _replicate_es_pointedness(expected["es-pointedness"]),
        _replicate_distortion_expectation(expected["distortion-expectation"]),
    ]
