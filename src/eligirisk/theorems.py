"""Executable checkers for the characterization results linking comonotonic
additivity of the eligible-asset risk measure to properties of the
acceptance set and the asset.

Every checker here decides its statement by construction, with no seed and
no tolerance argument: a rule read off the kind and the payoff for convex criteria,
integer mass comparisons, one pass over integer subset sums for VaR (at its
least probability atom for ``var-condition-b``), and a few constructed
comonotone pairs for the additivity search.  The paper's lemma, rho_S =
rho_R iff A + t * D = A for every real t, with D = S1/S0 - R1/R0, is
decided by one absorption test, :func:`absorbs`: ``theorem-b`` asks it for
the leveraged payoff W, and ``lemma-equality`` for D, whose ejected
position is carried to a position priced apart by the lemma's proof.
``cash-reduction``, the lemma at R = (-r1, 1) where W = r1 * D, and four more
statements hold by construction (:data:`BY_CONSTRUCTION`); r1 = rho(1) = -S0 / F(-S1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .acceptance import AcceptanceSpec, accepts, var_loss_limit
from .comonotone import _sorted_rows, is_comonotone
from .engine import EligibleAsset, _check_space, _requirement, rho
from .measures import Level, var
from .reporting import CheckReport, witness_to_jsonable
from .spaces import FiniteSpace, RandVar, _level_floor

__all__ = [
    "TheoremVerdict",
    "absorbs",
    "check_theorem_condition_b",
    "check_corollary_convex",
    "BY_CONSTRUCTION",
    "decide_by_construction",
    "check_lemma_equality",
    "check_var_necessary_condition",
    "check_var_condition_b",
    "find_additivity_violation",
    "run_replication_suite",
    "REFERENCE_VALUES",
]

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
    witness: dict | None = None
    condition_values: dict = field(default_factory=dict)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_jsonable(self) -> dict:
        return witness_to_jsonable(vars(self))


def _rho_one(spec: AcceptanceSpec, asset: EligibleAsset) -> float:
    """Requirement r1 of the constant position 1 in closed form, -S0 / F(-S1).

    F(1 + t * S1) = -1 + |t| * F(-S1) for t <= 0, as a built-in F is cash
    additive and positively homogeneous; an overflow or underflow is rejected.
    """
    return _r1_at(asset.price, _f_of_minus_payoff(spec, asset))


def _f_of_minus_payoff(spec: AcceptanceSpec, asset: EligibleAsset) -> float:
    """F(-S1), the one functional value that r1 at every price S0 divides."""
    if not spec.is_builtin:
        raise ValueError("stability check requires a comonotonic built-in criterion")
    return spec.functional_value(-asset.payoff)


def _r1_at(price: float, f: float) -> float:
    """r1 = -S0 / F(-S1) at S0 = ``price`` and F(-S1) = ``f``, checked finite and negative."""
    r1 = -price / f if f else -math.inf  # F(-S1) underflowed to 0: r1 overflows
    if not -math.inf < r1 < 0.0:
        raise ValueError(f"requirement of the constant 1 is {r1!r}, not a finite negative number")
    return r1


#: Most atoms :func:`_subset_sums` enumerates: ``var-condition-b`` omits one,
#: so it decides 21 atoms (0.12 s; ``theorem-b`` outside 20: 0.16 s).  The
#: process peaks at 100-110 MB RSS, ~35 MB of it the interpreter and numpy
#: (2 vCPUs, Python 3.11, numpy 2.4); both double with every further atom.
SUBSET_SUM_MAX_ATOMS = 20


def _subset_sums(weights: list[int], limit: int) -> np.ndarray:
    """The integer sums of all subsets of ``weights``, indexed by bitmask.

    The first index holding a value is the least bitmask attaining it.
    Every caller compares the sums with :func:`var_loss_limit`, the paper's
    P(B) <= alpha in exact rationals, which is the set :func:`accepts`
    implements, so every witness re-verifies.  The sums are int64 when the
    total and ``limit`` lie below 2**62, so no sum or comparison overflows,
    and Python ints otherwise (numerators over a 2**-1074 denominator do not
    fit); callers turn an int64 back into an int before dividing, as
    int64 / int rounds to float.
    """
    if len(weights) > SUBSET_SUM_MAX_ATOMS:
        raise ValueError(
            f"{len(weights)} atoms exceed the exhaustive enumeration cap {SUBSET_SUM_MAX_ATOMS}"
        )
    sums = np.zeros(1, dtype=np.int64 if max(sum(weights), limit) < 2**62 else object)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums


def absorbs(spec: AcceptanceSpec, space: FiniteSpace, v: RandVar) -> dict | None:
    """Whether the acceptance set absorbs the direction v: A + t * v = A for all real t.

    Returns None if it does, else a witness {x, direction, shifted}: x is
    accepted and shifted = x + v ("+") or x - v ("-") is rejected, both
    re-verified through :func:`accepts`.  As A is a cone, +v and -v suffice.
    Convex kinds: A is a convex cone, so it absorbs v iff it holds v and -v,
    and x = 0 is ejected iff one of them is rejected.  VaR: with u = +v or -v
    and N = {u < 0}, {X + u < 0} lies in {X < 0} united with N, so
    X = -c * 1_E is ejected for the largest acceptable event E in N^c if any
    X is (E is empty when N alone is rejected): one pass over the subset sums
    of the atoms outside N decides it exactly, with the least-bitmask E, up
    to :data:`SUBSET_SUM_MAX_ATOMS` of them.  Explicit criteria are rejected.
    """
    if not spec.is_builtin:
        raise ValueError("absorption decision requires a built-in criterion")
    if spec.is_convex_kind:
        zero = RandVar.constant(space, 0.0)
        for sign, shifted in (("+", zero + v), ("-", zero - v)):
            if not accepts(spec, shifted):
                return {"x": zero, "direction": sign, "shifted": shifted}
        return None

    nums, _ = space.int_probs
    limit = var_loss_limit(spec, space)
    for sign, u in (("+", v), ("-", -v)):
        rest = np.flatnonzero(u.values >= 0.0)
        if rest.size == space.n_atoms:
            continue  # X + u >= X atomwise
        loss = sum(nums) - sum(nums[i] for i in rest)
        best = 0  # N alone is rejected: X = 0 is ejected, nothing to enumerate
        if loss <= limit:
            sums = _subset_sums([nums[i] for i in rest], limit)
            # argmax keeps the first, i.e. the least bitmask, among equal masses
            best = int(np.argmax(np.where(sums <= limit, sums, -1)))
            if loss + int(sums[best]) <= limit:
                continue
        event = [int(i) for k, i in enumerate(rest) if best >> k & 1]
        c = 1.0 + max([0.0, *u.values[event].tolist()])
        # adding 0.0 clears the negative zeros off the event
        x = -c * RandVar.indicator(space, event) + 0.0
        shifted = x + v if sign == "+" else x - v
        if not accepts(spec, x) or accepts(spec, shifted):
            raise ArithmeticError("absorption witness failed re-verification through accepts")
        return {"x": x, "direction": sign, "shifted": shifted}
    return None


def check_theorem_condition_b(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """Stability of the acceptance set under the fully leveraged payoff.

    With r1 the requirement of the constant 1, W = 1 + (r1 / S0) * S1 equals
    1 - S1 / F(-S1) for every S0, so it is formed at S0 = 1 (one rounding).
    The risk measure is comonotonic iff the set absorbs W (:func:`absorbs`):
    adding or subtracting W never ejects an acceptable position.  Convex
    criteria reduce to :func:`check_corollary_convex`; for VaR the witness is
    :func:`absorbs`' ejected position.  A constant payoff gives W = 0
    exactly.  The verdict also records the necessary condition that
    S1 + S0 / r1 is a risk invariant.
    """
    if spec.is_convex_kind:
        inner = check_corollary_convex(spec, asset)
        prefix = "convex criterion: decided by kind as the corollary for convex criteria. "
        inner.statement, inner.note = "theorem-b", prefix + inner.note
        return inner

    space = asset.payoff.space
    f = _f_of_minus_payoff(spec, asset)
    r1 = _r1_at(asset.price, f)
    if asset.risk_free:
        # W = 1 - s / s and W' = s - s vanish; in floats fl(1 / s) * s may not be 1
        w = w_inv = RandVar.constant(space, 0.0)
    else:
        unit_r1 = _r1_at(1.0, f)
        with np.errstate(over="ignore"):
            w = 1.0 + unit_r1 * asset.payoff.values
        w = RandVar._fresh(space, w, "the leveraged payoff W = 1 + (r1 / S0) * S1")
        w_inv = asset.payoff + asset.price / r1
    invariant_ok = accepts(spec, w_inv) and accepts(spec, -w_inv)
    values = {"rho_one": r1, "w": w, "invariant_candidate_ok": invariant_ok}
    witness = absorbs(spec, space, w)
    if witness is not None:
        return TheoremVerdict(
            "theorem-b", "fail", 1, witness=witness, condition_values=values,
            note="acceptable position ejected by the leveraged payoff",
        )
    return TheoremVerdict(
        "theorem-b", "pass", 1, condition_values=values,
        note="exact subset-sum decision: no acceptable position is ejected",
    )


def check_corollary_convex(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """The paper's corollary for convex criteria, decided by kind.

    The measure is comonotonic iff W' = S1 + S0 / r1 is a risk invariant.
    With r1 = -S0 / F(-S1), F(-W') = 0 and F(W') = F(S1) + F(-S1), a
    positive-weight sum of ES_a(S1) + ES_a(-S1): the upper minus the lower
    a-tail mean of S1 (max minus min at a = 0), zero iff S1 is constant or
    a = 1.  So it passes iff the payoff is constant or the criterion is
    expectation-linear (all mass at level 1); no float sign is read, as a
    positive sum can round to 0.  A pass reports both values as the exact 0,
    a fail the computed F(W') and F(-W').  A constant payoff has W' = 0.
    """
    if not spec.is_convex_kind:
        raise ValueError("the corollary for convex criteria requires a convex criterion")
    r1 = _rho_one(spec, asset)
    ok = asset.risk_free or spec.is_linear_kind
    if asset.risk_free:
        # W' = S1 + S0 / r1 = s - s: identically zero, no rounding allowed in
        w_inv = RandVar.constant(asset.payoff.space, 0.0)
        note = "constant payoff: the leveraged payoff vanishes identically"
    else:
        w_inv = asset.payoff + asset.price / r1
        note = ("expectation-linear criterion: F(S1) + F(-S1) = 0, so W' is a risk invariant"
                if ok else "risky payoff and a pointed criterion: F(S1) + F(-S1) > 0, so W' "
                "is no risk invariant and the measure is not comonotonic")
    values = (0.0, 0.0) if ok else (spec.functional_value(w_inv), spec.functional_value(-w_inv))
    return TheoremVerdict(
        "corollary-convex", "pass" if ok else "fail", 1,
        witness=None if ok else {"w_invariant": w_inv},
        condition_values={"rho_one": r1, "w_invariant": w_inv,
                          "value_plus": values[0], "value_minus": values[1]},
        note=note,
    )


class ByConstruction(NamedTuple):
    """A statement that passes with one sample; ``quantities`` make it a TheoremVerdict."""

    builtin_only: bool  # an explicit criterion is rejected
    note: str
    var_note: str | None = None  # the note for a VaR criterion, where it differs
    quantities: Callable[[AcceptanceSpec, EligibleAsset], dict] | None = None


#: Statement id -> why it holds, read by :func:`decide_by_construction`.
BY_CONSTRUCTION = {
    # VaR accepts X iff the mass of {X < 0} is within var_loss_limit, and Y >= X gives
    # {Y < 0} within {X < 0}, on floats too.  ES, distortion mixtures and the expectation
    # floor are decreasing functionals, so their exact sets are monotone by construction.
    "monotone": ByConstruction(True, "decreasing criterion: monotone by construction",
                               "exact decision: Y >= X loses only atoms that X loses"),
    # VaR: for t >= 0 the rounded t * X is negative only where X is (the sign of a float
    # product is exact, and an underflow gives a zero), so {t * X < 0} lies within
    # {X < 0}.  ES, distortion mixtures and the expectation floor are positively
    # homogeneous, so their exact sets are cones by construction; the float functional
    # need not be conic at a boundary member.
    "cone": ByConstruction(True, "positively homogeneous criterion: a cone by construction",
                           "exact decision: t * X for t >= 0 loses only atoms that X loses"),
    # The two identities hold for every acceptance set, eligible asset and position,
    # explicit criteria too: each note names the substitution in the infimum that proves it.
    "s-additivity": ByConstruction(False, "lemma: X + lambda*S1 + (m/S0)*S1 = X + ((m + "
                                   "lambda*S0)/S0)*S1, so rho(X + lambda*S1) = rho(X) - "
                                   "lambda*S0 for every set, asset and position"),
    "numeraire-identity": ByConstruction(False, "lemma: X + (m/S0)*S1 is in A iff X/S1 + m/S0 "
                                         "is in A^S, so rho_{A,S}(X) = S0*rho_{A^S,1}(X/S1) "
                                         "for every set, asset and position"),
    # The identity rho_S = -r1 * rho_cash is the lemma of check_lemma_equality for the
    # asset R = (-r1, 1): it holds iff the set absorbs D = S1/S0 - R1/R0 = S1/S0 + 1/r1.
    # The theorem's leveraged payoff is W = 1 + (r1/S0) * S1 = r1 * D with r1 < 0, and a
    # built-in set is a cone, so it absorbs W, which is comonotonic additivity, iff it
    # absorbs D: the two halves always agree.  r1 is taken in closed form, so an
    # overflowing r1 is rejected.
    "cash-reduction": ByConstruction(
        True, "by the lemma: W = r1 * D with D = S1/S0 + 1/r1, so the set absorbs W "
        "(comonotonic additivity) iff it absorbs D (the cash reduction identity)",
        quantities=lambda spec, asset: {"rho_one": (r1 := _rho_one(spec, asset)),
                                        "identity_factor": -r1}),
}


def decide_by_construction(
    statement: str, spec: AcceptanceSpec, asset: EligibleAsset
) -> CheckReport | TheoremVerdict:
    """Decide a statement of :data:`BY_CONSTRUCTION`: it passes, and nothing is priced."""
    row = BY_CONSTRUCTION[statement]
    if row.builtin_only and not spec.is_builtin:
        raise ValueError(f"exact {statement} decision requires a built-in criterion")
    note = row.var_note if row.var_note and spec.kind == "var" else row.note
    if row.quantities is None:
        return CheckReport(statement, True, 1, note=note)
    return TheoremVerdict(statement, "pass", 1, condition_values=row.quantities(spec, asset),
                          note=note)


def check_lemma_equality(
    spec: AcceptanceSpec, asset_s: EligibleAsset, asset_r: EligibleAsset
) -> TheoremVerdict:
    """Two assets price every position equally iff the set absorbs their gap direction.

    Side (b) asks :func:`absorbs` for D = S1/S0 - R1/R0; D = 0 exactly holds
    with no call.  Side (a), rho_S = rho_R, holds iff side (b) does, by the
    lemma, so nothing is priced.  When x is accepted and x + t * D rejected
    (t = +1 or -1 from the witness's direction), the lemma's proof carries x
    to Z = x - t * R1/R0, where rho_R(Z) <= t < rho_S(Z): Z is side (a)'s
    witness, and ``samples`` counts it (0 or 1).  The verdict is "pass", as
    the two sides agree.  Explicit criteria are rejected, and an overflow of
    S1/S0 or R1/R0 is a ``ValueError`` naming D.
    """
    if not spec.is_builtin:
        raise ValueError("lemma-equality requires a built-in criterion")
    _check_space(asset_r.payoff, asset_s)
    with np.errstate(over="ignore", invalid="ignore"):
        unit_r = asset_r.payoff.values / asset_r.price
        gap = asset_s.payoff.values / asset_s.price - unit_r
    # D first: an overflowing quotient makes D non-finite too, and D is what is reported
    gap = RandVar._fresh(asset_s.payoff.space, gap, "the gap direction D = S1/S0 - R1/R0")
    unit_r = RandVar._fresh(gap.space, unit_r)
    ejected = None if gap.max_abs == 0.0 else absorbs(spec, gap.space, gap)
    holds = ejected is None
    witness = None
    if not holds:
        t = 1.0 if ejected["direction"] == "+" else -1.0
        witness = {"equality": {"x": ejected["x"] - t * unit_r}, "stability": ejected}
    return TheoremVerdict(
        "lemma-equality", "pass", 0 if holds else 1,
        witness=witness,
        condition_values={"equality_holds": holds, "stability_holds": holds,
                          "gap_direction": gap},
        note="the set absorbs the gap direction, so by the lemma the requirements agree" if holds
        else "an accepted position is ejected along the gap direction, so by the lemma the "
        "carried position is priced apart",
    )


def check_var_necessary_condition(spec: AcceptanceSpec, asset: EligibleAsset) -> TheoremVerdict:
    """Necessary payoff concentration for a comonotonic quantile-based measure.

    The payoff must equal a single constant s* with probability at least
    1 - 2 * alpha, where 1 / s* is the upper alpha-quantile of 1 / S1.  As
    -S1 orders the atoms as 1 / S1 does, s* = var(-S1) is read off S1's own
    levels, with no division that could merge two of them.  The mass of
    {S1 = s*} is at least 1 - 2 * alpha iff den - mass <= floor(2 * alpha * den)
    (2 * alpha is exact); a fail certifies non-comonotonicity.  The reported
    VaR of 1 / S1 is -1 / s*, and its overflow is a ``ValueError``.
    """
    if spec.kind != "var":
        raise ValueError("the concentration condition applies to the quantile criterion")
    alpha = spec.level.alpha
    s_star = var(-asset.payoff, spec.level)
    v = -1.0 / s_star
    if not math.isfinite(v):
        raise ValueError(f"the VaR of 1 / S1, -1 / {s_star!r}, overflows")
    event = np.flatnonzero(asset.payoff.values == s_star)
    nums, den = asset.payoff.space.int_probs
    holds = den - sum(nums[i] for i in event) <= _level_floor(2.0 * alpha, den)
    return TheoremVerdict(
        "var-necessary", "pass" if holds else "fail", 1,
        condition_values={
            "var_of_reciprocal_payoff": v,
            "payoff_constant": s_star,
            "mass_at_constant": asset.payoff.space.event_prob(event),
            "threshold": 1.0 - 2.0 * alpha,
        },
        note="payoff concentration condition holds" if holds
        else "payoff concentration fails: the measure cannot be comonotonic",
    )


def check_var_condition_b(space: FiniteSpace, level: Level) -> TheoremVerdict:
    """Existence of a risky asset making the quantile-based measure comonotonic.

    The condition asks for an event A with 0 < P(A) <= alpha and
    P(A) + inner(A^c) <= alpha, inner(M) = max{P(B) : B in M, P(B) <= alpha}.
    Let j be the least-index atom of least probability.  For every i in A,
    p_i + inner({i}^c) <= P(A) + inner(A^c) (split a B' in {i}^c at A), and
    p_j + inner({j}^c) <= p_i + inner({i}^c) (swap i for j in a B attaining
    inner({j}^c)).  So {j} is the least-probability, then least-bitmask,
    event meeting the condition if any does, and it attains the least total.
    It is decided exactly over the subset sums of the other atoms'
    :attr:`FiniteSpace.int_probs`, against :func:`var_loss_limit`, the one
    VaR set.  ``samples`` counts the events with 0 < P(A) <= alpha.  On
    success the witness asset (price 1, payoff 2 on j, 1 elsewhere) passes
    the exact theorem-b decision, as the paper's theorem says; that run
    re-verifies it, and a failure raises ``ArithmeticError``.
    """
    alpha = level.alpha
    spec = AcceptanceSpec.var_level(alpha)
    weights, scale = space.int_probs
    limit = var_loss_limit(spec, space)  # P(B) <= alpha  iff  sums[B] <= limit
    p = min(weights)
    j = weights.index(p)
    sums = _subset_sums(weights[:j] + weights[j + 1:], limit)
    within = sums[sums <= limit]
    inner = int(within.max())
    # candidate events without j (nonempty), then with j
    candidates = within.size - 1 + int(np.count_nonzero(sums <= limit - p))

    if p + inner > limit:
        detail = (
            "no event carries probability within (0, alpha] at all"
            if candidates == 0
            else "every candidate event is spoiled by a subset of its complement"
        )
        return TheoremVerdict(
            "var-condition-b", "fail", candidates,
            condition_values={
                "alpha": alpha,
                "candidate_events": candidates,
                "best_total": (p + inner) / scale if candidates else None,
            },
            note=f"exhaustive enumeration: {detail}; "
            "only constant payoffs give a comonotonic measure on this space",
        )

    asset = EligibleAsset(1.0, RandVar.constant(space, 1.0) + RandVar.indicator(space, [j]))
    if not check_theorem_condition_b(spec, asset).passed:
        raise ArithmeticError("var-condition-b's witness asset failed re-verification by theorem-b")
    return TheoremVerdict(
        "var-condition-b", "pass", candidates,
        condition_values={
            "alpha": alpha,
            "event": [j],
            "event_prob": p / scale,
            "inner_max": inner / scale,
            "witness_payoff": asset.payoff,
        },
        note="condition holds; constructed risky asset passes the exact theorem-b check",
    )


#: Most values that each array of one block of the additivity sweep holds:
#: pairs per block times atoms, 512 KB of floats.  A larger book is swept
#: block by block, so it never holds all its pair sums at once.  Books of
#: 11325 pairs on 40 atoms and 1830 pairs on 2000 atoms swept fastest at
#: 2**14 to 2**16 values; at 2**12, 2**18 and 2**20 one or both took 8-36 %
#: longer (2 shared vCPUs, Python 3.11, numpy 2.4).
_SWEEP_BLOCK_VALUES = 1 << 16


def find_additivity_violation(
    spec: AcceptanceSpec,
    asset: EligibleAsset,
    book: Sequence[RandVar] = (),
) -> TheoremVerdict:
    """Decide comonotonic additivity of the requirement on constructed pairs.

    The comonotone pairs below are evaluated in order; the first whose gap
    rho(X + Y) - rho(X) - rho(Y) exceeds the threshold is the witness:

    * the pairs (book[i], book[j]) for i <= j, in row-major order;
    * (1, -1), whose gap S0 * (F(S1) + F(-S1)) / (F(S1) * F(-S1)) vanishes iff
      F(S1) + F(-S1) = 0, i.e. iff W' = S1 + S0 / r1 is a risk invariant: for
      a convex criterion this pair decides (:func:`check_corollary_convex`);
    * for VaR, when :func:`check_theorem_condition_b` ejects an accepted x
      by adding v = W or -W: (x, 1) or (x, -1), whose gap is
      rho(x + v) - rho(x) once (1, -1) is additive.

    Pairs that are not comonotone are skipped and not counted in
    ``samples``; the first comonotone pair whose sum leaves the float range
    is a ``ValueError``.  The book is swept in blocks (:func:`_sweep`): the
    comonotone tests and the sums of a block's pairs are taken at once, and
    then its pairs are priced in order, so the verdict and the quotes made
    are those of a loop over the pairs.  Every book position must live on
    the payoff's space (``SpaceMismatchError``).

    The verdict is "fail" with the first such pair, "pass" when none exceeds
    the threshold; VaR inherits the :data:`SUBSET_SUM_MAX_ATOMS` cap of
    theorem-b.  r1 is taken first, so explicit criteria are rejected up front.
    Each distinct position is priced once, at solver tolerance 1e-12, far
    below the threshold.
    """
    _rho_one(spec, asset)
    rho_fn = _requirement(spec, asset, 1e-12)
    for x in book:
        _check_space(x, asset)
    one = RandVar.constant(asset.payoff.space, 1.0)
    samples, found = _sweep(rho_fn, [*book, one, -one], len(book), 0)
    if found is None and spec.kind == "var":
        stability = check_theorem_condition_b(spec, asset)
        if not stability.passed:
            v = one if stability.witness["direction"] == "+" else -one
            samples, found = _sweep(rho_fn, [stability.witness["x"], v], 0, samples)
    if found is not None:
        x, y, gap = found
        return TheoremVerdict(
            "additivity-violation", "fail", samples,
            witness={"x": x, "y": y, "gap": gap},
            condition_values={"threshold": ADDITIVITY_THRESHOLD,
                              "direction": "superadditive" if gap > 0 else "subadditive"},
            note="verified comonotone pair with non-additive requirement",
        )
    return TheoremVerdict(
        "additivity-violation", "pass", samples,
        condition_values={"threshold": ADDITIVITY_THRESHOLD},
        note="no constructed comonotone pair exceeds the threshold",
    )


def _sweep(
    rho_fn: Callable[[RandVar], float], positions: list[RandVar], b: int, samples: int
) -> tuple[int, tuple[RandVar, RandVar, float] | None]:
    """``(samples, (x, y, gap) or None)`` over the pairs of ``positions``.

    The pairs are (positions[i], positions[j]) for i <= j < b in row-major
    order, then the probe (positions[b], positions[b + 1]), whose second
    side is constant.  Each comonotone pair (:func:`_comonotone_pairs`) is
    counted, and X + Y, X, then Y are priced through ``rho_fn`` on first
    use.  A sum is checked finite when it is first met, so every pair with
    an overflowing sum reaches that check.  The walk stops at the first gap
    above :data:`ADDITIVITY_THRESHOLD`.
    """
    space = positions[0].space
    quoted: list[float | None] = [None] * len(positions)
    sum_quotes: dict[bytes, float] = {}
    # the quotes guard their own shifts; only a pair sum can overflow here
    with np.errstate(over="ignore"):
        for i, j, total in _comonotone_pairs(positions, b):
            samples += 1
            key = total.tobytes()
            if key not in sum_quotes:
                x_plus_y = RandVar._fresh(space, total.copy(), "the comonotone sum X + Y")
                sum_quotes[key] = rho_fn(x_plus_y)
            if quoted[i] is None:
                quoted[i] = rho_fn(positions[i])
            if quoted[j] is None:
                quoted[j] = rho_fn(positions[j])
            gap = sum_quotes[key] - quoted[i] - quoted[j]
            if abs(gap) > ADDITIVITY_THRESHOLD:
                return samples, (positions[i], positions[j], gap)
    return samples, None


def _comonotone_pairs(
    positions: list[RandVar], b: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(i, j, X + Y)`` for the comonotone pairs of :func:`_sweep`, in order.

    A book of two positions or more is taken in blocks of its pairs: their
    sums at once, and their comonotone tests in one :func:`_sorted_rows`
    call.  Sorting the pairs (x, x) with the rest costs less than picking
    them out.  The probe and the one pair of a one-position book, (x, x),
    are comonotone by definition: they build no block and are summed one at
    a time.
    """
    if b > 1:
        values = np.stack([x.values for x in positions[:b]])
        for rows, cols in _pair_blocks(b, max(1, _SWEEP_BLOCK_VALUES // values.shape[1])):
            xs, ys = values[rows], values[cols]
            sums, flags = xs + ys, _sorted_rows(xs, ys).tolist()
            for i, j, flag, total in zip(rows.tolist(), cols.tolist(), flags, sums):
                if flag:
                    yield i, j, total
    for i, j in [(0, 0), (1, 2)] if b == 1 else [(b, b + 1)]:
        yield i, j, positions[i].values + positions[j].values


def _pair_blocks(b: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays (i, j) of the pairs i <= j < b in row-major order, ``size`` pairs a block.

    The pairs are numbered in that order: row i starts at pair
    i * b - i * (i - 1) / 2.
    """
    rows = np.arange(b)
    starts = rows * b - rows * (rows - 1) // 2
    count = b * (b + 1) // 2
    for k0 in range(0, count, size):
        k = np.arange(k0, min(k0 + size, count))
        i = np.searchsorted(starts, k, side="right") - 1
        yield i, k - starts[i] + i


# ---------------------------------------------------------------------------
# Replication of the worked reference examples
# ---------------------------------------------------------------------------

#: Frozen expected values of the quantities that the worked examples compare.
#: ``run_replication_suite`` recomputes each one and compares it against
#: these, read at call time, so patching an entry (``monkeypatch.setitem``)
#: is how a test runs a tampering negative control.  The examples' inputs
#: are fixed in their runners.
REFERENCE_VALUES: dict[str, dict[str, Any]] = {
    "svar-superadditivity": {
        "rho_x": 1.5,
        "rho_y": 4.0,
        "rho_sum": 6.0,
        "pairs_comonotone": True,
    },
    "svar-near-risk-free": {
        "rho_one": -1.0,
        "necessary_condition": "pass",
        "theorem_b": "fail",
        "witness_x": [-1.0, 0.0, 0.0],
        "witness_shifted": [-1.0, -1.0, 0.0],
    },
    "accept-var-indicators": {
        "single_event_accepted": True,
        "double_event_accepted": False,
    },
    "es-pointedness": {
        "risky_verdict": "fail",
        "risk_free_verdict": "pass",
        "certificate_strictly_positive": True,
    },
    "distortion-expectation": {
        "verdict": "pass",
        "value_example": -1.1,
    },
}


def _verdict(statement: str, mismatches: list[str], values: dict) -> TheoremVerdict:
    ok = not mismatches
    return TheoremVerdict(
        statement, "pass" if ok else "fail", 1, condition_values=values,
        note="all reference values reproduced" if ok else "; ".join(mismatches),
    )


def _matches(want, got) -> bool:
    return abs(got - want) <= 1e-12 if isinstance(got, float) else got == want


def _mismatches(expected: dict, got: dict) -> list[str]:
    """One message per computed value that misses its expected value.

    Floats match within 1e-12, every other value by equality.
    """
    return [
        f"{k}: expected {expected[k]!r}, computed {v!r}"
        for k, v in got.items()
        if not _matches(expected[k], v)
    ]


def _replicate_superadditivity(exp: dict) -> TheoremVerdict:
    space = FiniteSpace([0.05, 0.05, 0.9])
    spec = AcceptanceSpec.var_level(0.05)
    asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
    x = RandVar(space, [-2.0, -3.0, 2.0])
    y = RandVar(space, [-4.0, -9.0, 0.0])
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
    space = FiniteSpace([0.1, 0.1, 0.8])
    spec = AcceptanceSpec.var_level(0.1)
    asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
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
    space = FiniteSpace([0.1, 0.1, 0.8])
    spec = AcceptanceSpec.var_level(0.1)
    single = -1.0 * RandVar.indicator(space, [0])
    double = -1.0 * RandVar.indicator(space, [0, 1])
    got = {
        "single_event_accepted": accepts(spec, single),
        "double_event_accepted": accepts(spec, double),
    }
    return _verdict("replicate-accept-indicators", _mismatches(exp, got), got)


def _replicate_es_pointedness(exp: dict) -> TheoremVerdict:
    space = FiniteSpace([0.5, 0.5])
    spec = AcceptanceSpec.es_level(0.1)
    risky = EligibleAsset(1.0, RandVar(space, [1.0, 2.0]))
    risk_free = EligibleAsset(1.0, RandVar(space, [2.0, 2.0]))
    got = {
        "risky_verdict": check_corollary_convex(spec, risky).verdict,
        "risk_free_verdict": check_corollary_convex(spec, risk_free).verdict,
    }
    # on two atoms F(X) + F(-X) = |a - b| * (F(1_0) + F(-1_0)): the one-atom
    # steps attain the least gap over the nonconstant 1/64-grid positions
    steps = [RandVar.indicator(space, [i]) / 64 for i in range(space.n_atoms)]
    min_gap = min(spec.functional_value(x) + spec.functional_value(-x) for x in steps)
    got["certificate_strictly_positive"] = min_gap > 0.0
    mismatches = _mismatches(exp, got)
    got["certificate_min_gap"] = min_gap
    return _verdict("replicate-es-pointedness", mismatches, got)


def _replicate_distortion_expectation(exp: dict) -> TheoremVerdict:
    space = FiniteSpace([0.1, 0.1, 0.8])
    spec = AcceptanceSpec.expectation_floor()  # the mixture ((1, 1))
    risky = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))
    got = {
        "verdict": check_corollary_convex(spec, risky).verdict,
        "value_example": spec.functional_value(RandVar(space, [-2.0, -3.0, 2.0])),
    }
    return _verdict("replicate-distortion-expectation", _mismatches(exp, got), got)


def run_replication_suite() -> list[TheoremVerdict]:
    """Recompute every worked reference example and compare to the frozen values.

    Deterministic: two runs produce identical verdict lists.  The expected
    values are :data:`REFERENCE_VALUES` as it stands at the call; a mismatch
    yields a failing verdict naming the fixture and the offending quantity.
    """
    return [
        _replicate_superadditivity(REFERENCE_VALUES["svar-superadditivity"]),
        _replicate_near_risk_free(REFERENCE_VALUES["svar-near-risk-free"]),
        _replicate_indicators(REFERENCE_VALUES["accept-var-indicators"]),
        _replicate_es_pointedness(REFERENCE_VALUES["es-pointedness"]),
        _replicate_distortion_expectation(REFERENCE_VALUES["distortion-expectation"]),
    ]
