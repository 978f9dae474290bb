"""Tests for the statement checkers and the reference-example replication suite."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    accepts,
    check_corollary_convex,
    check_lemma_equality,
    check_cash_reduction_identity,
    check_theorem_condition_b,
    check_var_condition_b,
    check_var_necessary_condition,
    expectation,
    find_additivity_violation,
    is_comonotone,
    rho,
    rho_cash,
    run_replication_suite,
)
from eligirisk import engine
from eligirisk.theorems import ADDITIVITY_THRESHOLD, _rho_one, _subset_sums, absorbs

from identity_audits import cash_reduction_audit, lemma_equality_audit
from sampling import additivity_on_comonotone, generate_comonotone_pair


def condition_b_oracle(probs: list[float], alpha: float) -> dict[int, tuple[Fraction, Fraction]]:
    """Every candidate event A of the VaR condition, by brute force in exact rationals.

    Maps the bitmask of each A with 0 < P(A) <= alpha to (P(A), inner), where
    inner is the largest P(B) <= alpha over the subsets B of its complement.
    """
    a = Fraction(alpha)
    sums = [Fraction(0)]
    for p in probs:
        sums += [s + Fraction(p) for s in sums]
    out = {}
    for m in range(1, len(sums)):
        if sums[m] <= a:
            rest = b = (len(sums) - 1) ^ m
            inner = Fraction(0)
            while b:  # every nonempty subset of the complement
                if inner < sums[b] <= a:
                    inner = sums[b]
                b = (b - 1) & rest
            out[m] = (sums[m], inner)
    return out


def condition_b_events(probs: list[float], alpha: float) -> list[int]:
    """Bitmasks of the events A meeting the VaR condition: P(A) + inner <= alpha."""
    oracle = condition_b_oracle(probs, alpha)
    return [m for m, (prob, inner) in oracle.items() if prob + inner <= Fraction(alpha)]


def builtin_spec(kind: str, alpha: float) -> AcceptanceSpec:
    """VaR, ES, an ES/mean mixture or the mean, at level ``alpha`` where it applies."""
    if kind == "var":
        return AcceptanceSpec.var_level(alpha)
    if kind == "es":
        return AcceptanceSpec.es_level(alpha)
    if kind == "mix":
        return AcceptanceSpec.distortion_mix(DistortionWeights(((alpha, 0.5), (1.0, 0.5))))
    return AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),)))


#: ES at levels near 0 and 1, mixtures with levels 0 and 1, and two linear criteria.
CONVEX_SPECS = [
    AcceptanceSpec.es_level(1e-9),
    AcceptanceSpec.es_level(0.3),
    AcceptanceSpec.es_level(1.0 - 1e-9),
    AcceptanceSpec.distortion_mix(DistortionWeights(((0.0, 0.25), (1.0, 0.75)))),
    AcceptanceSpec.distortion_mix(DistortionWeights(((0.5, 0.5), (1.0, 0.5)))),
    AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0), (0.5, 1e-17)))),
    AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),))),
    AcceptanceSpec.expectation_floor(),
]


def exact_criterion(spec: AcceptanceSpec, x: RandVar) -> Fraction:
    """A convex built-in F(X) in exact rationals over ``int_probs``, normalized by their total.

    F is the weighted sum of ES_a(X), minus the mean of the lowest a of the
    probability; ES_0 is -min X, and the expectation floor is ES_1.
    """
    nums, _ = x.space.int_probs
    total = sum(nums)
    law = sorted((Fraction(v), Fraction(m, total)) for v, m in zip(x.tolist(), nums))

    def shortfall(a: Fraction) -> Fraction:
        if a == 0:
            return -law[0][0]
        acc = cum = Fraction(0)
        for v, p in law:
            take = min(p, a - cum)
            if take <= 0:
                break
            acc, cum = acc + take * v, cum + take
        return -acc / a

    return sum((Fraction(w) * shortfall(Fraction(a)) for a, w in spec.weights.points), Fraction(0))


def leveraged_payoff(spec: AcceptanceSpec, asset: EligibleAsset) -> RandVar:
    """W = 1 + (r1 / S0) * S1, formed at S0 = 1; exactly 0 for a constant payoff."""
    one = RandVar.constant(asset.payoff.space, 1.0)
    if asset.risk_free:
        return 0.0 * one  # 1 - s / s, exactly
    return one + _rho_one(spec, EligibleAsset(1.0, asset.payoff)) * asset.payoff


def ejects_accepted_position(spec: AcceptanceSpec, v: RandVar) -> bool:
    """Whether v ejects some accepted -c * 1_E, by brute force over E.

    With c beyond the size of v, every event is tried through :func:`accepts`
    in both directions.  E = {} gives X = 0, which a convex cone ejects iff
    it rejects v or -v.
    """
    space = v.space
    n = space.n_atoms
    c = 1.0 + 2.0 * v.max_abs
    for mask in range(2**n):
        x = -c * RandVar.indicator(space, [i for i in range(n) if mask >> i & 1])
        if accepts(spec, x) and not (accepts(spec, x + v) and accepts(spec, x - v)):
            return True
    return False


@pytest.fixture
def near_rf_space():
    return FiniteSpace([0.1, 0.1, 0.8])


@pytest.fixture
def near_rf_asset(near_rf_space):
    return EligibleAsset(1.0, RandVar(near_rf_space, [1.0, 2.0, 1.0]))


@pytest.fixture
def a_var01():
    return AcceptanceSpec.var_level(0.1)


@pytest.fixture
def two_atom_space():
    return FiniteSpace([0.1, 0.9])


@pytest.fixture
def constructed_asset(two_atom_space):
    # payoff 2 on the small atom, 1 elsewhere: the construction that makes
    # the quantile-based requirement comonotonic on this space
    return EligibleAsset(1.0, RandVar(two_atom_space, [2.0, 1.0]))


class TestTheoremConditionB:
    def test_near_risk_free_asset_fails_with_indicator_witness(self, a_var01, near_rf_asset):
        verdict = check_theorem_condition_b(a_var01, near_rf_asset)
        assert verdict.verdict == "fail"
        assert verdict.condition_values["rho_one"] == -1.0
        x = verdict.witness["x"]
        shifted = verdict.witness["shifted"]
        assert x.tolist() == [-1.0, 0.0, 0.0]
        assert shifted.tolist() == [-1.0, -1.0, 0.0]
        assert accepts(a_var01, x) and not accepts(a_var01, shifted)

    def test_constructed_two_atom_asset_passes(self, constructed_asset, two_atom_space):
        spec = AcceptanceSpec.var_level(0.1)
        verdict = check_theorem_condition_b(spec, constructed_asset)
        assert verdict.verdict == "pass"
        assert verdict.samples == 1
        assert verdict.condition_values["invariant_candidate_ok"]

    def test_convex_kind_delegates_to_exact_test(self, near_rf_space):
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar(near_rf_space, [1.0, 2.0, 1.0]))
        verdict = check_theorem_condition_b(spec, asset)
        assert verdict.statement == "theorem-b"
        assert verdict.verdict == "fail"
        assert verdict.note.startswith("convex criterion: decided by kind")

    def test_rejects_explicit_kind(self, near_rf_asset):
        broken = AcceptanceSpec.explicit(lambda x: -expectation(x))
        with pytest.raises(ValueError):
            check_theorem_condition_b(broken, near_rf_asset)

    def test_failure_implies_violation_findable(self, a_var01, near_rf_asset):
        # stability failure certifies non-additivity, so the searcher must
        # realize a concrete violating pair on the same fixture
        assert check_theorem_condition_b(a_var01, near_rf_asset).verdict == "fail"
        found = find_additivity_violation(a_var01, near_rf_asset)
        assert found.verdict == "fail"
        assert is_comonotone(found.witness["x"], found.witness["y"])
        assert abs(found.witness["gap"]) > 1e-7

    @staticmethod
    def assert_witness_reverifies(spec, verdict):
        x, shifted = verdict.witness["x"], verdict.witness["shifted"]
        w = verdict.condition_values["w"]
        moved = x + w if verdict.witness["direction"] == "+" else x - w
        assert shifted.tolist() == moved.tolist()
        assert accepts(spec, x) and not accepts(spec, shifted)

    def test_w_vanishes_exactly_where_the_payoff_is_its_quantile(self):
        # the paper's W is 1 - S1 / 2.125 = [0, 1/17]: subtracting it adds at
        # most atom 1 (mass 1/7 <= alpha) to a loss event, so nothing is
        # ejected.  A W of 2**-53 on atom 0, from rounding r1 / S0 at S0 = 1.5,
        # ejects a position there
        space = FiniteSpace([6 / 7, 1 / 7])
        asset = EligibleAsset(1.5, RandVar(space, [2.125, 2.0]))
        verdict = check_theorem_condition_b(AcceptanceSpec.var_level(0.3), asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["rho_one"] == -1.5 / 2.125
        assert verdict.condition_values["w"].tolist()[0] == 0.0

    def test_sixteen_atom_near_pass_fails(self):
        # a sampled search with 200 trials missed every ejected position here
        weights = np.array([21, 20, 26, 9, 54, 4, 62, 11, 23, 28, 53, 16, 6, 43, 8, 57], float)
        space = FiniteSpace(weights / weights.sum())
        payoff = np.ones(16)
        payoff[5] = 2.0
        spec = AcceptanceSpec.var_level(0.3)
        asset = EligibleAsset(1.0, RandVar(space, payoff))
        verdict = check_theorem_condition_b(spec, asset)
        assert (verdict.verdict, verdict.samples) == ("fail", 1)
        self.assert_witness_reverifies(spec, verdict)

    def test_whole_space_is_rejected_at_alpha_below_one(self):
        # the first draw whose stored probabilities sum, correctly rounded, to
        # 1 - 2**-53: at that alpha every proper event passes accepts, but the
        # whole space is rejected, so W ejects -1 on the payoff's low atoms
        rng = np.random.default_rng(2)
        alpha = math.nextafter(1.0, 0.0)
        for _ in range(5):
            w = rng.random(int(rng.integers(20, 300))) ** 4
            space = FiniteSpace((w / w.sum()).tolist())
            nums, den = space.int_probs
            if sum(nums) / den == alpha:
                break
        assert sum(nums) / den == alpha
        payoff = np.full(space.n_atoms, 2.0)
        payoff[:10] = 1.0
        spec = AcceptanceSpec.var_level(alpha)
        asset = EligibleAsset(1.0, RandVar(space, payoff))
        verdict = check_theorem_condition_b(spec, asset)
        assert verdict.verdict == "fail"
        assert verdict.witness["direction"] == "+"
        assert verdict.witness["x"].tolist() == [-1.0] * 10 + [0.0] * (space.n_atoms - 10)
        self.assert_witness_reverifies(spec, verdict)

    def test_rejects_more_than_twenty_atoms_outside_the_loss_event(self):
        space = FiniteSpace([1.0 / 22] * 22)
        asset = EligibleAsset(1.0, RandVar(space, [2.0] + [1.0] * 21))
        with pytest.raises(ValueError, match="cap 20"):
            check_theorem_condition_b(AcceptanceSpec.var_level(0.1), asset)

    def test_rejected_loss_event_needs_no_enumeration(self):
        # -W is negative on the three payoff-1 atoms, which alone exceed alpha,
        # so X = 0 is ejected without enumerating the 22 atoms outside them
        space = FiniteSpace([1.0 / 25] * 25)
        asset = EligibleAsset(1.0, RandVar(space, [1.0] * 3 + [2.0] * 22))
        spec = AcceptanceSpec.var_level(0.1)
        verdict = check_theorem_condition_b(spec, asset)
        assert verdict.verdict == "fail"
        assert (verdict.witness["direction"], verdict.witness["x"].max_abs) == ("-", 0.0)
        self.assert_witness_reverifies(spec, verdict)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(0.01, 1.0), st.integers(1, 4).map(float)), min_size=2, max_size=7
        ),
        picks=st.sets(st.integers(0, 6), min_size=1, max_size=4),
        nudge=st.sampled_from([-1.0, 0.0, 1.0]),
        payoff=st.lists(st.integers(1, 8), min_size=7, max_size=7),
        price=st.integers(1, 3),
    )
    # alpha sits where the limit of accepts and var-condition-b's exact floor
    # part: with the floor in place of the limit the check raises
    @example(
        weights=[4.0, 0.6729584199305572, 1.0], picks={1, 2}, nudge=0.0,
        payoff=[3, 8, 4, 8, 5, 4, 3], price=3,
    )
    def test_matches_brute_force_oracle(self, weights, picks, nudge, payoff, price):
        total = sum(weights)
        space = FiniteSpace([w / total for w in weights])
        n = space.n_atoms
        probs = space.probs.tolist()
        # alpha is an event's float probability, or one ulp either side of it
        alpha = float(sum((Fraction(p) for i, p in enumerate(probs) if i in picks), Fraction(0)))
        alpha = math.nextafter(alpha, alpha + nudge) if nudge else alpha
        if not 0.0 < alpha < 1.0:
            return
        spec = AcceptanceSpec.var_level(alpha)
        asset = EligibleAsset(float(price), RandVar(space, [float(v) for v in payoff[:n]]))
        ejected = ejects_accepted_position(spec, leveraged_payoff(spec, asset))
        verdict = check_theorem_condition_b(spec, asset)
        assert verdict.verdict == ("fail" if ejected else "pass")
        # W = 1 - S1 / F(-S1) does not depend on the price
        unit = check_theorem_condition_b(spec, EligibleAsset(1.0, asset.payoff))
        assert verdict.condition_values["w"].tolist() == unit.condition_values["w"].tolist()
        if ejected:
            self.assert_witness_reverifies(spec, verdict)


    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        level=st.one_of(st.integers(1, 256).map(lambda k: k / 32), st.floats(0.01, 100.0)),
        alpha=st.floats(0.01, 0.99),
        price=st.sampled_from([0.5, 1.0, 2.0]),
    )
    # fl(fl(1 / s) * s) != 1 at s = 1.53125: a W formed in floats was 2**-53
    # on every atom and ejected X = 0
    @example(weights=[26.0, 1.0, 21.0, 6.0, 22.0, 17.0, 3.0], level=1.53125, alpha=0.3, price=1.0)
    def test_constant_payoff_passes_with_exact_zero_w(self, weights, level, alpha, price):
        total = sum(weights)
        space = FiniteSpace([w / total for w in weights])
        asset = EligibleAsset(price, RandVar.constant(space, level))
        verdict = check_theorem_condition_b(AcceptanceSpec.var_level(alpha), asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["invariant_candidate_ok"]
        w = verdict.condition_values["w"].values
        assert not np.any(w) and not np.any(np.signbit(w))


class TestCorollaryConvex:
    def test_es_risky_fails(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        verdict = check_corollary_convex(spec, asset)
        assert verdict.verdict == "fail"
        w = verdict.condition_values["w_invariant"]
        assert max(
            verdict.condition_values["value_plus"], verdict.condition_values["value_minus"]
        ) > 0.0
        assert w.max_abs > 0.0

    def test_es_risk_free_passes_with_vanishing_invariant(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar.constant(sp, 2.0))
        verdict = check_corollary_convex(spec, asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["w_invariant"].max_abs == 0.0
        assert verdict.condition_values["rho_one"] == pytest.approx(-0.5, abs=1e-12)

    def test_pure_expectation_distortion_risky_passes(self, near_rf_space):
        spec = AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),)))
        asset = EligibleAsset(1.0, RandVar(near_rf_space, [1.0, 2.0, 1.0]))
        verdict = check_corollary_convex(spec, asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["value_plus"] == 0.0

    def test_rejects_var_kind(self, near_rf_asset, a_var01):
        with pytest.raises(ValueError):
            check_corollary_convex(a_var01, near_rf_asset)

    @pytest.mark.parametrize(
        "top, alpha",
        [(1.9991761150650716e-271, 0.9), (float.fromhex("0x1.70aa6cd576c5ap+24"), 0.1),
         (float.fromhex("0x1.6fa5bb537e745p+19"), 0.9)],
    )
    def test_payoff_one_ulp_from_constant_fails(self, top, alpha):
        # the payoff is risky, so the paper says "fail", and so does the rule
        # by kind.  The float sign of F(S1) + F(-S1) is not positive on these
        # payoffs, so a verdict read off it would pass them
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(alpha)
        payoff = RandVar(sp, [top, math.nextafter(top, 0.0)])
        assert spec.functional_value(payoff) + spec.functional_value(-payoff) <= 0.0
        verdict = check_corollary_convex(spec, EligibleAsset(1.0, payoff))
        assert verdict.verdict == "fail"

    def test_mixture_with_a_tiny_shortfall_weight_fails(self, near_rf_space):
        # the 1e-17 weight off level 1 makes the criterion pointed; the float
        # F(S1) + F(-S1) rounds to 0.0, but the exact sum is positive
        spec = AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0), (0.5, 1e-17))))
        payoff = RandVar(near_rf_space, [1.0, 2.0, 1.0])
        assert spec.functional_value(payoff) + spec.functional_value(-payoff) == 0.0
        assert exact_criterion(spec, payoff) + exact_criterion(spec, -payoff) > 0
        verdict = check_corollary_convex(spec, EligibleAsset(1.0, payoff))
        assert verdict.verdict == "fail"
        assert verdict.witness["w_invariant"] is verdict.condition_values["w_invariant"]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=1, max_size=8),
        grid=st.lists(st.integers(8, 80), min_size=8, max_size=8),
        shape=st.sampled_from(["grid", "constant", "one-ulp"]),
        which=st.integers(0, len(CONVEX_SPECS) - 1),
        price=st.sampled_from([0.3, 1.0, 2.5]),
    )
    def test_decided_by_kind_against_the_exact_sign(self, weights, grid, shape, which, price):
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        top = grid[0] / 16
        values = {
            "grid": [k / 16 for k in grid[:n]],
            "constant": [top] * n,
            "one-ulp": [top] * (n - 1) + [math.nextafter(top, 0.0)],
        }[shape]
        payoff = RandVar(space, values)
        spec, asset = CONVEX_SPECS[which], EligibleAsset(price, payoff)
        verdict = check_corollary_convex(spec, asset)
        decided = asset.risk_free or spec.is_linear_kind
        assert verdict.passed == decided
        exact_sum = exact_criterion(spec, payoff) + exact_criterion(spec, -payoff)
        assert exact_sum >= 0
        assert verdict.passed == (exact_sum == 0)
        theorem_b = check_theorem_condition_b(spec, asset).to_jsonable()
        assert {**theorem_b, "statement": None, "note": None} == {
            **verdict.to_jsonable(), "statement": None, "note": None}
        values = verdict.condition_values
        r1 = _rho_one(spec, asset)
        assert values["rho_one"] == r1
        w = values["w_invariant"]
        if asset.risk_free:
            assert not np.any(w.values) and not np.any(np.signbit(w.values))
        else:
            assert w.tolist() == (payoff + price / r1).tolist()
        if verdict.passed:
            assert (values["value_plus"], values["value_minus"], verdict.witness) == (0.0, 0.0, None)
        else:
            assert values["value_plus"] == spec.functional_value(w)
            assert values["value_minus"] == spec.functional_value(-w)

    def test_matches_sampled_additivity_on_random_assets(self):
        # the exact single test and the sampled additivity verdict must agree
        rng = np.random.default_rng(5)
        for k in range(8):
            n = int(rng.integers(2, 6))
            w = rng.integers(1, 16, n).astype(float)
            sp = FiniteSpace(w / w.sum())
            spec = AcceptanceSpec.es_level(float(rng.uniform(0.1, 0.6)))
            if k % 2 == 0:
                payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
                while payoff.is_constant:
                    payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
            else:
                payoff = RandVar.constant(sp, float(rng.integers(1, 5)))
            asset = EligibleAsset(1.0, payoff)
            exact = check_corollary_convex(spec, asset).passed
            rho_fn = lambda v: rho(spec, asset, v, tol=1e-11).value
            sampled = additivity_on_comonotone(rho_fn, sp, trials=1000, seed=9, tol=1e-9).passed
            assert exact == sampled


class TestAbsorbs:
    @staticmethod
    def assert_witness_reverifies(spec, v, witness):
        x, shifted = witness["x"], witness["shifted"]
        moved = x + v if witness["direction"] == "+" else x - v
        assert shifted.tolist() == moved.tolist()
        assert accepts(spec, x) and not accepts(spec, shifted)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=1, max_size=7),
        values=st.lists(st.integers(-8, 8), min_size=7, max_size=7),
        shape=st.sampled_from(["any", "zero", "constant"]),
        scale=st.sampled_from([1.0, 1 / 32, 3.0]),
        kind=st.sampled_from(["var", "es", "mix", "mean"]),
        alpha=st.floats(0.05, 0.6),
    )
    def test_matches_brute_force_oracle(self, weights, values, shape, scale, kind, alpha):
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        raw = {"any": values[:n], "zero": [0] * n, "constant": [values[0]] * n}[shape]
        v = RandVar(space, np.array(raw, dtype=float) * scale)
        spec = builtin_spec(kind, alpha)
        witness = absorbs(spec, space, v)
        assert (witness is not None) == ejects_accepted_position(spec, v)
        if witness is not None:
            self.assert_witness_reverifies(spec, v, witness)

    def test_convex_kind_ejects_zero(self, near_rf_space):
        # ES rejects the nonzero, nonpositive v, so adding v ejects x = 0
        spec = AcceptanceSpec.es_level(0.1)
        v = RandVar(near_rf_space, [-1.0, 0.0, 0.0])
        witness = absorbs(spec, near_rf_space, v)
        assert (witness["direction"], witness["x"].tolist()) == ("+", [0.0, 0.0, 0.0])
        self.assert_witness_reverifies(spec, v, witness)
        assert absorbs(spec, near_rf_space, 0.0 * v) is None

    def test_theorem_b_asks_it_for_the_leveraged_payoff(self, a_var01, near_rf_asset):
        verdict = check_theorem_condition_b(a_var01, near_rf_asset)
        w = leveraged_payoff(a_var01, near_rf_asset)
        witness = absorbs(a_var01, near_rf_asset.payoff.space, w)
        assert {k: v.tolist() if isinstance(v, RandVar) else v for k, v in witness.items()} == {
            k: v.tolist() if isinstance(v, RandVar) else v for k, v in verdict.witness.items()
        }

    def test_var_keeps_the_enumeration_cap(self):
        space = FiniteSpace([1.0 / 22] * 22)
        v = RandVar(space, [-1.0] + [0.0] * 21)
        with pytest.raises(ValueError, match="enumeration cap 20"):
            absorbs(AcceptanceSpec.var_level(0.1), space, v)

    def test_explicit_criterion_is_rejected(self, near_rf_asset):
        spec = AcceptanceSpec.explicit(lambda x: -expectation(x))
        with pytest.raises(ValueError, match="built-in"):
            absorbs(spec, near_rf_asset.payoff.space, near_rf_asset.payoff)


class TestPropCashReduction:
    def test_risk_free_identity_with_half_factor(self, near_rf_space, a_var01):
        asset = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = cash_reduction_audit(a_var01, asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["additivity_passed"]
        assert verdict.condition_values["identity_factor"] == pytest.approx(0.5, abs=1e-12)
        assert verdict.samples == 0

    def test_constructed_asset_identity_holds(self, constructed_asset):
        spec = AcceptanceSpec.var_level(0.1)
        verdict = cash_reduction_audit(spec, constructed_asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["additivity_passed"]

    def test_near_rf_asset_fails_consistently(self, a_var01, near_rf_asset):
        verdict = cash_reduction_audit(a_var01, near_rf_asset)
        assert verdict.verdict == "pass"
        assert not verdict.condition_values["additivity_passed"]
        w = verdict.witness
        assert w is not None
        assert abs(w["lhs"] - w["rhs"]) > 1e-9
        assert verdict.samples == 3

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=2, max_size=7),
        payoff=st.lists(st.integers(16, 128), min_size=7, max_size=7),
        constant=st.booleans(),
        kind=st.sampled_from(["var", "es", "mix", "mean"]),
        alpha=st.floats(0.05, 0.6),
        price=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_consistent_on_every_builtin_case(self, weights, payoff, constant, kind, alpha, price):
        # the paper proves the two halves consistent, so only a fault fails
        # this; the identity is compared at the additivity witness, at the
        # position carried from an ejection along D, or nowhere when the set
        # absorbs D
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        values = [payoff[0]] * n if constant else payoff[:n]
        asset = EligibleAsset(price, RandVar(space, np.array(values, dtype=float) / 32))
        spec = builtin_spec(kind, alpha)
        verdict = cash_reduction_audit(spec, asset)
        assert verdict.verdict == "pass"
        additivity = find_additivity_violation(spec, asset)
        assert verdict.condition_values["additivity_passed"] == additivity.passed
        r1 = _rho_one(spec, asset)
        d = asset.payoff / price + 1.0 / r1
        ejected = None if asset.risk_free else absorbs(spec, space, d)
        assert verdict.samples == (3 if not additivity.passed else int(ejected is not None))
        if verdict.witness is not None:
            x = verdict.witness["x"]
            assert verdict.witness["lhs"] == rho(spec, asset, x, tol=1e-11).value
            assert verdict.witness["rhs"] == -r1 * rho_cash(spec, x)
            assert abs(verdict.witness["lhs"] - verdict.witness["rhs"]) > 1e-9

    def test_identity_value_at_reference_position(self, a_var01, near_rf_asset, near_rf_space):
        # requirement 1.5-style mismatch: left side differs from the scaled cash value
        x = RandVar(near_rf_space, [-2.0, -3.0, 2.0])
        lhs = rho(a_var01, near_rf_asset, x).value
        rhs = 1.0 * rho_cash(a_var01, x)  # -rho_one = 1
        assert abs(lhs - rhs) > 0.4


class TestLemmaEquality:
    def test_scaled_asset_gives_exact_equality(self, near_rf_space, a_var01, near_rf_asset):
        doubled = EligibleAsset(2.0, 2.0 * near_rf_asset.payoff)
        verdict = lemma_equality_audit(a_var01, near_rf_asset, doubled)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["equality_holds"]
        assert verdict.condition_values["stability_holds"]
        assert verdict.condition_values["gap_direction"].max_abs == 0.0
        assert (verdict.samples, verdict.witness) == (0, None)

    def test_two_distinct_risk_free_assets_both_fail(self, near_rf_space, a_var01):
        s = EligibleAsset(1.0, RandVar.constant(near_rf_space, 1.0))
        r = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = lemma_equality_audit(a_var01, s, r)
        assert verdict.verdict == "pass"
        assert not verdict.condition_values["equality_holds"]
        assert not verdict.condition_values["stability_holds"]
        assert verdict.witness["equality"] is not None
        assert verdict.witness["stability"] is not None

    def test_constructed_asset_vs_cash_equivalent(self, two_atom_space, constructed_asset):
        spec = AcceptanceSpec.var_level(0.1)
        cash_equiv = EligibleAsset(1.0, RandVar.constant(two_atom_space, 1.0))
        verdict = lemma_equality_audit(spec, constructed_asset, cash_equiv)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["equality_holds"]
        assert verdict.condition_values["stability_holds"]

    @staticmethod
    def assert_witnesses_reverify(spec, s, r, verdict):
        equality, stability = verdict.witness["equality"], verdict.witness["stability"]
        gap = verdict.condition_values["gap_direction"]
        x, shifted = stability["x"], stability["shifted"]
        assert accepts(spec, x) and not accepts(spec, shifted)
        t = 1.0 if stability["direction"] == "+" else -1.0
        assert shifted.tolist() == (x + gap if t > 0 else x - gap).tolist()
        # Z = x - t * R1/R0 is priced apart
        z = equality["x"]
        assert z.tolist() == (x - t * (r.payoff / r.price)).tolist()
        assert equality["rho_s"] == rho(spec, s, z, tol=1e-11).value
        assert equality["rho_r"] == rho(spec, r, z, tol=1e-11).value
        assert abs(equality["rho_s"] - equality["rho_r"]) > 1e-9

    def test_one_atom_bump_fails_both_sides_with_reverified_witnesses(self, near_rf_space, a_var01):
        # three sampled trials reported both sides holding here: neither side
        # sampled its violation
        s = EligibleAsset(1.0, RandVar.constant(near_rf_space, 1.0))
        r = EligibleAsset(1.0, RandVar(near_rf_space, [1.25, 1.0, 1.0]))
        verdict = lemma_equality_audit(a_var01, s, r)
        assert (verdict.verdict, verdict.samples) == ("pass", 1)
        values = verdict.condition_values
        assert not values["equality_holds"] and not values["stability_holds"]
        self.assert_witnesses_reverify(a_var01, s, r, verdict)

    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(
        probs=st.sampled_from([[0.1, 0.1, 0.8], [0.25, 0.25, 0.5]]),
        atom=st.integers(0, 2),
        kind=st.sampled_from(["var", "es"]),
        alpha=st.sampled_from([0.1, 0.25]),
    )
    def test_sides_agree_on_a_one_atom_bump(self, probs, atom, kind, alpha):
        # S = (1, 1) against R = (1, 1 with 1.25 on one atom): sampling both
        # sides alone, one missed what the other found in 32 of 288 cases
        space = FiniteSpace(probs)
        bumped = [1.0, 1.0, 1.0]
        bumped[atom] = 1.25
        s = EligibleAsset(1.0, RandVar.constant(space, 1.0))
        r = EligibleAsset(1.0, RandVar(space, bumped))
        spec = builtin_spec(kind, alpha)
        verdict = lemma_equality_audit(spec, s, r)
        assert verdict.verdict == "pass"
        if not verdict.condition_values["stability_holds"]:
            self.assert_witnesses_reverify(spec, s, r, verdict)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=2, max_size=5),
        payoff=st.lists(st.integers(16, 128), min_size=5, max_size=5),
        constant=st.booleans(),
        bump=st.one_of(st.none(), st.integers(0, 4)),
        kind=st.sampled_from(["var", "es", "mix"]),
        alpha=st.floats(0.05, 0.6),
        price_r=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_sides_agree_on_every_builtin_case(
        self, weights, payoff, constant, bump, kind, alpha, price_r
    ):
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        unit = np.array([payoff[0]] * n if constant else payoff[:n], dtype=float) / 32
        bumped = unit.copy()
        if bump is not None:
            bumped[bump % n] *= 1.25
        s = EligibleAsset(1.0, RandVar(space, unit))
        r = EligibleAsset(price_r, RandVar(space, price_r * bumped))
        spec = builtin_spec(kind, alpha)
        verdict = lemma_equality_audit(spec, s, r)
        assert verdict.verdict == "pass"
        if not verdict.condition_values["stability_holds"]:
            self.assert_witnesses_reverify(spec, s, r, verdict)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=2, max_size=7),
        payoff=st.lists(st.integers(16, 128), min_size=7, max_size=7),
        bump=st.one_of(st.none(), st.integers(0, 6)),
        factor=st.sampled_from([0.75, 1.25, 2.0]),
        kind=st.sampled_from(["var", "es", "mix"]),
        alpha=st.floats(0.05, 0.6),
        price_r=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_equality_side_matches_requirements_on_a_grid(
        self, weights, payoff, bump, factor, kind, alpha, price_r
    ):
        # side (a) holds iff rho_S = rho_R everywhere: when it holds, no
        # position of the grid {-1, 0, 1}^n (n <= 5) or of its one-atom steps
        # +-1_i and +-1_i - 1 (n > 5) is priced apart; when it fails, its
        # witness is
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        unit = np.array(payoff[:n], dtype=float) / 32
        bumped = unit.copy()
        if bump is not None:
            bumped[bump % n] *= factor
        s = EligibleAsset(1.0, RandVar(space, unit))
        r = EligibleAsset(price_r, RandVar(space, price_r * bumped))
        spec = builtin_spec(kind, alpha)
        verdict = lemma_equality_audit(spec, s, r)
        if not verdict.condition_values["equality_holds"]:
            self.assert_witnesses_reverify(spec, s, r, verdict)
            return
        if n <= 5:
            grid = [RandVar(space, list(g)) for g in itertools.product([-1.0, 0.0, 1.0], repeat=n)]
        else:
            steps = [RandVar.indicator(space, [i]) for i in range(n)]
            grid = [c * e + b for e in steps for c in (-1.0, 1.0) for b in (0.0, -1.0)]
        for x in grid:
            gap = rho(spec, s, x, tol=1e-11).value - rho(spec, r, x, tol=1e-11).value
            assert abs(gap) <= 1e-9


class TestDecidedByTheLemma:
    """``cash-reduction`` and ``lemma-equality`` price nothing; their audits are the oracle."""

    @pytest.mark.parametrize("payoff", [[2.0, 2.0, 2.0], [1.0, 2.0, 1.0]], ids=["risk-free", "risky"])
    @pytest.mark.parametrize("kind", ["var", "es", "mix", "mean"])
    def test_cash_reduction_passes_pricing_nothing(self, near_rf_space, monkeypatch, payoff, kind):
        calls = count_quotes(monkeypatch)
        spec = builtin_spec(kind, 0.1)
        asset = EligibleAsset(1.0, RandVar(near_rf_space, payoff))
        verdict = check_cash_reduction_identity(spec, asset)
        r1 = _rho_one(spec, asset)
        assert (verdict.verdict, verdict.samples, verdict.witness) == ("pass", 1, None)
        assert verdict.condition_values == {"rho_one": r1, "identity_factor": -r1}
        assert "W = r1 * D" in verdict.note
        assert calls == []

    @pytest.mark.parametrize("kind", ["var", "es", "mix", "mean"])
    def test_lemma_equality_carries_the_ejection_pricing_nothing(self, near_rf_space, monkeypatch,
                                                                 kind):
        calls = count_quotes(monkeypatch)
        spec = builtin_spec(kind, 0.1)
        s = EligibleAsset(1.0, RandVar.constant(near_rf_space, 1.0))
        r = EligibleAsset(1.0, RandVar(near_rf_space, [1.25, 1.0, 1.0]))
        verdict = check_lemma_equality(spec, s, r)
        assert (verdict.verdict, verdict.samples) == ("pass", 1)
        values = verdict.condition_values
        assert not values["equality_holds"] and not values["stability_holds"]
        assert calls == []
        ejected = verdict.witness["stability"]
        t = 1.0 if ejected["direction"] == "+" else -1.0
        z = verdict.witness["equality"]["x"]
        assert set(verdict.witness["equality"]) == {"x"}
        assert z.tolist() == (ejected["x"] - t * (r.payoff / r.price)).tolist()
        # the lemma's proof: rho_R(Z) <= t < rho_S(Z)
        assert rho(spec, r, z, tol=1e-12).value <= t < rho(spec, s, z, tol=1e-12).value

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=2, max_size=7),
        s_payoff=st.lists(st.integers(16, 128), min_size=7, max_size=7),
        r_payoff=st.lists(st.integers(16, 128), min_size=7, max_size=7),
        r_shape=st.sampled_from(["any", "scaled", "bumped", "constant"]),
        kind=st.sampled_from(["var", "es", "mix", "mean"]),
        alpha=st.floats(0.05, 0.6),
        price_s=st.sampled_from([0.5, 1.0, 2.0]),
        price_r=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_decisions_meet_their_audits(
        self, weights, s_payoff, r_payoff, r_shape, kind, alpha, price_s, price_r
    ):
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        unit_s = np.array(s_payoff[:n], dtype=float) / 32
        unit_r = {"any": np.array(r_payoff[:n], dtype=float) / 32,
                  "scaled": unit_s,
                  "bumped": np.where(np.arange(n) == r_payoff[0] % n, 1.25 * unit_s, unit_s),
                  "constant": np.full(n, r_payoff[0] / 32)}[r_shape]
        s = EligibleAsset(price_s, RandVar(space, price_s * unit_s))
        r = EligibleAsset(price_r, RandVar(space, price_r * unit_r))
        spec = builtin_spec(kind, alpha)

        verdict = check_lemma_equality(spec, s, r)
        audit = lemma_equality_audit(spec, s, r)
        values = verdict.condition_values
        assert verdict.verdict == "pass"
        assert values["equality_holds"] == values["stability_holds"]
        assert values["stability_holds"] == audit.condition_values["stability_holds"]
        assert verdict.samples == audit.samples
        if audit.witness is None or audit.witness["equality"] is not None:
            # the audit priced Z apart (or priced nothing): the decision agrees
            assert values["equality_holds"] == audit.condition_values["equality_holds"]
        if verdict.witness is not None:
            ejected = verdict.witness["stability"]
            t = 1.0 if ejected["direction"] == "+" else -1.0
            z = verdict.witness["equality"]["x"]
            assert z.tolist() == (ejected["x"] - t * (r.payoff / r.price)).tolist()
            if audit.witness["equality"] is not None:
                assert z.tolist() == audit.witness["equality"]["x"].tolist()

        if check_cash_reduction_identity(spec, s).passed:
            assert cash_reduction_audit(spec, s).passed


@pytest.mark.parametrize(
    "needs_r1",
    [
        _rho_one,
        lambda spec, asset: check_cash_reduction_identity(spec, asset),
        lambda spec, asset: check_lemma_equality(spec, asset, asset),
        lambda spec, asset: find_additivity_violation(spec, asset, seed_pairs=[(None, None)]),
        lambda spec, asset: cash_reduction_audit(spec, asset),
        lambda spec, asset: lemma_equality_audit(spec, asset, asset),
    ],
    ids=["rho-one", "cash-reduction", "lemma-equality", "additivity-violation",
         "cash-reduction-audit", "lemma-equality-audit"],
)
def test_r1_needs_a_builtin_criterion(needs_r1, near_rf_asset):
    # r1 = -S0 / F(-S1) holds for cash-additive, positively homogeneous F only,
    # and the lemma's absorption test is decided for the built-in kinds only;
    # the checkers reject an explicit criterion before any other input
    broken = AcceptanceSpec.explicit(lambda x: -expectation(x))
    with pytest.raises(ValueError, match="built-in criterion"):
        needs_r1(broken, near_rf_asset)


class TestVarNecessaryCondition:
    def test_near_rf_asset_satisfies_condition(self, a_var01, near_rf_asset):
        verdict = check_var_necessary_condition(a_var01, near_rf_asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["mass_at_constant"] == pytest.approx(0.9, abs=1e-12)
        assert verdict.condition_values["payoff_constant"] == 1.0

    def test_risk_free_always_passes(self, near_rf_space, a_var01):
        asset = EligibleAsset(1.0, RandVar.constant(near_rf_space, 3.0))
        verdict = check_var_necessary_condition(a_var01, asset)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["mass_at_constant"] == pytest.approx(1.0, abs=1e-12)

    def test_balanced_two_atom_fails(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.var_level(0.1)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        verdict = check_var_necessary_condition(spec, asset)
        assert verdict.verdict == "fail"
        assert verdict.condition_values["mass_at_constant"] == pytest.approx(0.5, abs=1e-12)

    def test_threshold_is_compared_exactly(self):
        # P = 0.5 misses 1 - 2 * alpha = 0.5 + 2**-54 exactly, though the
        # float 1.0 - 2.0 * alpha rounds to 0.5
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.var_level(math.nextafter(0.25, 0.0))
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        verdict = check_var_necessary_condition(spec, asset)
        assert verdict.verdict == "fail"
        assert verdict.condition_values["mass_at_constant"] == 0.5
        assert verdict.condition_values["threshold"] == 0.5

    def test_rejects_non_var_kind(self, near_rf_asset):
        with pytest.raises(ValueError):
            check_var_necessary_condition(AcceptanceSpec.es_level(0.1), near_rf_asset)

    def test_payoffs_sharing_a_rounded_reciprocal_stay_apart(self):
        # 1 / 1.5000000000000002 == 1 / 1.5000000000000004 in floats, but the
        # payoff levels differ: the event {S1 = s*} holds one atom, not two
        sp = FiniteSpace([0.45, 0.45, 0.1])
        spec = AcceptanceSpec.var_level(0.1)
        pays = [1.5000000000000002, 1.5000000000000004, 1.0]
        assert 1.0 / pays[0] == 1.0 / pays[1]
        asset = EligibleAsset(1.0, RandVar(sp, pays))
        verdict = check_var_necessary_condition(spec, asset)
        assert verdict.verdict == "fail"
        values = verdict.condition_values
        assert values["mass_at_constant"] == 0.45
        assert values["payoff_constant"] == pays[1]
        assert values["var_of_reciprocal_payoff"] == -1.0 / pays[1]
        assert check_theorem_condition_b(spec, asset).verdict == "fail"

    def test_names_an_overflowing_reciprocal_level(self):
        sp = FiniteSpace([0.5, 0.5])
        asset = EligibleAsset(1.0, RandVar(sp, [1e-310, 2e-310]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the VaR of 1 / S1, -1 / 2e-310, overflows"):
                check_var_necessary_condition(AcceptanceSpec.var_level(0.1), asset)

    def test_false_verdict_implies_violation_found(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.var_level(0.1)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        assert check_var_necessary_condition(spec, asset).verdict == "fail"
        search = find_additivity_violation(spec, asset)
        assert search.verdict == "fail"


class TestVarConditionB:
    def test_two_atom_space_holds_and_asset_is_additive(self, two_atom_space):
        verdict = check_var_condition_b(two_atom_space, Level(0.1))
        assert verdict.verdict == "pass"
        assert verdict.condition_values["event"] == [0]
        payoff = verdict.condition_values["witness_payoff"]
        assert payoff.tolist() == [2.0, 1.0]

    def test_uniform_twenty_fails_exhaustively(self):
        sp = FiniteSpace([0.05] * 20)
        verdict = check_var_condition_b(sp, Level(0.05))
        assert verdict.verdict == "fail"
        assert verdict.condition_values["best_total"] > 0.05

    def test_three_atom_boundary_case_fails(self):
        sp = FiniteSpace([0.05, 0.05, 0.9])
        verdict = check_var_condition_b(sp, Level(0.05))
        assert verdict.verdict == "fail"

    def test_float_drawn_probabilities_enumerate_in_int64(self):
        # the oracle properties run this path; its sums and limit lie below 2**62
        draw = np.random.default_rng(5).uniform(0.01, 1.0, 21)
        weights, scale = FiniteSpace(draw / draw.sum()).int_probs
        assert _subset_sums(weights[:3], scale).dtype == np.int64
        assert _subset_sums([2**61, 2**61 - 1], 0).dtype == np.int64
        assert _subset_sums([2**61, 2**61], 0).dtype == object
        assert _subset_sums([1, 2], 2**62).dtype == object

    @pytest.mark.parametrize("picks", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}])
    def test_tiny_probabilities_enumerate_python_ints(self, picks):
        # numerators over a denominator near 2**1050 overflow int64
        space = FiniteSpace([3e-300, 1e-300, 2e-300, 1.0])
        assert _subset_sums(space.int_probs[0], 0).dtype == object
        probs = space.probs.tolist()
        alpha = float(sum((Fraction(probs[i]) for i in picks), Fraction(0)))
        oracle = condition_b_oracle(probs, alpha)
        holds = condition_b_events(probs, alpha)
        verdict = check_var_condition_b(space, Level(alpha))
        values = verdict.condition_values
        assert verdict.samples == len(oracle)
        if not holds:
            assert verdict.verdict == "fail"
            assert values["best_total"] == float(min(p + i for p, i in oracle.values()))
            return
        found = min(holds, key=lambda m: (oracle[m][0], m))
        assert values["event"] == [i for i in range(4) if found >> i & 1] == [1]
        assert values["event_prob"] == float(oracle[found][0])
        assert values["inner_max"] == float(oracle[found][1])
        spec = AcceptanceSpec.var_level(alpha)
        constructed = EligibleAsset(1.0, values["witness_payoff"])
        assert verdict.passed != ejects_accepted_position(
            spec, leveraged_payoff(spec, constructed)
        )
        risky = EligibleAsset(1.0, RandVar(space, [2.0, 1.0, 3.0, 1.0]))
        assert check_theorem_condition_b(spec, risky).passed != ejects_accepted_position(
            spec, leveraged_payoff(spec, risky)
        )

    def test_rejects_oversized_space(self):
        sp = FiniteSpace([1.0 / 25] * 25)
        with pytest.raises(ValueError):
            check_var_condition_b(sp, Level(0.1))

    def test_twenty_one_atoms_are_decided(self):
        # the least atom is not enumerated, so 21 atoms stay within the cap
        sp = FiniteSpace([1 / 64] + [63 / 1280] * 20)
        verdict = check_var_condition_b(sp, Level(1 / 64))
        assert (verdict.verdict, verdict.samples) == ("pass", 1)
        assert verdict.condition_values["event"] == [0]

    def test_twenty_two_atoms_exceed_the_cap(self):
        sp = FiniteSpace([1 / 22] * 22)
        with pytest.raises(ValueError, match="enumeration cap 20"):
            check_var_condition_b(sp, Level(0.1))

    @pytest.mark.parametrize("order", ["given", "sorted", "reversed"])
    def test_verdict_is_exact_in_every_atom_order(self, order):
        # float subset sums taken in index order put event [0] within alpha in
        # the sorted order; in exact arithmetic every event is spoiled
        weights = np.array([1, 3, 2, 2, 2, 2, 4, 2, 3, 3, 1], dtype=float)
        weights = {"given": weights, "sorted": np.sort(weights), "reversed": weights[::-1]}[order]
        sp = FiniteSpace(weights / weights.sum())
        alpha = 0.27999999999999997
        verdict = check_var_condition_b(sp, Level(alpha))
        assert not condition_b_events(sp.probs.tolist(), alpha)
        assert verdict.verdict == "fail"
        assert "event" not in verdict.condition_values

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        # small whole weights make many events tie in exact arithmetic
        weights=st.lists(
            st.one_of(st.floats(0.01, 1.0), st.integers(1, 4).map(float)), min_size=1, max_size=8
        ),
        picks=st.sets(st.integers(0, 7), min_size=1, max_size=3),
        nudge=st.sampled_from([-1.0, 0.0, 1.0]),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    # the condition holds, but under the rounding of accepts the constructed
    # asset ejects an accepted position
    @example(
        weights=[0.1942221981974611, 0.14151299486797725, 0.40351874408036076,
                 0.26074606285420093],
        picks={0, 2}, nudge=0.0, perm_seed=0,
    )
    def test_matches_brute_force_oracle(self, weights, picks, nudge, perm_seed):
        total = sum(weights)
        raw = [w / total for w in weights]
        space = FiniteSpace(raw)
        probs = space.probs.tolist()
        # alpha is a subset sum, or one ulp either side of it
        alpha = float(sum((Fraction(p) for i, p in enumerate(probs) if i in picks), Fraction(0)))
        alpha = math.nextafter(alpha, alpha + nudge) if nudge else alpha
        if not 0.0 < alpha < 1.0:
            return
        perm = np.random.default_rng(perm_seed).permutation(len(raw)).tolist()
        for sp in (space, FiniteSpace([raw[i] for i in perm])):
            probs = sp.probs.tolist()
            oracle = condition_b_oracle(probs, alpha)
            holds = condition_b_events(probs, alpha)
            verdict = check_var_condition_b(sp, Level(alpha))
            values = verdict.condition_values
            assert verdict.samples == len(oracle)
            assert ("event" in values) == bool(holds)
            if not holds:
                assert verdict.verdict == "fail"
                assert values["candidate_events"] == len(oracle)
                least = min((prob + inner for prob, inner in oracle.values()), default=None)
                assert values["best_total"] == (None if least is None else float(least))
                continue
            # the least-probability event meeting the condition, then the least bitmask
            found = min(holds, key=lambda m: (oracle[m][0], m))
            event = values["event"]
            assert event == [i for i in range(len(probs)) if found >> i & 1]
            assert event == [probs.index(min(probs))]
            assert values["event_prob"] == float(oracle[found][0])
            assert values["inner_max"] == float(oracle[found][1])
            spec = AcceptanceSpec.var_level(alpha)
            asset = EligibleAsset(1.0, values["witness_payoff"])
            assert verdict.passed != ejects_accepted_position(spec, leveraged_payoff(spec, asset))
            if not verdict.passed:
                x, shifted = verdict.witness["x"], verdict.witness["shifted"]
                assert accepts(spec, x) and not accepts(spec, shifted)


class TestRhoOne:
    """r1 = rho(1) in closed form, -S0 / F(-S1), against the solver."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        payoff=st.lists(
            st.one_of(st.integers(16, 128).map(lambda k: k / 32), st.floats(0.01, 100.0)),
            min_size=8, max_size=8,
        ),
        kind=st.sampled_from(["var", "es", "mix"]),
        alpha=st.floats(0.01, 0.99),
        price=st.sampled_from([1.0, 0.7, 3.0]),
    )
    def test_matches_the_solver(self, weights, payoff, kind, alpha, price):
        total = sum(weights)
        space = FiniteSpace([w / total for w in weights])
        one = RandVar.constant(space, 1.0)
        if kind == "var":
            # the order statistic S0 * var(1/S1), bit for bit at price 1
            spec = AcceptanceSpec.var_level(alpha)
            asset = EligibleAsset(1.0, RandVar(space, payoff[: space.n_atoms]))
            assert _rho_one(spec, asset) == rho(spec, asset, one).value
            return
        points = ((0.0, 0.2), (alpha, 0.5), (1.0, 0.3))
        mix = AcceptanceSpec.distortion_mix(DistortionWeights(points))
        spec = AcceptanceSpec.es_level(alpha) if kind == "es" else mix
        asset = EligibleAsset(price, RandVar(space, payoff[: space.n_atoms]))
        quote = rho(spec, asset, one, tol=1e-12)
        # the bracket certifies the float membership of rounded positions, which
        # put the root up to 3 ulps off -S0 / F(-S1) in 10^4 random draws
        lo, hi = quote.value - quote.bracket_width, quote.value
        slack = 4.0 * math.ulp(hi)
        assert lo - slack <= _rho_one(spec, asset) <= hi + slack

    @pytest.mark.parametrize("price, level", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_rejects_an_overflow_or_underflow(self, near_rf_space, a_var01, price, level):
        # -S0 / F(-S1) rounds to -inf, then to -0.0
        asset = EligibleAsset(price, RandVar.constant(near_rf_space, level))
        with pytest.raises(ValueError, match="not a finite negative number"):
            _rho_one(a_var01, asset)


def count_quotes(monkeypatch) -> list[tuple[bytes, float | None]]:
    """Every ``engine.rho`` evaluation, as (position bytes, tol), recorded through a wrapper."""
    calls = []
    quote = engine.rho

    def counted(spec, asset, x, tol=None, method="auto"):
        calls.append((x.values.tobytes(), tol))
        return quote(spec, asset, x, tol, method)

    monkeypatch.setattr(engine, "rho", counted)
    return calls


def distinct_quotes(pairs) -> int:
    """The number of distinct positions among x, y and x + y over ``pairs``."""
    return len({v.values.tobytes() for x, y in pairs for v in (x, y, x + y)})


class TestFindAdditivityViolation:
    def test_reference_pair_recovers_half_gap(self):
        sp = FiniteSpace([0.05, 0.05, 0.9])
        spec = AcceptanceSpec.var_level(0.05)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0, 1.0]))
        x = RandVar(sp, [-2.0, -3.0, 2.0])
        y = RandVar(sp, [-4.0, -9.0, 0.0])
        # (x, -x) is not comonotone: it is skipped, and not counted as a sample
        verdict = find_additivity_violation(spec, asset, seed_pairs=[(x, -x), (x, y)])
        assert (verdict.verdict, verdict.samples, verdict.witness["gap"]) == ("fail", 1, 0.5)
        assert (verdict.witness["x"].tolist(), verdict.witness["y"].tolist()) == (x.tolist(), y.tolist())
        assert verdict.condition_values["direction"] == "superadditive"

    def test_risk_free_es_finds_nothing(self, near_rf_space):
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = find_additivity_violation(spec, asset)
        assert verdict.verdict == "pass"

    def test_risky_es_two_atom_finds_witness(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        verdict = find_additivity_violation(spec, asset)
        assert verdict.verdict == "fail"
        x, y = verdict.witness["x"], verdict.witness["y"]
        assert is_comonotone(x, y)
        gap = rho(spec, asset, x + y, tol=1e-12).value - rho(
            spec, asset, x, tol=1e-12
        ).value - rho(spec, asset, y, tol=1e-12).value
        assert abs(gap) > 1e-7


    def test_pair_theorem_b_does_not_certify_passes(self):
        # W = [0.57, 2**-53] is 2**-53 where the exact W vanishes, so theorem-b
        # ejects X = 0; (1, -1) is additive and (0, -1) has a gap of ~1e-16
        sp = FiniteSpace([0.125, 0.875])
        spec = AcceptanceSpec.var_level(0.3)
        asset = EligibleAsset(1.0, RandVar(sp, [1.4375, 3.34375]))
        assert check_theorem_condition_b(spec, asset).verdict == "fail"
        verdict = find_additivity_violation(spec, asset)
        assert (verdict.verdict, verdict.samples) == ("pass", 2)

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("risky", [True, False], ids=["risky", "risk-free"])
    def test_two_thousand_atoms_take_a_few_pairs(self, kind, risky, monkeypatch):
        # the caller's pair and (1, -1): x, 2x, 3x, then 1, -1 and 0, each priced once
        calls = count_quotes(monkeypatch)
        n = 2000
        space = FiniteSpace(np.arange(1, n + 1) / (n * (n + 1) / 2))
        payoff = 1.0 + (np.arange(n) % 4) / 4 if risky else np.full(n, 1.25)
        asset = EligibleAsset(1.0, RandVar(space, payoff))
        spec = AcceptanceSpec.var_level(0.1) if kind == "var" else AcceptanceSpec.es_level(0.1)
        x = RandVar(space, np.arange(n) / 64)
        one = RandVar.constant(space, 1.0)
        verdict = find_additivity_violation(spec, asset, seed_pairs=[(x, 2.0 * x)])
        assert verdict.passed != risky
        assert verdict.samples == 2
        assert len(calls) == distinct_quotes([(x, 2.0 * x), (one, -one)]) == 6

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_prices_each_distinct_position_once(self, kind, monkeypatch):
        # a book of 24 multiples k * d: its 300 pairs and (1, -1) hold 51 distinct
        # positions (k * d for k = 1..48, then 1, -1 and 0), not 3 * 301
        calls = count_quotes(monkeypatch)
        space = FiniteSpace(np.array([3.0, 1.0, 2.0, 5.0, 1.0, 4.0]) / 16)
        asset = EligibleAsset(1.5, RandVar(space, np.array([40.0, 64.0, 72.0, 48.0, 96.0, 80.0]) / 64))
        spec = AcceptanceSpec.var_level(0.25) if kind == "var" else AcceptanceSpec.es_level(0.25)
        d = RandVar(space, np.array([-37.0, 5.0, 12.0, -3.0, 40.0, 17.0]) / 64)
        book = [k * d for k in range(1, 25)]
        seed_pairs = [(x, y) for i, x in enumerate(book) for y in book[i:]]
        one = RandVar.constant(space, 1.0)
        verdict = find_additivity_violation(spec, asset, seed_pairs)
        assert (verdict.verdict, verdict.samples) == ("fail", len(seed_pairs) + 1)
        assert verdict.witness["x"].tolist() == one.tolist()
        assert len(calls) == distinct_quotes([*seed_pairs, (one, -one)]) == 51
        assert {tol for _, tol in calls} == {1e-12}

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 31), min_size=2, max_size=7),
        payoff=st.lists(st.integers(16, 128), min_size=7, max_size=7),
        constant=st.booleans(),
        kind=st.sampled_from(["var", "es", "mix", "mean"]),
        alpha=st.floats(0.05, 0.6),
        price=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constructed_pairs_meet_the_sampled_oracle(
        self, weights, payoff, constant, kind, alpha, price, seed
    ):
        n = len(weights)
        space = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        values = [payoff[0]] * n if constant else payoff[:n]
        asset = EligibleAsset(price, RandVar(space, np.array(values, dtype=float) / 32))
        spec = builtin_spec(kind, alpha)

        def gap(x, y):
            def at(v):
                return rho(spec, asset, v, tol=1e-12).value
            return at(x + y) - at(x) - at(y)

        verdict = find_additivity_violation(spec, asset)
        if not verdict.passed:
            x, y = verdict.witness["x"], verdict.witness["y"]
            assert is_comonotone(x, y)
            assert gap(x, y) == verdict.witness["gap"]
            assert abs(verdict.witness["gap"]) > ADDITIVITY_THRESHOLD
        if kind in ("es", "mix"):
            # convex and not expectation-linear: comonotonic iff risk-free
            assert verdict.passed == asset.risk_free
        if kind == "mean":
            assert verdict.passed

        # the slow reference: random comonotone pairs, then positions with constants
        rng = np.random.default_rng(seed)

        def sampled():
            for _ in range(200):
                pair = generate_comonotone_pair(space, rng)
                yield pair.x, pair.y
            for _ in range(100):
                x = RandVar(space, rng.integers(-128, 129, n) / 64)
                yield x, RandVar.constant(space, float(rng.integers(-128, 129)) / 64)

        if any(abs(gap(x, y)) > ADDITIVITY_THRESHOLD for x, y in sampled()):
            assert not verdict.passed


class TestPointednessFamily:
    def test_fifty_random_risky_assets(self):
        # pointed criteria with risky assets: the exact test fails and the
        # search always produces a verified witness
        rng = np.random.default_rng(59)
        for k in range(50):
            n = int(rng.integers(2, 9))
            w = rng.integers(1, 32, n).astype(float)
            sp = FiniteSpace(w / w.sum())
            payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
            while payoff.is_constant:
                payoff = RandVar(sp, rng.integers(16, 129, n) / 32)
            asset = EligibleAsset(float(rng.integers(2, 9)) / 4, payoff)
            if k % 2 == 0:
                spec = AcceptanceSpec.es_level(float(rng.uniform(0.1, 0.8)))
            else:
                a = float(rng.uniform(0.1, 0.6))
                spec = AcceptanceSpec.distortion_mix(
                    DistortionWeights(((a, 0.5), (1.0, 0.5)))
                )
            assert check_corollary_convex(spec, asset).verdict == "fail"
            search = find_additivity_violation(spec, asset)
            assert search.verdict == "fail", f"no witness for asset {k}"
            assert is_comonotone(search.witness["x"], search.witness["y"])


class TestReplicationSuite:
    def test_all_fixtures_pass(self):
        verdicts = run_replication_suite()
        assert all(v.passed for v in verdicts), [
            (v.statement, v.note) for v in verdicts if not v.passed
        ]

    def test_deterministic(self):
        first = [v.to_jsonable() for v in run_replication_suite()]
        second = [v.to_jsonable() for v in run_replication_suite()]
        assert first == second

    def test_tampered_value_fails_naming_fixture(self):
        verdicts = run_replication_suite({"svar-superadditivity": {"rho_sum": 6.1}})
        failed = [v for v in verdicts if not v.passed]
        assert len(failed) == 1
        assert failed[0].statement == "replicate-svar-superadditivity"
        assert "rho_sum" in failed[0].note

    def test_unknown_fixture_rejected(self):
        with pytest.raises(KeyError):
            run_replication_suite({"no-such-fixture": {}})

    @pytest.mark.parametrize("key", ["rho_summ", "probs"])
    def test_only_compared_quantities_may_be_overridden(self, key):
        with pytest.raises(KeyError) as info:
            run_replication_suite({"svar-superadditivity": {key: 6.1}})
        assert info.value.args[0] == f"svar-superadditivity.{key}"
