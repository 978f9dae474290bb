"""Tests for the statement checkers and the reference-example replication suite."""

import math
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
    find_additivity_violation,
    is_comonotone,
    rho,
    rho_cash,
    run_replication_suite,
)


def condition_b_events(probs: list[float], alpha: float) -> list[int]:
    """Bitmasks of the events A meeting the VaR condition, by brute force in exact rationals.

    A qualifies iff 0 < P(A) <= alpha and no subset B of its complement has
    alpha - P(A) < P(B) <= alpha.
    """
    a = Fraction(alpha)
    sums = [Fraction(0)]
    for p in probs:
        sums += [s + Fraction(p) for s in sums]
    return [
        m for m in range(1, len(sums))
        if 0 < sums[m] <= a
        and not any(a - sums[m] < sums[b] <= a for b in range(len(sums)) if b & m == 0)
    ]


def ejects_accepted_position(spec: AcceptanceSpec, asset: EligibleAsset) -> bool:
    """Whether W = 1 + (r1 / S0) * S1 ejects some accepted -c * 1_E, by brute force over E.

    With c beyond the size of W, every event is tried through :func:`accepts`
    in both directions.
    """
    space = asset.payoff.space
    n = space.n_atoms
    one = RandVar.constant(space, 1.0)
    w = one + (rho(spec, asset, one).value / asset.price) * asset.payoff
    c = 1.0 + 2.0 * w.max_abs
    for mask in range(2**n):
        x = -c * RandVar.indicator(space, [i for i in range(n) if mask >> i & 1])
        if accepts(spec, x) and not (accepts(spec, x + w) and accepts(spec, x - w)):
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
        assert "exact single membership" in verdict.note

    def test_rejects_explicit_kind(self, near_rf_asset):
        from eligirisk import expectation

        broken = AcceptanceSpec.explicit(lambda x: -expectation(x))
        with pytest.raises(ValueError):
            check_theorem_condition_b(broken, near_rf_asset)

    def test_failure_implies_violation_findable(self, a_var01, near_rf_asset):
        # stability failure certifies non-additivity, so the searcher must
        # realize a concrete violating pair on the same fixture
        assert check_theorem_condition_b(a_var01, near_rf_asset).verdict == "fail"
        found = find_additivity_violation(a_var01, near_rf_asset, budget=2000, seed=67)
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

    def test_sixteen_atom_near_pass_fails(self):
        # a sampled search with 200 trials missed every ejected position here
        weights = np.array([21, 20, 26, 9, 54, 4, 62, 11, 23, 28, 53, 16, 6, 43, 8, 57], float)
        space = FiniteSpace(weights / weights.sum())
        payoff = np.ones(16)
        payoff[5] = 2.0
        spec = AcceptanceSpec.var_level(0.3)
        asset = EligibleAsset(1.0, RandVar(space, payoff))
        verdict = check_theorem_condition_b(spec, asset)
        assert (verdict.verdict, verdict.samples, verdict.seed) == ("fail", 1, None)
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
        ejected = ejects_accepted_position(spec, asset)
        verdict = check_theorem_condition_b(spec, asset)
        assert verdict.verdict == ("fail" if ejected else "pass")
        if ejected:
            self.assert_witness_reverifies(spec, verdict)


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

    def test_matches_sampled_additivity_on_random_assets(self):
        # the exact single test and the sampled additivity verdict must agree
        from eligirisk import additivity_on_comonotone

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


class TestPropCashReduction:
    def test_risk_free_identity_with_half_factor(self, near_rf_space, a_var01):
        asset = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = check_cash_reduction_identity(a_var01, asset, trials=200, seed=7)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["additivity_passed"]
        assert verdict.condition_values["identity_factor"] == pytest.approx(0.5, abs=1e-12)

    def test_constructed_asset_identity_holds(self, constructed_asset):
        spec = AcceptanceSpec.var_level(0.1)
        verdict = check_cash_reduction_identity(spec, constructed_asset, trials=300, seed=11)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["additivity_passed"]

    def test_near_rf_asset_fails_consistently(self, a_var01, near_rf_asset):
        verdict = check_cash_reduction_identity(a_var01, near_rf_asset, trials=400, seed=13)
        assert verdict.verdict == "pass"
        assert not verdict.condition_values["additivity_passed"]
        w = verdict.witness
        assert w is not None
        assert abs(w["lhs"] - w["rhs"]) > 1e-9

    def test_identity_value_at_reference_position(self, a_var01, near_rf_asset, near_rf_space):
        # requirement 1.5-style mismatch: left side differs from the scaled cash value
        x = RandVar(near_rf_space, [-2.0, -3.0, 2.0])
        lhs = rho(a_var01, near_rf_asset, x).value
        rhs = 1.0 * rho_cash(a_var01, x)  # -rho_one = 1
        assert abs(lhs - rhs) > 0.4


class TestLemmaEquality:
    def test_scaled_asset_gives_exact_equality(self, near_rf_space, a_var01, near_rf_asset):
        doubled = EligibleAsset(2.0, 2.0 * near_rf_asset.payoff)
        verdict = check_lemma_equality(a_var01, near_rf_asset, doubled, trials=150, seed=17)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["equality_holds"]
        assert verdict.condition_values["stability_holds"]
        assert verdict.condition_values["gap_direction"].max_abs == 0.0

    def test_two_distinct_risk_free_assets_both_fail(self, near_rf_space, a_var01):
        s = EligibleAsset(1.0, RandVar.constant(near_rf_space, 1.0))
        r = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = check_lemma_equality(a_var01, s, r, trials=150, seed=19)
        assert verdict.verdict == "pass"
        assert not verdict.condition_values["equality_holds"]
        assert not verdict.condition_values["stability_holds"]
        assert verdict.witness["equality"] is not None
        assert verdict.witness["stability"] is not None

    def test_constructed_asset_vs_cash_equivalent(self, two_atom_space, constructed_asset):
        spec = AcceptanceSpec.var_level(0.1)
        cash_equiv = EligibleAsset(1.0, RandVar.constant(two_atom_space, 1.0))
        verdict = check_lemma_equality(spec, constructed_asset, cash_equiv, trials=300, seed=23)
        assert verdict.verdict == "pass"
        assert verdict.condition_values["equality_holds"]
        assert verdict.condition_values["stability_holds"]


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "checker",
    [
        lambda spec, asset, trials: check_cash_reduction_identity(spec, asset, trials),
        lambda spec, asset, trials: check_lemma_equality(spec, asset, asset, trials),
    ],
    ids=["cash-reduction", "lemma-equality"],
)
def test_sampled_checkers_reject_fewer_than_one_trial(checker, trials, a_var01, near_rf_asset):
    # with zero trials the sampled check would pass without a sample
    with pytest.raises(ValueError, match="trials"):
        checker(a_var01, near_rf_asset, trials)


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

    def test_false_verdict_implies_violation_found(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.var_level(0.1)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        assert check_var_necessary_condition(spec, asset).verdict == "fail"
        search = find_additivity_violation(spec, asset, budget=1500, seed=29)
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

    def test_rejects_oversized_space(self):
        sp = FiniteSpace([1.0 / 25] * 25)
        with pytest.raises(ValueError):
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
        holds = bool(condition_b_events(probs, alpha))
        perm = np.random.default_rng(perm_seed).permutation(len(raw)).tolist()
        for sp in (space, FiniteSpace([raw[i] for i in perm])):
            verdict = check_var_condition_b(sp, Level(alpha))
            assert ("event" in verdict.condition_values) == holds
            if not holds:
                assert verdict.verdict == "fail"
                continue
            event = verdict.condition_values["event"]
            assert sum(1 << i for i in event) in condition_b_events(sp.probs.tolist(), alpha)
            spec = AcceptanceSpec.var_level(alpha)
            asset = EligibleAsset(1.0, verdict.condition_values["witness_payoff"])
            assert verdict.passed != ejects_accepted_position(spec, asset)
            if not verdict.passed:
                x, shifted = verdict.witness["x"], verdict.witness["shifted"]
                assert accepts(spec, x) and not accepts(spec, shifted)


class TestFindAdditivityViolation:
    def test_reference_pair_recovers_half_gap(self):
        sp = FiniteSpace([0.05, 0.05, 0.9])
        spec = AcceptanceSpec.var_level(0.05)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0, 1.0]))
        x = RandVar(sp, [-2.0, -3.0, 2.0])
        y = RandVar(sp, [-4.0, -9.0, 0.0])
        verdict = find_additivity_violation(spec, asset, budget=50, seed=43, seed_pairs=[(x, y)])
        assert verdict.verdict == "fail"
        assert abs(verdict.witness["gap"]) >= 0.5 - 1e-9
        assert verdict.condition_values["direction"] == "superadditive"

    def test_risk_free_es_finds_nothing(self, near_rf_space):
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar.constant(near_rf_space, 2.0))
        verdict = find_additivity_violation(spec, asset, budget=400, seed=47)
        assert verdict.verdict == "pass"

    def test_risky_es_two_atom_finds_witness(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        verdict = find_additivity_violation(spec, asset, budget=500, seed=53)
        assert verdict.verdict == "fail"
        x, y = verdict.witness["x"], verdict.witness["y"]
        assert is_comonotone(x, y)
        gap = rho(spec, asset, x + y, tol=1e-12).value - rho(
            spec, asset, x, tol=1e-12
        ).value - rho(spec, asset, y, tol=1e-12).value
        assert abs(gap) > 1e-7


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
            search = find_additivity_violation(spec, asset, budget=300, seed=61 + k)
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
