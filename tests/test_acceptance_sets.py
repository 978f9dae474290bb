"""Tests for acceptance sets, membership, and the structural-property checkers."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    accepts,
    check_cone,
    check_convex,
    check_corollary_convex,
    check_monotone,
    distortion,
    es,
    expectation,
    find_risk_invariant,
    rho,
    rho_cash,
    var,
)


@pytest.fixture
def space3():
    return FiniteSpace([0.1, 0.1, 0.8])


@pytest.fixture
def a_var(space3):
    return AcceptanceSpec.var_level(0.1)


@pytest.fixture
def a_es():
    return AcceptanceSpec.es_level(0.1)


class TestSpecConstruction:
    def test_var_needs_level(self):
        with pytest.raises(ValueError):
            AcceptanceSpec("var")

    def test_distortion_needs_weights(self):
        with pytest.raises(ValueError):
            AcceptanceSpec("distortion")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AcceptanceSpec("quantile")

    def test_kind_flags(self, a_var, a_es):
        assert not a_var.is_convex_kind
        assert a_es.is_convex_kind and a_es.is_pointed_kind
        dx = AcceptanceSpec.distortion_mix(DistortionWeights(((0.5, 0.5), (1.0, 0.5))))
        assert dx.is_pointed_kind
        pure = AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),)))
        assert not pure.is_pointed_kind

    @pytest.mark.parametrize(
        "weights, linear",
        [
            (None, True),
            (((1.0, 1.0),), True),
            # renormalized, the level-1 weight is still 1.0, next to a 1e-17 shortfall part
            (((1.0, 1.0), (0.5, 1e-17)), False),
        ],
    )
    def test_linear_predicates_agree(self, space3, weights, linear):
        spec = (
            AcceptanceSpec.expectation_floor()
            if weights is None
            else AcceptanceSpec.distortion_mix(DistortionWeights(weights))
        )
        asset = EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0]))
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        assert spec.is_linear_kind == linear
        assert spec.is_pointed_kind == (not linear)
        assert (rho(spec, asset, x).method == "closed_form") == linear
        assert ("expectation-linear" in check_corollary_convex(spec, asset).note) == linear


class TestAccepts:
    def test_counterexample_indicators(self, space3, a_var):
        minus_a = RandVar(space3, [-1.0, 0.0, 0.0])
        minus_ab = RandVar(space3, [-1.0, -1.0, 0.0])
        assert accepts(a_var, minus_a)
        assert not accepts(a_var, minus_ab)

    @pytest.mark.parametrize(
        "spec",
        [
            AcceptanceSpec.var_level(0.1),
            AcceptanceSpec.es_level(0.1),
            AcceptanceSpec.expectation_floor(),
            AcceptanceSpec.distortion_mix(DistortionWeights(((0.2, 1.0),))),
        ],
    )
    def test_zero_accepted(self, space3, spec):
        assert accepts(spec, RandVar.constant(space3, 0.0))

    def test_matches_functional_sign(self, space3):
        rng = np.random.default_rng(1)
        specs = [
            AcceptanceSpec.var_level(0.1),
            AcceptanceSpec.es_level(0.2),
            AcceptanceSpec.expectation_floor(),
        ]
        for _ in range(200):
            x = RandVar(space3, rng.integers(-64, 65, 3) / 16)
            for spec in specs:
                assert accepts(spec, x) == (spec.functional_value(x) <= 0.0)

    def test_functional_dispatch(self, space3):
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        assert AcceptanceSpec.var_level(0.1).functional_value(x) == var(x, Level(0.1))
        assert AcceptanceSpec.es_level(0.2).functional_value(x) == es(x, Level(0.2))
        mu = DistortionWeights(((1.0, 1.0),))
        assert AcceptanceSpec.distortion_mix(mu).functional_value(x) == distortion(x, mu)
        assert AcceptanceSpec.expectation_floor().functional_value(x) == -expectation(x)


class TestCheckMonotone:
    def test_var_passes(self, space3, a_var):
        assert check_monotone(a_var, space3, trials=1000, seed=0).passed

    def test_es_passes(self, space3, a_es):
        assert check_monotone(a_es, space3, trials=1000, seed=1).passed

    def test_broken_increasing_functional_fails(self, space3):
        broken = AcceptanceSpec.explicit(expectation, label="increasing-expectation")
        report = check_monotone(broken, space3, trials=500, seed=2)
        assert not report.passed
        x, y = report.witness["x"], report.witness["y"]
        assert accepts(broken, x) and not accepts(broken, y) and y >= x

    def test_rejects_zero_trials(self, space3, a_var):
        with pytest.raises(ValueError):
            check_monotone(a_var, space3, trials=0)


class TestCheckCone:
    @pytest.mark.parametrize("maker", ["var", "es", "distortion"])
    def test_builtins_pass(self, space3, maker):
        spec = {
            "var": AcceptanceSpec.var_level(0.1),
            "es": AcceptanceSpec.es_level(0.1),
            "distortion": AcceptanceSpec.distortion_mix(
                DistortionWeights(((0.1, 0.5), (1.0, 0.5)))
            ),
        }[maker]
        assert check_cone(spec, space3, trials=600, seed=3).passed

    def test_shifted_var_fails_at_origin(self, space3):
        broken = AcceptanceSpec.explicit(
            lambda x: var(x, Level(0.1)) + 1.0, label="var-plus-one"
        )
        report = check_cone(broken, space3, trials=400, seed=4)
        assert not report.passed
        assert report.witness["t"] == 0.0


class TestCheckConvex:
    def test_es_passes(self, space3, a_es):
        assert check_convex(a_es, space3, trials=400, seed=5).passed

    def test_distortion_passes(self, space3):
        mu = DistortionWeights(((0.1, 0.4), (0.5, 0.6),))
        assert check_convex(AcceptanceSpec.distortion_mix(mu), space3, trials=400, seed=6).passed

    def test_var_fails_with_witness(self, space3, a_var):
        report = check_convex(a_var, space3, trials=400, seed=7)
        assert not report.passed
        x, y, t = report.witness["x"], report.witness["y"], report.witness["t"]
        blend = t * x + (1.0 - t) * y
        assert accepts(a_var, x) and accepts(a_var, y)
        assert not accepts(a_var, blend)


class TestFindRiskInvariant:
    def test_var_has_invariant(self, space3, a_var):
        report = find_risk_invariant(a_var, space3, trials=500, seed=8)
        assert not report.passed
        w = report.witness["w"]
        assert w.max_abs > 0 and accepts(a_var, w) and accepts(a_var, -w)

    def test_es_none_with_certificate(self, space3, a_es):
        report = find_risk_invariant(a_es, space3, trials=500, seed=9)
        assert report.passed
        cert = report.data["pointedness_certificate"]
        assert cert["holds"] and cert["min_gap"] > 0.0

    def test_probes_are_generated_lazily(self, monkeypatch):
        # the first indicator-difference probe is already an invariant, so only
        # its two indicators get built, not all 3n(n-1) probes up front
        built = []
        indicator = RandVar.indicator
        monkeypatch.setattr(
            RandVar, "indicator", classmethod(lambda cls, *a: built.append(a) or indicator(*a))
        )
        sp = FiniteSpace(np.full(40, 1.0 / 40))
        report = find_risk_invariant(AcceptanceSpec.var_level(0.1), sp, trials=1, seed=0)
        assert not report.passed and report.trials == 1
        assert len(built) == 2

    def test_var_invariant_on_a_single_small_atom(self):
        # only atom 0 may be lost at alpha 0.1, so no pair probe is an invariant
        sp = FiniteSpace([0.05, 0.475, 0.475])
        spec = AcceptanceSpec.var_level(0.1)
        report = find_risk_invariant(spec, sp, trials=1000)
        assert not report.passed
        w = report.witness["w"]
        assert w.tolist() == [1.0, 0.0, 0.0] and accepts(spec, w) and accepts(spec, -w)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 20), min_size=1, max_size=5),
        alpha=st.sampled_from([0.05, 0.1, 0.25, 0.4, 0.6]),
    )
    def test_var_verdict_matches_sign_vector_oracle(self, weights, alpha):
        # VaR membership of W depends only on the sign pattern of W, so an
        # invariant exists iff some nonzero vector in {-1, 0, 1}^n is one
        sp = FiniteSpace([w / sum(weights) for w in weights])
        spec = AcceptanceSpec.var_level(alpha)
        exists = any(
            accepts(spec, w) and accepts(spec, -w)
            for signs in product((-1.0, 0.0, 1.0), repeat=sp.n_atoms)
            if any(signs)
            for w in [RandVar(sp, list(signs))]
        )
        report = find_risk_invariant(spec, sp, trials=1, seed=0)
        assert report.passed == (not exists)

    def test_expectation_has_invariant(self):
        sp = FiniteSpace([0.5, 0.5])
        report = find_risk_invariant(AcceptanceSpec.expectation_floor(), sp, trials=200, seed=10)
        assert not report.passed
        w = report.witness["w"]
        assert expectation(w) == 0.0 and w.max_abs > 0


class TestSetMeasureConsistency:
    def test_membership_equals_cash_requirement_sign(self, space3):
        # the requirement under the cash asset recovers the set exactly
        rng = np.random.default_rng(12)
        specs = [
            AcceptanceSpec.var_level(0.1),
            AcceptanceSpec.es_level(0.25),
            AcceptanceSpec.distortion_mix(DistortionWeights(((0.2, 0.5), (1.0, 0.5)))),
            AcceptanceSpec.expectation_floor(),
        ]
        for _ in range(300):
            x = RandVar(space3, rng.integers(-64, 65, 3) / 16)
            for spec in specs:
                assert accepts(spec, x) == (rho_cash(spec, x) <= 0.0)

    def test_invariant_never_changes_cash_requirement(self, space3):
        # a found invariant of a convex conic criterion leaves requirements flat
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.expectation_floor()
        report = find_risk_invariant(spec, sp, trials=200, seed=13)
        w = report.witness["w"]
        rng = np.random.default_rng(14)
        for _ in range(200):
            y = RandVar(sp, rng.integers(-64, 65, 2) / 16)
            assert rho_cash(spec, y + w) == pytest.approx(rho_cash(spec, y), abs=1e-10)


class TestPointedDistortion:
    def test_distortion_off_one_has_no_invariant(self, space3):
        mu = DistortionWeights(((0.2, 0.5), (1.0, 0.5)))
        spec = AcceptanceSpec.distortion_mix(mu)
        report = find_risk_invariant(spec, space3, trials=500, seed=21)
        assert report.passed
        cert = report.data["pointedness_certificate"]
        assert cert["holds"] and cert["min_gap"] > 0.0
