"""Tests for comonotonicity predicates, the sampled pair oracle, and the additivity decision."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligirisk import comonotone
from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    SpaceMismatchError,
    additivity_on_S_comonotone,
    check_corollary_convex,
    comono_preservation_under_numeraire,
    is_comonotone,
    rho,
    var,
)

from sampling import additivity_on_comonotone, generate_comonotone_pair, probe_and_draw_passes


@st.composite
def payoff_values(draw):
    """1-12 positive payoffs from subnormal to near the largest float, with
    some atoms tied to the smallest or the largest value."""
    values = draw(st.lists(
        st.floats(min_value=5e-324, max_value=sys.float_info.max), min_size=1, max_size=12
    ))
    ties = draw(st.lists(
        st.sampled_from((None, "min", "max")), min_size=len(values), max_size=len(values)
    ))
    lo, hi = min(values), max(values)
    return [lo if t == "min" else hi if t == "max" else v for v, t in zip(values, ties)]


@pytest.fixture
def space3():
    return FiniteSpace([0.05, 0.05, 0.9])


class TestIsComonotone:
    def test_reference_pair(self, space3):
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        y = RandVar(space3, [-4.0, -9.0, 0.0])
        assert is_comonotone(x, y)

    def test_constant_with_anything(self, space3):
        c = RandVar.constant(space3, 1.0)
        z = RandVar(space3, [5.0, -7.0, 0.25])
        assert is_comonotone(c, z) and is_comonotone(z, c)

    def test_antithetic_pair(self):
        sp = FiniteSpace([0.5, 0.5])
        assert not is_comonotone(RandVar(sp, [1.0, -1.0]), RandVar(sp, [-1.0, 1.0]))

    def test_space_mismatch(self, space3):
        with pytest.raises(SpaceMismatchError):
            is_comonotone(
                RandVar.constant(space3, 0.0), RandVar(FiniteSpace([0.5, 0.5]), [0.0, 0.0])
            )

    def test_symmetric_and_reflexive(self):
        rng = np.random.default_rng(3)
        sp = FiniteSpace([0.2, 0.3, 0.5])
        for _ in range(200):
            x = RandVar(sp, rng.integers(-8, 9, 3).astype(float))
            y = RandVar(sp, rng.integers(-8, 9, 3).astype(float))
            assert is_comonotone(x, x)
            assert is_comonotone(x, y) == is_comonotone(y, x)

    def test_invariant_under_common_increasing_map(self):
        rng = np.random.default_rng(5)
        sp = FiniteSpace([0.25, 0.25, 0.25, 0.25])
        for _ in range(200):
            x = RandVar(sp, rng.integers(-8, 9, 4).astype(float))
            y = RandVar(sp, rng.integers(-8, 9, 4).astype(float))
            fx = RandVar(sp, np.exp(x.values / 4.0))
            fy = RandVar(sp, np.exp(y.values / 4.0))
            assert is_comonotone(x, y) == is_comonotone(fx, fy)

    def test_sorted_fast_path_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(2, 8))
            w = rng.integers(1, 16, n).astype(float)
            sp = FiniteSpace(w / w.sum())
            vx = rng.integers(-3, 4, n).astype(float)
            vy = rng.integers(-3, 4, n).astype(float)
            # at 1e-200 and below, products of differences underflow to +-0.0
            scales = (1.0, 1e-200, 5e-324)
            want = []
            for scale in scales:
                x, y = RandVar(sp, scale * vx), RandVar(sp, scale * vy)
                want.append(is_comonotone(x, y, method="pairwise"))
                assert want[-1] == is_comonotone(x, y, method="sorted")
            # the block form: one row per scale
            block = [np.stack([scale * v for scale in scales]) for v in (vx, vy)]
            assert comonotone._sorted_rows(*block).tolist() == want

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(*[st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])] * 2),
                       min_size=1, max_size=8)
    )
    def test_sorted_matches_atomwise_python(self, atoms):
        # the definition on Python floats: no pair of atoms is ordered oppositely
        xs, ys = map(list, zip(*atoms))
        sp = FiniteSpace(np.full(len(xs), 1.0 / len(xs)))
        want = not any(
            (xs[i] < xs[j] and ys[i] > ys[j]) or (xs[i] > xs[j] and ys[i] < ys[j])
            for i in range(len(xs)) for j in range(len(xs))
        )
        assert is_comonotone(RandVar(sp, xs), RandVar(sp, ys), method="sorted") is want

    def test_pairwise_sign_survives_underflow(self):
        # (x0 - x1) * (y0 - y1) = -1e-400 underflows to -0.0, which is >= 0.0
        sp = FiniteSpace([0.5, 0.5])
        x, y = RandVar(sp, [0.0, 1e-200]), RandVar(sp, [1e-200, 0.0])
        assert not is_comonotone(x, y, method="pairwise")
        assert not is_comonotone(x, y, method="sorted")

    def test_unknown_method(self, space3):
        c = RandVar.constant(space3, 0.0)
        with pytest.raises(ValueError):
            is_comonotone(c, c, method="fast")


class TestGenerateComonotonePair:
    def test_contract_on_seeded_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(10000):
            n = int(rng.integers(1, 9))
            w = rng.integers(1, 16, n).astype(float)
            sp = FiniteSpace(w / w.sum())
            pair = generate_comonotone_pair(sp, rng)
            assert is_comonotone(pair.x, pair.y)
            assert is_comonotone(pair.x, pair.driver)
            assert is_comonotone(pair.y, pair.driver)

    def test_reproducible(self, space3):
        p1 = generate_comonotone_pair(space3, seed=42)
        p2 = generate_comonotone_pair(space3, seed=42)
        assert np.array_equal(p1.x.values, p2.x.values)
        assert np.array_equal(p1.y.values, p2.y.values)

    def test_constant_components_occur(self):
        sp = FiniteSpace([0.25, 0.25, 0.25, 0.25])
        rng = np.random.default_rng(13)
        constants = sum(
            generate_comonotone_pair(sp, rng).y.is_constant for _ in range(500)
        )
        assert constants > 0


class TestAdditivityOnComonotone:
    def test_cash_var_passes(self):
        sp = FiniteSpace([0.1, 0.1, 0.8])
        level = Level(0.1)
        report = additivity_on_comonotone(lambda v: var(v, level), sp, trials=800, seed=17)
        assert report.passed

    def test_risky_asset_var_fails_with_sampled_witness(self, space3):
        spec = AcceptanceSpec.var_level(0.05)
        asset = EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0]))
        rho_fn = lambda v: rho(spec, asset, v).value
        report = additivity_on_comonotone(rho_fn, space3, trials=800, seed=19)
        assert not report.passed
        x, y, gap = report.witness["x"], report.witness["y"], report.witness["gap"]
        assert is_comonotone(x, y)
        assert abs(rho_fn(x + y) - rho_fn(x) - rho_fn(y)) == pytest.approx(abs(gap))
        assert abs(gap) > 1e-10

    def test_risk_free_es_passes(self, space3):
        spec = AcceptanceSpec.es_level(0.1)
        asset = EligibleAsset(1.0, RandVar.constant(space3, 2.0))
        rho_fn = lambda v: rho(spec, asset, v).value
        assert additivity_on_comonotone(rho_fn, space3, trials=300, seed=23).passed

    def test_cash_shift_is_priced_linearly(self):
        # additivity with constants in action: rho(x + lam) = rho(x) + lam * rho(1)
        sp = FiniteSpace([0.1, 0.2, 0.7])
        level = Level(0.2)
        rng = np.random.default_rng(29)
        for _ in range(200):
            x = RandVar(sp, rng.integers(-64, 65, 3) / 16)
            lam = float(rng.integers(-16, 17)) / 4
            assert var(x + lam, level) == pytest.approx(
                var(x, level) + lam * var(RandVar.constant(sp, 1.0), level), abs=1e-10
            )


class TestAdditivityOnAssetComonotone:
    def test_risk_free_var_passes(self, space3):
        spec = AcceptanceSpec.var_level(0.05)
        asset = EligibleAsset(1.0, RandVar.constant(space3, 2.0))
        report = additivity_on_S_comonotone(spec, asset)
        assert (report.passed, report.trials) == (True, 1)

    def test_risky_es_two_atoms_fails(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        report = additivity_on_S_comonotone(spec, asset)
        # decided by the constant pair (1, -1)
        assert (report.passed, report.trials) == (False, 1)
        x, y = report.witness["x"], report.witness["y"]
        assert (x.tolist(), y.tolist()) == ([1.0, 1.0], [-1.0, -1.0])
        assert is_comonotone(x, y)
        assert is_comonotone(x, asset.payoff) and is_comonotone(y, asset.payoff)

    def test_near_rf_asset_passes(self):
        # {S1 = 1} has mass 0.9 > alpha and the rest 0.1 <= alpha
        sp = FiniteSpace([0.1, 0.1, 0.8])
        spec = AcceptanceSpec.var_level(0.1)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0, 1.0]))
        report = additivity_on_S_comonotone(spec, asset)
        assert (report.passed, report.trials, report.witness) == (True, 1, None)

    def test_explicit_criterion_raises(self, space3):
        spec = AcceptanceSpec.explicit(lambda v: -float(v.values.min()))
        with pytest.raises(ValueError):
            additivity_on_S_comonotone(spec, EligibleAsset(1.0, RandVar.constant(space3, 1.0)))


#: Values of the brute-force step functions.
STEP_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def brute_force_violation(spec, asset, tol=1e-9):
    """The first pair of nondecreasing step functions of the payoff with a gap over ``tol``.

    Every pair of nondecreasing functions of the payoff levels with values in
    ``STEP_VALUES`` is tried, so the payoff may have at most 3 levels.
    """
    levels = np.unique(asset.payoff.values)
    assert levels.size <= 3
    index = np.searchsorted(levels, asset.payoff.values)
    quotes = {}

    def quote(f):
        if f not in quotes:
            x = RandVar(asset.payoff.space, np.array(f)[index])
            quotes[f] = rho(spec, asset, x, tol=1e-12).value
        return quotes[f]

    steps = list(itertools.combinations_with_replacement(STEP_VALUES, levels.size))
    for f, g in itertools.product(steps, steps):
        if abs(quote(tuple(a + b for a, b in zip(f, g))) - quote(f) - quote(g)) > tol:
            return f, g
    return None


MIX = AcceptanceSpec.distortion_mix(DistortionWeights(((0.2, 0.5), (1.0, 0.5))))


class TestConstantPairFirst:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 20), min_size=1, max_size=7),
        levels=st.lists(st.one_of(st.just(4), st.integers(1, 8)), min_size=7, max_size=7),
        alpha=st.floats(0.05, 0.9),
        kind=st.sampled_from(["var", "var", "var", "es", "mix", "mean"]),
    )
    def test_verdict_equals_the_probe_and_draw_loop(self, weights, levels, alpha, kind):
        # a shared level 4 makes var(S1) + var(-S1) = 0 common, so that both
        # constructed VaR pairs occur
        sp = FiniteSpace([w / sum(weights) for w in weights])
        asset = EligibleAsset(1.0, RandVar(sp, [v / 4 for v in levels[: sp.n_atoms]]))
        spec = {"var": AcceptanceSpec.var_level(alpha), "es": AcceptanceSpec.es_level(alpha),
                "mix": MIX, "mean": AcceptanceSpec.expectation_floor()}[kind]
        report = additivity_on_S_comonotone(spec, asset)
        assert report.trials in (1, 2)
        assert report.passed == probe_and_draw_passes(spec, asset, 60, 3)
        if report.passed:
            return
        x, y, gap = report.witness["x"], report.witness["y"], report.witness["gap"]
        for v in (x, y):
            assert is_comonotone(v, asset.payoff, method="pairwise")
        assert is_comonotone(x, y, method="pairwise")
        rho_fn = lambda v: rho(spec, asset, v, tol=1e-12).value
        assert rho_fn(x + y) - rho_fn(x) - rho_fn(y) == gap
        assert abs(gap) > 1e-9
        if report.trials == 1:  # the constant pair
            assert (x.tolist(), y.tolist()) == ([1.0] * sp.n_atoms, [-1.0] * sp.n_atoms)
        else:  # a constructed VaR pair
            assert kind == "var" and gap > 0


class TestExactDecision:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 20), min_size=2, max_size=6),
        levels=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=6, max_size=6),
        scale=st.sampled_from([1.0, 2.0, 3.0]),
        alpha=st.floats(0.05, 0.9),
    )
    def test_var_verdict_equals_brute_force_on_three_levels(self, weights, levels, scale, alpha):
        sp = FiniteSpace([w / sum(weights) for w in weights])
        asset = EligibleAsset(1.0, RandVar(sp, [scale * v for v in levels[: sp.n_atoms]]))
        spec = AcceptanceSpec.var_level(alpha)
        report = additivity_on_S_comonotone(spec, asset)
        assert report.passed == (brute_force_violation(spec, asset) is None)

    def test_mass_of_s_star_within_the_limit_with_a_far_lower_level(self):
        # on = 1/2 <= L: with s* = 3 more than twice the level 1 below it,
        # X = max(S1, s*) + S1 * 1{S1 > s*} and Y = max(S1, s*) are additive,
        # as Y's ratio is not greatest at s*; the constructed pair is not
        sp = FiniteSpace([0.25, 0.5, 0.25])
        spec = AcceptanceSpec.var_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 3.0, 4.0]))
        rho_fn = lambda v: rho(spec, asset, v).value
        x, y = RandVar(sp, [3.0, 3.0, 8.0]), RandVar(sp, [3.0, 3.0, 4.0])
        assert rho_fn(x + y) == rho_fn(x) + rho_fn(y)
        report = additivity_on_S_comonotone(spec, asset)
        assert (report.passed, report.trials) == (False, 2)
        assert (report.witness["x"].tolist(), report.witness["y"].tolist()) == (
            [0.75, 0.75, 2.0], [0.25, 1.5, 1.5])
        assert report.witness["gap"] == 0.125
        assert brute_force_violation(spec, asset) is not None

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_constructed_pairs_do_not_overflow(self, alpha):
        # off > L at alpha 0.3, on <= L at 0.5; X + Y stays within S1
        sp = FiniteSpace([0.25, 0.5, 0.25])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 1e308, 1.7e308]))
        report = additivity_on_S_comonotone(AcceptanceSpec.var_level(alpha), asset)
        assert (report.passed, report.trials) == (False, 2)
        assert report.witness["gap"] > 0.2

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("top", [1.0, 3.7, 1e3, 1e-3, 2.5])
    def test_es_one_ulp_from_constant_fails_like_corollary_convex(self, top, alpha):
        # the (1, -1) gap is at most ulp-sized, possibly 0.0, but the payoff
        # is nonconstant and ES pointed: the verdict is exact, not the gap
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(alpha)
        asset = EligibleAsset(1.0, RandVar(sp, [top, math.nextafter(top, 0.0)]))
        report = additivity_on_S_comonotone(spec, asset)
        assert not check_corollary_convex(spec, asset).passed
        assert (report.passed, report.trials) == (False, 1)
        assert abs(report.witness["gap"]) <= 1e-9
        assert report.note.startswith("exact decision")

    def test_failed_reverification_raises(self, monkeypatch):
        sp = FiniteSpace([0.25, 0.5, 0.25])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 3.0, 4.0]))
        monkeypatch.setattr(comonotone, "is_comonotone", lambda x, y: False)
        with pytest.raises(ArithmeticError):
            additivity_on_S_comonotone(AcceptanceSpec.var_level(0.5), asset)


class TestNumerairePreservation:
    def test_constant_payoff_preserves(self, space3):
        asset = EligibleAsset(1.0, RandVar.constant(space3, 2.0))
        report = comono_preservation_under_numeraire(asset)
        assert report.passed
        assert report.witness is None
        assert report.trials == 1

    def test_two_atom_witnesses_both_directions(self):
        sp = FiniteSpace([0.5, 0.5])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        report = comono_preservation_under_numeraire(asset)
        assert not report.passed
        fw, rv = report.witness["forward"], report.witness["reverse"]
        assert is_comonotone(fw["x_discounted"], fw["y_discounted"])
        assert not is_comonotone(fw["x"], fw["y"])
        assert not is_comonotone(rv["x_discounted"], rv["y_discounted"])
        assert is_comonotone(rv["x"], rv["y"])

    def test_witness_products_reconstruct(self):
        sp = FiniteSpace([0.2, 0.3, 0.5])
        asset = EligibleAsset(1.0, RandVar(sp, [0.5, 1.5, 2.5]))
        report = comono_preservation_under_numeraire(asset)
        assert not report.passed
        for direction in ("forward", "reverse"):
            w = report.witness[direction]
            assert (w["x_discounted"] * asset.payoff).tolist() == w["x"].tolist()
            assert (w["y_discounted"] * asset.payoff).tolist() == w["y"].tolist()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(payoff_values())
    def test_decided_by_construction(self, values):
        sp = FiniteSpace(np.full(len(values), 1.0 / len(values)))
        asset = EligibleAsset(1.0, RandVar(sp, values))
        report = comono_preservation_under_numeraire(asset)
        assert report.passed == (len(set(values)) == 1)
        assert report.trials == 1
        if report.passed:
            return
        for direction, discounted_comonotone in (("forward", True), ("reverse", False)):
            w = report.witness[direction]
            for method in ("sorted", "pairwise"):
                assert is_comonotone(
                    w["x_discounted"], w["y_discounted"], method=method
                ) == discounted_comonotone
                assert is_comonotone(w["x"], w["y"], method=method) != discounted_comonotone
            assert (w["x_discounted"] * asset.payoff).tolist() == w["x"].tolist()
            assert (w["y_discounted"] * asset.payoff).tolist() == w["y"].tolist()

    def test_failed_reverification_raises(self, monkeypatch):
        sp = FiniteSpace([0.5, 0.5])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        monkeypatch.setattr(comonotone, "is_comonotone", lambda x, y: True)
        with pytest.raises(ArithmeticError):
            comono_preservation_under_numeraire(asset)
