"""Tests for acceptance sets, membership, and the exact structural-property decisions."""

import math
from fractions import Fraction
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
    check_corollary_convex,
    decide_cone,
    decide_convex,
    decide_monotone,
    decide_risk_invariant,
    distortion,
    es,
    expectation,
    rho,
    rho_cash,
    var,
    var_loss_limit,
)

import sampling as smp


def _boundary_member(spec: AcceptanceSpec, space: FiniteSpace, rng: np.random.Generator) -> RandVar | None:
    """Random acceptable position shifted to the boundary of acceptability.

    For built-in kinds the functional is cash additive, so adding its value
    as a constant lands the position at functional value 0; a geometric
    nudge absorbs the rare rounding residue that leaves the shifted position
    a hair outside.  Returns None when no acceptable position is found
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
    x = y + m
    step = 1e-12 * max(1.0, abs(m), x.max_abs)
    for _ in range(64):
        if accepts(spec, x):
            return x
        x = x + step
        step *= 2.0
    return None


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

    def test_explicit_needs_functional(self):
        with pytest.raises(ValueError, match="kind 'explicit' needs a functional"):
            AcceptanceSpec("explicit")

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
        # linear or not, a risky payoff takes Newton's certified bracket
        assert rho(spec, asset, x).method == "newton"
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
        # the invariant of a convex conic criterion leaves requirements flat
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.expectation_floor()
        w = decide_risk_invariant(spec, sp).witness["w"]
        rng = np.random.default_rng(14)
        for _ in range(200):
            y = RandVar(sp, rng.integers(-64, 65, 2) / 16)
            assert rho_cash(spec, y + w) == pytest.approx(rho_cash(spec, y), abs=1e-10)


class TestPointedDistortion:
    def test_distortion_off_one_has_no_invariant(self, space3):
        mu = DistortionWeights(((0.2, 0.5), (1.0, 0.5)))
        spec = AcceptanceSpec.distortion_mix(mu)
        report = decide_risk_invariant(spec, space3)
        assert report.passed and report.trials == 1
        assert "pointed criterion" in report.note


#: Built-in kinds other than VaR: pointed ES and mixtures, and the linear ones.
CONVEX_SPECS = [
    AcceptanceSpec.es_level(0.1),
    AcceptanceSpec.es_level(0.4),
    AcceptanceSpec.distortion_mix(DistortionWeights(((0.2, 0.5), (1.0, 0.5)))),
    AcceptanceSpec.distortion_mix(DistortionWeights(((0.0, 0.3), (0.6, 0.7)))),
    AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),))),
    AcceptanceSpec.expectation_floor(),
]


@st.composite
def var_events(draw):
    """1-7 integer weights, an event, and alpha drawn freely or exactly at a subset mass."""
    weights = draw(st.lists(st.integers(1, 20), min_size=1, max_size=7))
    event = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
    subset = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
    mass = sum(w for w, b in zip(weights, subset) if b)
    at_mass = 0 < mass < sum(weights) and draw(st.booleans())
    alpha = mass / sum(weights) if at_mass else draw(st.sampled_from([0.05, 0.1, 0.25, 0.4, 0.6]))
    return weights, [i for i, b in enumerate(event) if b], alpha


def _var_space(weights):
    return FiniteSpace([w / sum(weights) for w in weights])


def _dyadic_space(numerators):
    """Probabilities k / 2^m with short numerators: every product in the float mean is exact."""
    total = sum(numerators)
    den = 1 << total.bit_length()
    return FiniteSpace([k / den for k in numerators[:-1]] + [1.0 - (total - numerators[-1]) / den])


#: Scales the cone property is checked at, 0 included, before a drawn one.
SCALES = (0.0, 0.5, 2.0, 7.5)

#: Interior margin of the ES, mixture and mean members: their float
#: functional is not exactly conic at the boundary itself.
MARGIN = 1e-9


@st.composite
def set_cases(draw):
    """1-7 atoms with dyadic or float weights, a grid draw, a nonnegative bump, an event, a scale."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        sp = _dyadic_space(draw(st.lists(st.integers(1, 15), min_size=n, max_size=n)))
    else:
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        sp = FiniteSpace([w / math.fsum(weights) for w in weights])
    grid = st.lists(st.integers(-256, 256), min_size=n, max_size=n)
    y = RandVar(sp, [k / 64 for k in draw(grid)])
    bump = RandVar(sp, [abs(k) / 64 for k in draw(grid)])
    event = [i for i in range(n) if draw(st.booleans())]
    return sp, y, bump, event, draw(st.floats(0.0, 4.0))


def _assert_monotone_and_conic(spec, x, bump, t):
    assert accepts(spec, x + bump)
    for s in (*SCALES, t):
        assert accepts(spec, s * x)


class TestDecideMonotoneAndCone:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        case=set_cases(),
        c=st.sampled_from([1.0, 0.75, 3.0, 1e-300, 5e-324]),
        at_mass=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_var_membership_is_exactly_monotone_and_conic(self, case, c, at_mass, seed):
        # boundary members: a loss event at the loss limit (alpha at its
        # mass), the draw and a random draw shifted by their value-at-risk;
        # c = 5e-324 makes t * x underflow to a zero, which is never a loss
        sp, y, bump, event, t = case
        nums, den = sp.int_probs
        mass = sum(nums[i] for i in event)
        alpha = mass / den if at_mass and 0 < mass < sum(nums) else 0.1
        spec = AcceptanceSpec.var_level(alpha)
        candidates = [
            -c * RandVar.indicator(sp, event),
            y + spec.functional_value(y),
            _boundary_member(spec, sp, np.random.default_rng(seed)),
        ]
        for x in candidates:
            if x is not None and accepts(spec, x):
                _assert_monotone_and_conic(spec, x, bump, t)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=set_cases(), index=st.integers(0, len(CONVEX_SPECS) - 1))
    def test_convex_kinds_are_monotone_and_conic_inside_the_margin(self, case, index):
        sp, y, bump, _, t = case
        spec = CONVEX_SPECS[index]
        x = y + (spec.functional_value(y) + 2 * MARGIN)
        assert spec.functional_value(x) <= -MARGIN
        _assert_monotone_and_conic(spec, x, bump, t)

    @pytest.mark.parametrize("spec", [AcceptanceSpec.var_level(0.1), *CONVEX_SPECS])
    def test_every_builtin_kind_passes(self, spec):
        for decide, name in ((decide_monotone, "monotone"), (decide_cone, "cone")):
            report = decide(spec)
            assert (report.name, report.passed, report.trials) == (name, True, 1)
            assert report.witness is None and report.note

    def test_oracle_catches_an_increasing_set_that_is_not_monotone(self, space3):
        # the property oracle has teeth: adding a nonnegative bump to a member
        # of {E[X] <= 0} leaves the set
        spec = AcceptanceSpec.explicit(expectation)
        x = RandVar(space3, [-1.0, 0.0, 0.0])
        assert accepts(spec, x)
        with pytest.raises(AssertionError):
            _assert_monotone_and_conic(spec, x, RandVar.constant(space3, 1.0), 1.0)

    def test_oracle_catches_a_shifted_var_set_at_the_origin(self, space3):
        # VaR + 1 accepts only positions with a margin, so 0 * x leaves the set
        spec = AcceptanceSpec.explicit(lambda x: var(x, Level(0.1)) + 1.0)
        x = RandVar.constant(space3, 2.0)
        assert accepts(spec, x) and not accepts(spec, 0.0 * x)
        with pytest.raises(AssertionError):
            _assert_monotone_and_conic(spec, x, RandVar.constant(space3, 0.0), 1.0)

    @pytest.mark.parametrize("decide", [decide_monotone, decide_cone])
    def test_explicit_criterion_is_rejected(self, decide):
        # an increasing functional: its set is not monotone, and nothing decides that
        spec = AcceptanceSpec.explicit(expectation)
        with pytest.raises(ValueError, match="built-in"):
            decide(spec)


class TestVarLossLimit:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=var_events())
    def test_accepts_a_loss_event_iff_its_mass_is_within_the_limit(self, case):
        weights, event, alpha = case
        sp = _var_space(weights)
        spec = AcceptanceSpec.var_level(alpha)
        nums, _ = sp.int_probs
        loss = -RandVar.indicator(sp, event)
        assert accepts(spec, loss) == (sum(nums[i] for i in event) <= var_loss_limit(spec, sp))

    def test_the_whole_space_is_never_within_the_limit(self):
        # renormalized, these probabilities sum to 1 - 1.2e-16, below the
        # float under 1, yet accepts pins the last cumulative probability to 1
        sp = FiniteSpace([0.8122046874816008, 0.11644624885508681, 0.07134906366331253])
        spec = AcceptanceSpec.var_level(math.nextafter(1.0, 0.0))
        nums, den = sp.int_probs
        assert Fraction(sum(nums), den) < spec.level.alpha
        assert not accepts(spec, RandVar.constant(sp, -1.0))
        assert var_loss_limit(spec, sp) == sum(nums) - 1

    def test_alpha_exactly_at_the_small_atom_mass(self):
        # lemma_two_atom.json: the atom of mass 0.1 may be lost at alpha 0.1
        sp = FiniteSpace([0.1, 0.9])
        spec = AcceptanceSpec.var_level(0.1)
        assert var_loss_limit(spec, sp) == sp.int_probs[0][0]
        assert accepts(spec, -RandVar.indicator(sp, [0]))


class TestDecideConvex:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=var_events())
    def test_var_verdict_matches_union_closure_oracle(self, case):
        # VaR membership depends only on the loss event, and a blend loses at
        # most the union of its parts' losses: convex iff the accepted events
        # are closed under union
        weights, _, alpha = case
        sp = _var_space(weights)
        spec = AcceptanceSpec.var_level(alpha)
        n = sp.n_atoms
        accepted = [
            mask for mask in range(2 ** n)
            if accepts(spec, -RandVar.indicator(sp, [i for i in range(n) if mask >> i & 1]))
        ]
        members = set(accepted)
        closed = all(a | b in members for a in accepted for b in accepted)
        report = decide_convex(spec, sp)
        assert report.passed == closed
        assert report.trials == 1
        if not report.passed:
            x, y, t = report.witness["x"], report.witness["y"], report.witness["t"]
            assert accepts(spec, x) and accepts(spec, y)
            assert not accepts(spec, t * x + (1.0 - t) * y)

    def test_var_fails_with_witness(self, space3, a_var):
        # atoms 0 and 1 may each be lost alone at alpha 0.1, but not together
        report = decide_convex(a_var, space3)
        assert not report.passed and report.trials == 1
        x, y, t = report.witness["x"], report.witness["y"], report.witness["t"]
        assert (x.tolist(), y.tolist(), t) == ([-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], 0.5)
        assert accepts(a_var, x) and accepts(a_var, y)
        assert not accepts(a_var, t * x + (1.0 - t) * y)

    def test_var_passes_when_the_single_losses_add_up(self):
        # atoms 0 and 1 may be lost alone and together, atom 2 never
        sp = FiniteSpace([0.05, 0.05, 0.9])
        spec = AcceptanceSpec.var_level(0.1)
        report = decide_convex(spec, sp)
        assert report.passed and report.witness is None
        assert accepts(spec, -RandVar.indicator(sp, [0, 1]))

    def test_large_var_space_the_pair_probes_miss_now_fails(self):
        # 100 atoms of weight 1-49 at alpha 0.1: every pair of atoms may be lost
        # together, so the sampled check's pair probes all pass, but the
        # atoms that may be lost alone may not all be lost together
        weights = np.random.default_rng(100).integers(1, 50, 100)
        sp = _var_space(weights.tolist())
        spec = AcceptanceSpec.var_level(0.1)
        report = decide_convex(spec, sp)
        assert not report.passed and report.trials == 1
        x, y, blend = report.witness["x"], report.witness["y"], report.witness["blend"]
        assert accepts(spec, x) and accepts(spec, y) and not accepts(spec, blend)
        lost = np.flatnonzero(x.values < 0.0)
        (atom,) = np.flatnonzero(y.values < 0.0)
        # E is a prefix of the atoms in ascending probability; atom is next
        nums, _ = sp.int_probs
        order = sorted(range(sp.n_atoms), key=nums.__getitem__)
        assert order[: lost.size + 1] == sorted(lost, key=nums.__getitem__) + [atom]

    def test_explicit_criterion_is_rejected(self, space3):
        spec = AcceptanceSpec.explicit(lambda x: var(x, Level(0.1)))
        with pytest.raises(ValueError, match="built-in"):
            decide_convex(spec, space3)


class TestDecideRiskInvariant:
    def test_var_has_invariant(self, space3, a_var):
        report = decide_risk_invariant(a_var, space3)
        assert not report.passed
        w = report.witness["w"]
        assert w.tolist() == [1.0, 0.0, 0.0] and accepts(a_var, w) and accepts(a_var, -w)

    def test_var_invariant_on_a_single_small_atom(self):
        # only atom 0 may be lost at alpha 0.1, so no pair of atoms is an invariant
        sp = FiniteSpace([0.05, 0.475, 0.475])
        spec = AcceptanceSpec.var_level(0.1)
        report = decide_risk_invariant(spec, sp)
        assert not report.passed
        w = report.witness["w"]
        assert w.tolist() == [1.0, 0.0, 0.0] and accepts(spec, w) and accepts(spec, -w)

    def test_es_has_no_invariant(self, space3, a_es):
        report = decide_risk_invariant(a_es, space3)
        assert report.passed and report.trials == 1
        assert "pointed criterion" in report.note
        # pointedness on the indicator probes: ES(W) + ES(-W) > 0
        for i, j in product(range(3), repeat=2):
            if i != j:
                w = RandVar.indicator(space3, [i]) - RandVar.indicator(space3, [j])
                assert a_es.functional_value(w) + a_es.functional_value(-w) > 0.0

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
        decided = decide_risk_invariant(spec, sp)
        assert decided.passed == (not exists)
        assert decided.trials == 1
        if exists:
            w = decided.witness["w"]
            (atom,) = np.flatnonzero(w.values)
            assert w.values[atom] == 1.0 and accepts(spec, w) and accepts(spec, -w)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        numerators=st.lists(st.integers(1, 15), min_size=1, max_size=7),
        index=st.integers(0, len(CONVEX_SPECS) - 1),
        grid=st.lists(st.integers(-256, 256), min_size=14, max_size=14),
        t=st.floats(0.0, 1.0),
    )
    def test_convex_kinds_agree_with_sampled_oracles(self, numerators, index, grid, t):
        # dyadic probabilities, so the float mean of a grid draw is exact
        sp = _dyadic_space(numerators)
        n = sp.n_atoms
        spec = CONVEX_SPECS[index]
        x, y = RandVar(sp, [k / 64 for k in grid[:n]]), RandVar(sp, [k / 64 for k in grid[7:7 + n]])
        assert decide_convex(spec, sp).passed
        # blends of members inside the margin stay members
        xm, ym = (z + (spec.functional_value(z) + 2 * MARGIN) for z in (x, y))
        assert accepts(spec, t * xm + (1.0 - t) * ym)
        decided = decide_risk_invariant(spec, sp)
        assert decided.passed == (spec.is_pointed_kind or n == 1)
        if spec.is_pointed_kind:
            # pointedness: F(X) + F(-X) > 0 on every nonconstant draw
            for z in (x, y):
                if not z.is_constant:
                    assert spec.functional_value(z) + spec.functional_value(-z) > 0.0
        elif not decided.passed:
            # linear: the witness is nonzero and has mean zero in exact rationals
            w = decided.witness["w"]
            nums, _ = sp.int_probs
            assert w.max_abs > 0.0
            assert sum(k * Fraction(v) for k, v in zip(nums, w.tolist())) == 0

    def test_expectation_has_invariant(self):
        sp = FiniteSpace([0.5, 0.5])
        report = decide_risk_invariant(AcceptanceSpec.expectation_floor(), sp)
        assert not report.passed
        w = report.witness["w"]
        assert expectation(w) == 0.0 and w.max_abs > 0

    def test_expectation_witness_is_mean_zero_in_exact_rationals(self):
        # p_0 * p_1 is inexact here, and the float mean of the witness keeps
        # its rounding residue under a fused multiply-add; the sampled search
        # can miss every invariant, but the decision reads the exact mean
        sp = FiniteSpace([0.1, 0.3, 0.6])
        for spec in CONVEX_SPECS[-2:]:
            report = decide_risk_invariant(spec, sp)
            assert not report.passed and report.trials == 1
            w = report.witness["w"]
            nums, _ = sp.int_probs
            assert w.tolist() == [0.3, -0.1, 0.0]
            assert sum(n * Fraction(v) for n, v in zip(nums, w.tolist())) == 0

    def test_explicit_criterion_has_no_decision(self, space3):
        with pytest.raises(ValueError, match="built-in"):
            decide_risk_invariant(AcceptanceSpec.explicit(expectation), space3)

    def test_expectation_on_one_atom_has_no_invariant(self):
        sp = FiniteSpace([1.0])
        assert decide_risk_invariant(AcceptanceSpec.expectation_floor(), sp).passed
