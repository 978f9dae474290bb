"""Tests for the eligible-asset requirement solver and numeraire transforms."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eligirisk import (
    AcceptanceSpec,
    BracketExpansionError,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    RiskQuote,
    SpaceMismatchError,
    accepts,
    cash_asset,
    change_numeraire,
    discounted_acceptance,
    es,
    es_choquet_oracle,
    essential_infimum,
    expectation,
    find_additivity_violation,
    rho,
    rho_cash,
    shortfall_and_slope,
)
from eligirisk import engine, spaces
from eligirisk.engine import MAX_NEWTON_STEPS, default_tol

import sampling as smp
from identity_audits import (
    S_ADDITIVITY_LAMBDAS,
    _audit_positions,
    _payoff_steps,
    numeraire_identity_check,
    s_additivity_check,
)
from two_pass import two_pass_value_and_slope, walk_with_starts


@pytest.fixture
def space3():
    return FiniteSpace([0.05, 0.05, 0.9])


@pytest.fixture
def asset3(space3):
    return EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0]))


@pytest.fixture
def a_var05():
    return AcceptanceSpec.var_level(0.05)


class TestEligibleAsset:
    def test_rejects_nonpositive_price(self, space3):
        with pytest.raises(ValueError):
            EligibleAsset(0.0, RandVar.constant(space3, 1.0))

    def test_rejects_infinite_price(self, space3):
        with pytest.raises(ValueError, match="finite"):
            EligibleAsset(math.inf, RandVar.constant(space3, 1.0))

    def test_rejects_payoff_touching_zero(self, space3):
        with pytest.raises(ValueError):
            EligibleAsset(1.0, RandVar(space3, [1.0, 0.0, 2.0]))

    def test_risk_free_flag(self, space3):
        assert EligibleAsset(2.0, RandVar.constant(space3, 3.0)).risk_free
        assert not EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0])).risk_free

    def test_eps(self, space3):
        assert EligibleAsset(1.0, RandVar(space3, [0.5, 2.0, 1.0])).eps == 0.5


class TestRhoClosedForm:
    def test_superadditive_triple(self, space3, asset3, a_var05):
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        y = RandVar(space3, [-4.0, -9.0, 0.0])
        assert rho(a_var05, asset3, x).value == pytest.approx(1.5, abs=1e-12)
        assert rho(a_var05, asset3, y).value == pytest.approx(4.0, abs=1e-12)
        assert rho(a_var05, asset3, x + y).value == pytest.approx(6.0, abs=1e-12)
        assert rho(a_var05, asset3, x).method == "closed_form"

    def test_risk_free_reduction(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(2.0, RandVar.constant(sp, 3.0))
        x = RandVar(sp, [0.0, -1.0])
        assert rho_cash(spec, x) == pytest.approx(1.0, abs=1e-12)
        quote = rho(spec, asset, x)
        assert quote.method == "closed_form"
        assert quote.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_position_is_exactly_zero(self, space3, asset3):
        specs = [
            AcceptanceSpec.var_level(0.05),
            AcceptanceSpec.es_level(0.05),
            AcceptanceSpec.expectation_floor(),
            AcceptanceSpec.distortion_mix(DistortionWeights(((0.1, 0.5), (1.0, 0.5)))),
        ]
        for zero in (RandVar.constant(space3, 0.0), RandVar(space3, [0.0, -0.0, -0.0])):
            for spec in specs:
                quote = rho(spec, asset3, zero)
                assert quote == RiskQuote(0.0, "closed_form", 0, 0.0)
                assert math.copysign(1.0, quote.value) == 1.0


class TestRhoBisection:
    def test_two_atom_es(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        quote = rho(spec, asset, RandVar(sp, [0.0, -1.0]), tol=1e-11)
        assert quote.method == "newton"
        assert quote.value == pytest.approx(0.5, abs=1e-11)
        assert quote.bracket_width <= 1e-11
        assert 0.5 <= quote.value  # upper endpoint dominates the infimum

    def test_rejects_nonpositive_tol(self, space3, asset3, a_var05):
        with pytest.raises(ValueError):
            rho(a_var05, asset3, RandVar.constant(space3, 1.0), tol=0.0)

    def test_rejects_infinite_tol(self, space3, asset3, a_var05):
        with pytest.raises(ValueError, match="finite"):
            rho(a_var05, asset3, RandVar.constant(space3, 1.0), tol=math.inf)

    def test_rejects_unknown_method(self, space3, asset3, a_var05):
        with pytest.raises(ValueError):
            rho(a_var05, asset3, RandVar.constant(space3, 1.0), method="newton")

    @pytest.mark.parametrize(
        "functional, message",
        [
            (expectation, "no acceptable capital level found; functional is not decreasing"),
            (lambda x: -1.0, "every capital level is acceptable; criterion is not proper"),
        ],
        ids=["never-acceptable", "always-acceptable"],
    )
    def test_bracket_failure_for_non_decreasing_functional(self, space3, asset3, functional, message):
        broken = AcceptanceSpec.explicit(functional)
        with pytest.raises(BracketExpansionError, match=message):
            rho(broken, asset3, RandVar.constant(space3, 1.0), tol=1e-9)

    def test_agrees_with_closed_form_on_var(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = rng.integers(1, 64, n).astype(float)
            sp = FiniteSpace(w / w.sum())
            spec = AcceptanceSpec.var_level(float(rng.uniform(0.05, 0.6)))
            payoff = RandVar(sp, rng.integers(8, 129, n) / 32)
            asset = EligibleAsset(float(rng.integers(1, 9)) / 4, payoff)
            x = RandVar(sp, rng.integers(-256, 257, n) / 64)
            tol = 1e-10
            exact = rho(spec, asset, x, tol=tol).value
            numeric = rho(spec, asset, x, tol=tol, method="bisection")
            assert numeric.method == "bisection"
            assert abs(numeric.value - exact) <= tol

    def test_determinism(self):
        sp = FiniteSpace([0.5, 0.5])
        spec = AcceptanceSpec.es_level(0.5)
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        x = RandVar(sp, [0.0, -1.0])
        q1 = rho(spec, asset, x, tol=1e-12)
        q2 = rho(spec, asset, x, tol=1e-12)
        assert q1 == q2


#: ES levels and mixtures with a risky payoff: the quotes that run Newton.
#: ``MIX`` is the benchmark's mixture; ``ENDS`` uses both boundary levels.
MIX = ((0.01, 0.5), (0.1, 0.3), (0.5, 0.2))
ENDS = ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))
#: The two linear criteria, the expectation floor and the pure-expectation
#: mixture, come last so that the pinned ``which`` indices hold.
NEWTON_SPECS = [AcceptanceSpec.es_level(a) for a in (0.05, 0.1, 0.25, 0.5, 0.9)] + [
    AcceptanceSpec.distortion_mix(DistortionWeights(MIX)),
    AcceptanceSpec.distortion_mix(DistortionWeights(ENDS)),
    AcceptanceSpec.expectation_floor(),
    AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),))),
]


def choquet_oracle(spec, y):
    """The criterion by the Choquet sums of ``es_choquet_oracle`` (boundary levels closed form)."""
    return math.fsum(
        w * (
            -essential_infimum(y) if a == 0.0 else -expectation(y) if a == 1.0
            else es_choquet_oracle(y, Level(a))
        )
        for a, w in spec.weights.points
    )


class TestNewton:
    """Every ES and distortion quote with a risky payoff is a certified Newton bracket."""

    def test_expectation_kind_matches_the_mean_ratio(self, space3):
        # g is linear with slope -E[S1]: one step lands on -E[X] / E[S1]
        spec = AcceptanceSpec.expectation_floor()
        asset = EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0]))
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        quote = rho(spec, asset, x)
        assert quote.method == "newton"
        expected = -expectation(x) / expectation(asset.payoff)
        tol = default_tol(asset, x)
        assert abs(quote.value - expected) <= tol
        assert 0.0 < quote.bracket_width <= tol
        assert accepts(spec, x + quote.value * asset.payoff)
        assert not accepts(spec, x + (quote.value - quote.bracket_width) * asset.payoff)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(st.integers(1, 16), st.integers(-16, 16), st.integers(1, 8)),
            min_size=2, max_size=8,
        ),
        price=st.integers(1, 4),
        which=st.integers(0, len(NEWTON_SPECS) - 1),
    )
    # g(0) = 0 exactly: no step, hi = 0, the probe at -tol gives lo
    @example(atoms=[(16, 6, 3), (8, -3, 5)], price=1, which=6)
    # first step from a rejected m = 0 lands one ulp over the root (the oracle's worst case)
    @example(atoms=[(12, -6, 6), (1, 4, 5)], price=2, which=0)
    # a long first step overshoots the root -4 by eight ulps; the probe certifies
    @example(atoms=[(8, 11, 1), (12, 14, 7)], price=4, which=1)
    # the step from an accepted m = 0 lands on the root: no rejected iterate, the probe gives lo
    @example(atoms=[(9, 16, 8), (13, 1, 2)], price=1, which=3)
    # float noise rejects the root; the next float is accepted, so lo and hi are adjacent
    @example(atoms=[(3, 9, 7), (6, 10, 6)], price=3, which=6)
    # a step too small to move m, after a tiny one: progress by the next float
    @example(atoms=[(15, 10, 5), (6, 2, 6)], price=4, which=6)
    # hi - (hi - tol) rounds above tol: the probe moves up one float
    @example(atoms=[(2, -4, 7), (7, 9, 3)], price=1, which=5)
    def test_certified_and_agrees_with_oracles(self, atoms, price, which):
        weights, xs, pays = zip(*atoms)
        sp = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        x = RandVar(sp, np.array(xs) / 4)
        payoff = RandVar(sp, np.array(pays) / 4)
        assume(not payoff.is_constant and x.max_abs > 0.0)  # else a closed form applies
        asset = EligibleAsset(price / 2, payoff)
        spec = NEWTON_SPECS[which]
        tol = default_tol(asset, x)

        def shift(m):
            return x + (m / asset.price) * payoff

        quote = rho(spec, asset, x)
        hi, width = quote.value, quote.bracket_width
        assert quote.method == "newton"
        assert quote.iterations <= MAX_NEWTON_STEPS  # no fallback to the halving loop
        assert 0.0 < width <= tol
        assert accepts(spec, shift(hi))
        assert not accepts(spec, shift(hi - width))
        assert abs(hi - rho(spec, asset, x, method="bisection").value) <= tol
        # Newton lands on the root up to the rounding of its steps, which move
        # the position by at most max|X| * max S1 / eps
        scale = x.max_abs * float(np.max(payoff.values)) / asset.eps
        assert abs(choquet_oracle(spec, shift(hi))) <= 4 * sp.n_atoms * math.ulp(scale)

    def test_overshoot_wider_than_tol_is_halved(self):
        # the long first step lands eight ulps over the root -4; at tol 1e-15
        # the probe at hi - tol is accepted, the walk down by doubling steps
        # finds a rejected level near the root, and a few halvings close the bracket
        sp = FiniteSpace([0.4, 0.6])
        x = RandVar(sp, [2.75, 3.5])
        asset = EligibleAsset(2.0, RandVar(sp, [0.25, 1.75]))
        spec = AcceptanceSpec.es_level(0.1)

        def shift(m):
            return x + (m / asset.price) * asset.payoff

        assert rho(spec, asset, x).value == -3.9999999999999964
        quote = rho(spec, asset, x, tol=1e-15)
        assert (quote.method, quote.value) == ("newton", -4.0)
        assert quote.iterations <= 8
        assert 0.0 < quote.bracket_width <= 1e-15
        assert accepts(spec, shift(quote.value))
        assert not accepts(spec, shift(quote.value - quote.bracket_width))

    def test_tol_finer_than_the_float_grid_gives_adjacent_floats(self):
        # below 125 the float spacing is 1.4e-14, so no float lies within tol
        # 1e-14 under hi = 125: the probe is hi itself, and the walk down
        # starts from one ulp
        sp = FiniteSpace([0.5, 0.5])
        x = RandVar(sp, [-125.0, -145.0])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        spec = AcceptanceSpec.es_level(0.5)

        def shift(m):
            return x + (m / asset.price) * asset.payoff

        quote = rho(spec, asset, x, tol=1e-14)
        assert (quote.method, quote.value) == ("newton", 125.0)
        assert quote.iterations <= 8
        # the contract: width at most max(tol, ulp(value)), here one ulp over tol
        assert quote.bracket_width == math.ulp(125.0) > 1e-14
        assert 0.0 < quote.bracket_width <= max(1e-14, math.ulp(quote.value))
        assert quote.value - quote.bracket_width == math.nextafter(125.0, -math.inf)
        assert accepts(spec, shift(quote.value))
        assert not accepts(spec, shift(quote.value - quote.bracket_width))

    def test_step_that_leaves_the_position_unchanged_moves_by_its_rounding_scale(self):
        # near the root m ~ -27.5 the float spacing of m (3.6e-15) is far below
        # that of the position (|Y| ~ 1055, 2.3e-13): Newton's last step moved m
        # by one float and left every atom, hence g, unchanged.  The parent
        # crawled one float at a time for 10 steps, evaluating 4 distinct
        # positions out of 11; -27.53124187940665 is the least acceptable float
        sp = FiniteSpace(np.array([4.0, 8.0, 9.0]) / 21)
        x = RandVar(sp, [-1000.0, 1000 / 3, 1000 / 3])
        asset = EligibleAsset(1.0, RandVar(sp, [2.0, 1.0, 0.5]))
        spec = AcceptanceSpec.distortion_mix(
            DistortionWeights(((0.67, 1 / 3), (0.92, 1 / 3), (0.99, 1 / 3)))
        )

        def shift(m):
            return x + (m / asset.price) * asset.payoff

        quote = rho(spec, asset, x)
        assert quote.method == "newton"
        assert quote.iterations <= 3
        assert 0.0 < quote.bracket_width <= default_tol(asset, x)
        assert accepts(spec, shift(quote.value))
        assert not accepts(spec, shift(quote.value - quote.bracket_width))
        least = -27.53124187940665
        assert not accepts(spec, shift(math.nextafter(least, -math.inf)))
        assert quote.value - quote.bracket_width < least <= quote.value


def slope_oracle(spec, y, payoff):
    """Exact right slope: Choquet weights as increments of min(cum / alpha, 1) in Fractions.

    Atoms sort by (Y, S1), both ascending; ``cum`` is an exact integer sum
    over ``int_probs``.  Level 0 puts its weight on the first atom, level 1
    on every atom in proportion to its probability (the same increments,
    since cum / 1 never exceeds 1).
    """
    nums, den = y.space.int_probs
    ys, pays = y.tolist(), payoff.tolist()
    order = sorted(range(len(ys)), key=lambda i: (ys[i], pays[i]))
    total = Fraction(0)
    for alpha, weight in spec.weights.points:
        acc, prev = 0, Fraction(0)
        for i in order:
            acc += nums[i]
            g = Fraction(1) if alpha == 0.0 else min(Fraction(acc, den) / Fraction(alpha), Fraction(1))
            total += Fraction(weight) * (g - prev) * Fraction(pays[i])
            prev = g
    return -total


def value_and_slope(spec, y, payoff, kernel=shortfall_and_slope):
    """Newton's pricing of one iterate: ``kernel`` with the payoff terms of a quote."""
    mass = (y.space.probs * payoff.values).tolist()
    return kernel(y.space, y.values, spec.weights, payoff.tolist(), mass, expectation(payoff))


SLOPE_LEVELS = (0.0, 0.05, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0)

#: Means, a level-1 mixture's Newton quotes, the Choquet ES oracle and the pinned
#: slope on random inputs of 2-63 atoms, printed in hex: the float dot of BLAS
#: differs by kernel here.
KERNEL_PROBE = """
import numpy as np
from eligirisk import AcceptanceSpec, DistortionWeights, EligibleAsset, FiniteSpace, RandVar, expectation, rho
from eligirisk.measures import Level, es_choquet_oracle, shortfall_and_slope
rng = np.random.default_rng(21)
mix = AcceptanceSpec.distortion_mix(DistortionWeights(((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))))
out = []
for _ in range(200):
    n = int(rng.integers(2, 64))
    w = rng.random(n) + 0.01
    space = FiniteSpace(w / w.sum())
    x = RandVar(space, rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-5, 4, n))
    asset = EligibleAsset(1.0, RandVar(space, rng.uniform(0.5, 2.0, n)))
    out += [expectation(x).hex(), rho(mix, asset, x).value.hex(), es_choquet_oracle(x, Level(0.9)).hex()]
sp = FiniteSpace(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]) / 25)
y = np.array([0.5, -1.25, 0.5, -1.25, 2.0, 0.5, -1.25])
payoff = RandVar(sp, [1.5, 0.75, 0.25, 2.0, 1.0, 3.0, 0.5])
mass = (sp.probs * payoff.values).tolist()
out.append(shortfall_and_slope(sp, y, mix.weights, payoff.tolist(), mass, expectation(payoff))[1].hex())
print(" ".join(out))
"""


def test_blas_kernels_give_the_same_results():
    # every x86-64 runner has both kernels; the mean is an exact dot rounded
    # once, so no value depends on the one OpenBLAS picks for the CPU
    outputs = [
        subprocess.run(
            [sys.executable, "-c", KERNEL_PROBE], capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_CORETYPE": kernel},
        ).stdout
        for kernel in ("Sandybridge", "Haswell")
    ]
    assert len(outputs[0].split()) == 601
    assert outputs[0] == outputs[1]


class TestRightSlope:
    """Newton's pricing of one iterate: the functional value and its right slope along S1."""

    def test_tied_mixture_slopes_are_pinned(self):
        # the ties at Y = -1.25 and Y = 0.5 order by payoff; every pin is the
        # correctly rounded exact slope.  ES at 0.5 reaches 0.5 inside the run
        # of three tied Y = 0.5 atoms with distinct payoffs; ES at 0.9 ends on
        # the last run, whose cum is pinned to 1
        sp = FiniteSpace(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]) / 25)
        y = RandVar(sp, [0.5, -1.25, 0.5, -1.25, 2.0, 0.5, -1.25])
        payoff = RandVar(sp, [1.5, 0.75, 0.25, 2.0, 1.0, 3.0, 0.5])
        mix, ends = (AcceptanceSpec.distortion_mix(DistortionWeights(w)) for w in (MIX, ENDS))
        es05, es09 = (AcceptanceSpec.es_level(a) for a in (0.5, 0.9))
        for spec, pin in (
            (mix, "-0x1.451eb851eb852p-1"),
            (ends, "-0x1.1666666666666p+0"),
            (es05, "-0x1.199999999999ap+0"),
            (es09, "-0x1.b8e38e38e38e3p+0"),
        ):
            slope = value_and_slope(spec, y, payoff)[1]
            assert slope == float(slope_oracle(spec, y, payoff))
            assert slope.hex() == pin
        assert float(slope_oracle(mix, y, payoff)) == -0.635

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(
            # payoffs from 8 values often tie within a run of Y, which then orders by payoff
            st.tuples(st.integers(1, 16), st.integers(-3, 3), st.integers(1, 8) | st.integers(1, 64)),
            min_size=1, max_size=16,
        ),
        levels=st.lists(st.sampled_from(SLOPE_LEVELS), min_size=1, max_size=3, unique=True),
        level_weights=st.lists(st.integers(1, 9), min_size=3, max_size=3),
        as_es=st.booleans(),
    )
    def test_matches_exact_choquet_weights(self, atoms, levels, level_weights, as_es):
        weights, ys, pays = zip(*atoms)
        sp = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        y = RandVar(sp, np.array(ys) / 2)  # few values: ties are common
        payoff = RandVar(sp, np.array(pays) / 8)
        if as_es and 0.0 < levels[0] < 1.0:
            spec = AcceptanceSpec.es_level(levels[0])
        else:
            total = sum(level_weights[: len(levels)])
            spec = AcceptanceSpec.distortion_mix(
                DistortionWeights(tuple((a, w / total) for a, w in zip(levels, level_weights)))
            )
        value, slope = value_and_slope(spec, y, payoff)
        assert value == spec.functional_value(y)
        # rounding of the run sums, the run reaching each level and the mixture
        # sum; 10**5 random draws each, payoffs from 8 and from 64 values,
        # stayed below 1.52 n ulp (one atom, where the mixture's weighted sum
        # rounds) and below 0.89 n ulp on 2-16 atoms (the worst case grows as
        # n**2)
        bound = 2 * sp.n_atoms * math.ulp(float(np.max(payoff.values)))
        assert abs(Fraction(slope) - slope_oracle(spec, y, payoff)) <= bound


#: Levels 0, 1 and interior, with the extremes of the open interval.
FUSED_LEVELS = st.sampled_from(SLOPE_LEVELS + (2.0**-60, 1.0 - 2.0**-53)) | st.floats(0.0, 1.0)
#: Atom weights, with some whose exact sums pass 2**53 and round.
FUSED_WEIGHTS = st.integers(1, 16).map(float) | st.floats(1e-30, 1.0).map(lambda u: u**4)
#: Few values, so that ties are common, a signed zero, and magnitudes 1e-4 to 1e4.
FUSED_VALUES = st.integers(-3, 3).map(lambda v: v / 2) | st.just(-0.0) | st.floats(-1e4, 1e4)
#: Payoffs from 8 values, which often tie within a run of Y, or from 1e-4 to 1e4.
FUSED_PAYOFFS = st.integers(1, 8).map(lambda v: v / 8) | st.floats(1e-4, 1e4)


@st.composite
def fused_specs(draw):
    """Expected shortfall at an interior level, or a mixture over up to four levels in [0, 1]."""
    levels = draw(st.lists(FUSED_LEVELS, min_size=1, max_size=4, unique=True))
    if 0.0 < levels[0] < 1.0 and draw(st.booleans()):
        return AcceptanceSpec.es_level(levels[0])
    weights = draw(st.lists(st.integers(1, 9), min_size=len(levels), max_size=len(levels)))
    total = sum(weights)
    return AcceptanceSpec.distortion_mix(
        DistortionWeights(tuple((a, w / total) for a, w in zip(levels, weights)))
    )


class TestFusedWalk:
    """Newton's one fused walk against the two-pass kernel it replaced, bit for bit."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(FUSED_WEIGHTS, FUSED_VALUES, FUSED_PAYOFFS), min_size=1, max_size=16),
        spec=fused_specs(),
    )
    # the first run's cum is exactly the level 1/3: that run resolves it, not the next
    @example(
        atoms=[(2.0, -0.5, 1.75), (6.0, 0.0, 2.375), (4.0, -1.0, 1.75)],
        spec=AcceptanceSpec.es_level(1 / 3),
    )
    # the numerators sum to 1 - 2**-52, below the level: the pinned last run resolves it
    @example(
        atoms=[
            (0.8816028378292521, 0.5, 0.3),
            (0.22415319281384183, 0.5, 0.7),
            (0.06328925257421858, -1.0, 0.1),
        ],
        spec=AcceptanceSpec.es_level(1.0 - 2.0**-53),
    )
    def test_matches_the_two_pass_kernel(self, atoms, spec):
        weights, ys, pays = zip(*atoms)
        total = math.fsum(weights)
        sp = FiniteSpace(np.array([w / total for w in weights]))
        y, payoff = RandVar(sp, ys), RandVar(sp, pays)
        value, slope = value_and_slope(spec, y, payoff)
        want = value_and_slope(spec, y, payoff, two_pass_value_and_slope)
        assert (value.hex(), slope.hex()) == (want[0].hex(), want[1].hex())
        assert value.hex() == spec.functional_value(y).hex()

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        n=st.integers(spaces.VECTOR_MIN_ATOMS, 4096),
        seed=st.integers(0, 2**32 - 1),
        ticks=st.integers(4, 512),
        spec=fused_specs(),
    )
    def test_matches_the_numpy_walk_from_vector_min_atoms(self, n, seed, ticks, spec):
        # Newton's membership probes read the fused walk at every size, where
        # functional_value walks in numpy: the two values agree bit for bit
        rng = np.random.default_rng(seed)
        weights = rng.random(n) + 0.5
        sp = FiniteSpace(weights / math.fsum(weights.tolist()))
        assert sp.limbs is not None
        y = RandVar(sp, rng.integers(-ticks, ticks + 1, n) / 64)  # a 1/64 grid: ties everywhere
        payoff = RandVar(sp, rng.integers(1, 9, n) / 8)
        value, _ = value_and_slope(spec, y, payoff)
        assert value.hex() == spec.functional_value(y).hex()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(FUSED_WEIGHTS, FUSED_VALUES | st.sampled_from([math.inf, -math.inf, 1e300, -1e300])),
            min_size=1, max_size=60,
        ),
        level=st.sampled_from([0.0, 1e-9, 0.5, math.inf]) | st.floats(0.0, 1.0),
    )
    def test_oracle_runs_start_where_their_value_does(self, atoms, level):
        # the oracle's run starts are what its rescans read: each run is a
        # slice of the sorted atoms, after the exact numerators of the runs before it
        total = math.fsum(w for w, _ in atoms)
        space = FiniteSpace(np.array([w / total for w, _ in atoms]))
        values = np.array([v for _, v in atoms])
        vals, order = values.tolist(), values.argsort().tolist()
        distinct, cum, starts = walk_with_starts(space, vals, order, level)
        assert (distinct, cum) == spaces._walk(space, vals, order, level)
        nums, den = space.int_probs
        assert len(starts) == len(distinct) + 1 and starts[0] == (0, 0)
        for k, v in enumerate(distinct):
            (j, acc), (end, after) = starts[k], starts[k + 1]
            assert j < end and all(vals[i] == v for i in order[j:end])
            assert acc == sum(nums[i] for i in order[:j])
            assert after == acc + sum(nums[i] for i in order[j:end])
            # a run's cum is the next start's sum rounded once, or the pinned 1.0 at the end
            assert cum[k] == (1.0 if end == len(order) else after / den)
        assert cum[-1] > level or starts[-1][0] == len(order)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(st.integers(1, 16), st.integers(-16, 16), st.integers(1, 8)),
            min_size=2, max_size=16,
        ),
        price=st.integers(1, 4),
        spec=fused_specs(),
        tol=st.sampled_from([None, 1e-15, 1e-3]),
    )
    def test_quotes_match_the_two_pass_kernel(self, atoms, price, spec, tol):
        weights, xs, pays = zip(*atoms)
        sp = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        x = RandVar(sp, np.array(xs) / 4)
        payoff = RandVar(sp, np.array(pays) / 4)
        assume(not payoff.is_constant and x.max_abs > 0.0)  # else a closed form applies
        asset = EligibleAsset(price / 2, payoff)
        quote = rho(spec, asset, x, tol=tol)
        assert quote.method == "newton"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "shortfall_and_slope", two_pass_value_and_slope)
            assert repr(rho(spec, asset, x, tol=tol)) == repr(quote)


class TestFloatRange:
    """Quotes at the edges of the float range: no warning, and an error that names an overflow."""

    @pytest.fixture
    def space(self):
        return FiniteSpace([0.5, 0.5])

    def quote(self, spec, space, payoff):
        asset = EligibleAsset(1.0, RandVar(space, payoff))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return rho(spec, asset, RandVar(space, [1.0, 1.0]))

    def test_var_quotes_the_finite_order_statistic_of_the_raw_quotient(self, space):
        # X / S1 = [1e310 (overflows to inf), 1]; its upper 0.1-quantile is 1
        quote = self.quote(AcceptanceSpec.var_level(0.1), space, [1e-310, 1.0])
        assert quote == RiskQuote(-1.0, "closed_form", 0, 0.0)

    def test_var_raises_on_an_infinite_order_statistic(self, space):
        with pytest.raises(ValueError, match=r"overflows: VaR\(X / S1\) is -inf"):
            self.quote(AcceptanceSpec.var_level(0.6), space, [1e-310, 1.0])

    @pytest.mark.parametrize(
        "spec",
        [AcceptanceSpec.es_level(0.1), AcceptanceSpec.distortion_mix(DistortionWeights(MIX))],
        ids=["es", "mixture"],
    )
    @pytest.mark.parametrize("tiny", [1e-310, 5e-324], ids=["subnormal", "slope-underflows"])
    def test_newton_raises_when_the_iterate_leaves_the_float_range(self, space, spec, tiny):
        # the requirement is about -1 / tiny, below -1.8e308; at 5e-324 the
        # mixture's slope, 0.5 * -5e-324 + ..., rounds to 0 itself
        with pytest.raises(ValueError, match="leaves the float range at m = -inf"):
            self.quote(spec, space, [tiny, 1.0])

    @pytest.mark.parametrize(
        "spec",
        [AcceptanceSpec.es_level(0.1), AcceptanceSpec.var_level(0.1)],
        ids=["es", "var"],
    )
    def test_bisection_names_the_overflow(self, space, spec):
        # S0 * max|X| / eps = 1e310: no default tol exists.  Under an explicit
        # tol the first bracket probe, m = 1e310, leaves the float range
        asset = EligibleAsset(1.0, RandVar(space, [1e-310, 1.0]))
        x = RandVar(space, [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"bracket scale S0 \* max\|X\| / eps leaves"):
                rho(spec, asset, x, method="bisection")
            with pytest.raises(ValueError, match="leaves the float range at m = inf"):
                rho(spec, asset, x, tol=1e-9, method="bisection")
            with pytest.raises(ValueError, match="bracket scale"):
                default_tol(asset, x)

    def test_newton_landing_needs_a_finite_default_tol(self, space):
        # Newton lands at 1e300, but the default tol, 1e-10 of S0 * max|X| /
        # eps = 1e310, is not finite; an explicit tol certifies the landing
        asset = EligibleAsset(1.0, RandVar(space, [1e-10, 1.0]))
        x = RandVar(space, [1e300, -1e300])
        spec = AcceptanceSpec.es_level(0.5)
        with pytest.raises(ValueError, match="bracket scale"):
            rho(spec, asset, x)
        quote = rho(spec, asset, x, tol=1e290)
        assert quote.method == "newton" and 0.0 < quote.bracket_width <= 1e290
        assert accepts(spec, x + quote.value * asset.payoff)
        assert not accepts(spec, x + (quote.value - quote.bracket_width) * asset.payoff)

    def test_numeraire_change_names_the_discounted_overflow(self, space):
        asset = EligibleAsset(1.0, RandVar(space, [1e-310, 1.0]))
        x = RandVar(space, [1.0, 1.0])
        spec = AcceptanceSpec.var_level(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"discounted position X / S1 leaves"):
                change_numeraire(x, asset)
            with pytest.raises(ValueError, match=r"discounted position X / S1 leaves"):
                numeraire_identity_check(spec, asset, [x], tol=1e-9)
            with pytest.raises(ValueError, match="bracket scale"):
                numeraire_identity_check(spec, asset, [x])

    def test_newton_takes_a_large_shift_that_stays_finite(self, space):
        # the step to m = 5e307 passes the quick bound (|m| * 2 + 1e308 overflows),
        # but X + m * S1 = [0, 1.5e308] is finite: it is priced, and it is the root
        x = RandVar(space, [-1e308, 1e308])
        asset = EligibleAsset(1.0, RandVar(space, [2.0, 1.0]))
        spec = AcceptanceSpec.es_level(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quote = rho(spec, asset, x)
        assert quote.value == 5e307
        assert accepts(spec, x + quote.value * asset.payoff)
        assert not accepts(spec, x + (quote.value - quote.bracket_width) * asset.payoff)


class TestRhoProperties:
    def test_decreasing_in_position(self, space3, asset3):
        rng = np.random.default_rng(29)
        specs = [AcceptanceSpec.var_level(0.05), AcceptanceSpec.es_level(0.1)]
        for _ in range(100):
            x = RandVar(space3, rng.integers(-128, 129, 3) / 32)
            bump = RandVar(space3, rng.integers(0, 65, 3) / 64)
            for spec in specs:
                tol = 1e-11
                hi = rho(spec, asset3, x, tol=tol).value
                lo = rho(spec, asset3, x + bump, tol=tol).value
                assert lo <= hi + 2 * tol

    def test_acceptance_recovery(self, space3, asset3):
        rng = np.random.default_rng(37)
        specs = [AcceptanceSpec.var_level(0.05), AcceptanceSpec.es_level(0.1)]
        tol = 1e-11
        for _ in range(200):
            x = RandVar(space3, rng.integers(-128, 129, 3) / 32)
            for spec in specs:
                value = rho(spec, asset3, x, tol=tol).value
                if accepts(spec, x):
                    assert value <= tol
                else:
                    assert value > 0.0

    def test_asset_scale_covariance(self, space3, a_var05):
        rng = np.random.default_rng(41)
        for _ in range(100):
            payoff = RandVar(space3, rng.integers(8, 129, 3) / 32)
            s0 = float(rng.integers(1, 9)) / 2
            c = float(rng.integers(1, 9)) / 2
            x = RandVar(space3, rng.integers(-128, 129, 3) / 32)
            base = rho(a_var05, EligibleAsset(s0, payoff), x).value
            scaled = rho(a_var05, EligibleAsset(c * s0, c * payoff), x).value
            assert scaled == pytest.approx(base, abs=1e-10 * max(1.0, abs(base)))


class TestRhoCash:
    def test_examples(self):
        sp = FiniteSpace([0.1, 0.1, 0.8])
        x = RandVar(sp, [-2.0, -3.0, 2.0])
        assert rho_cash(AcceptanceSpec.var_level(0.1), x) == pytest.approx(2.0, abs=1e-12)
        assert rho_cash(AcceptanceSpec.es_level(0.2), x) == pytest.approx(2.5, abs=1e-12)
        pure = AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),)))
        assert rho_cash(pure, x) == pytest.approx(-1.1, abs=1e-12)

    def test_matches_engine_with_cash_asset(self):
        sp = FiniteSpace([0.25, 0.25, 0.5])
        rng = np.random.default_rng(43)
        spec = AcceptanceSpec.es_level(0.3)
        for _ in range(50):
            x = RandVar(sp, rng.integers(-64, 65, 3) / 16)
            direct = rho_cash(spec, x)
            engine = rho(spec, cash_asset(sp), x, tol=1e-12).value
            assert engine == pytest.approx(direct, abs=1e-10)

    def test_explicit_criterion_takes_the_solver(self):
        sp = FiniteSpace([0.1, 0.1, 0.8])
        x = RandVar(sp, [-2.0, -2.0, -0.75])
        spec = AcceptanceSpec.es_level(0.3)
        solved = rho_cash(AcceptanceSpec.explicit(spec.functional_value), x)
        assert (solved, rho_cash(spec, x)) == (1.583333333430346, 1.5833333333333333)
        assert abs(solved - rho_cash(spec, x)) <= default_tol(cash_asset(sp), x) == 2e-10


class TestPositionSpace:
    """``rho`` and ``change_numeraire`` price only a position on the payoff's space."""

    PAYOFF = RandVar(FiniteSpace([0.05, 0.05, 0.9]), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("spec", [AcceptanceSpec.var_level(0.1), AcceptanceSpec.es_level(0.1)],
                             ids=["var", "es"])
    @pytest.mark.parametrize(
        "probs, values",
        [([0.5, 0.25, 0.25], [-1.0, 0.0, 1.0]), ([0.25] * 4, [-1.0, 0.0, 1.0, 2.0])],
        ids=["other-probabilities", "other-atom-count"],
    )
    def test_another_space_raises(self, spec, probs, values):
        asset = EligibleAsset(1.0, self.PAYOFF)
        x = RandVar(FiniteSpace(probs), values)
        with pytest.raises(SpaceMismatchError):
            rho(spec, asset, x)
        with pytest.raises(SpaceMismatchError):
            change_numeraire(x, asset)

    @pytest.mark.parametrize("spec", [AcceptanceSpec.var_level(0.1), AcceptanceSpec.es_level(0.1)],
                             ids=["var", "es"])
    def test_an_equal_copy_of_the_space_is_accepted(self, spec):
        asset = EligibleAsset(1.0, self.PAYOFF)
        values = [-1.0, 0.0, 1.0]
        copy = RandVar(FiniteSpace([0.05, 0.05, 0.9]), values)
        same = RandVar(asset.payoff.space, values)
        assert copy.space is not same.space
        assert rho(spec, asset, copy) == rho(spec, asset, same)
        assert change_numeraire(copy, asset).tolist() == [-1.0, 0.0, 1.0 / 3.0]


def grid_draws(space, count, seed):
    """Seeded 1/64-grid positions in [-4, 4], passed to the identity checks as test inputs."""
    rng = smp.as_rng(seed)
    return [smp.grid_randvar(space, rng) for _ in range(count)]


class TestSAdditivity:
    def test_var_kind_exact(self, space3, asset3, a_var05):
        report = s_additivity_check(a_var05, asset3, grid_draws(space3, 300, 3))
        assert report.passed
        assert report.data["worst_error"] <= 1e-12
        # each of 300 draws, 0, 1, -1 and two payoff steps at six lambdas
        assert report.trials == 6 * 305

    def test_es_kind_within_tolerance(self, space3):
        asset = EligibleAsset(1.0, RandVar(space3, [1.0, 2.0, 1.0]))
        report = s_additivity_check(AcceptanceSpec.es_level(0.1), asset, grid_draws(space3, 60, 5))
        assert report.passed

    def test_risk_free_reduces_to_cash_additivity(self, space3):
        asset = EligibleAsset(1.0, RandVar.constant(space3, 2.0))
        draws = grid_draws(space3, 200, 7)
        report = s_additivity_check(AcceptanceSpec.es_level(0.1), asset, draws)
        assert report.passed
        assert report.data["worst_error"] <= 1e-10
        assert report.trials == 6 * 203  # a constant payoff has no steps


class TestChangeNumeraire:
    def test_identity_for_unit_payoff(self, space3):
        asset = cash_asset(space3)
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        assert np.array_equal(change_numeraire(x, asset).values, x.values)

    def test_payoff_discounts_to_one(self, space3, asset3):
        discounted = change_numeraire(asset3.payoff, asset3)
        assert discounted.is_constant and discounted.values[0] == 1.0

    def test_atomwise_ratio(self, space3, asset3):
        x = RandVar(space3, [-2.0, -3.0, 2.0])
        assert change_numeraire(x, asset3).values.tolist() == [-2.0, -1.5, 2.0]


class TestNumeraireIdentity:
    def test_risk_free(self, space3):
        asset = EligibleAsset(1.0, RandVar.constant(space3, 2.0))
        spec = AcceptanceSpec.var_level(0.05)
        report = numeraire_identity_check(spec, asset, grid_draws(space3, 50, 11))
        assert report.passed
        assert report.trials == 53

    def test_var_risky(self, space3, asset3, a_var05):
        report = numeraire_identity_check(a_var05, asset3, grid_draws(space3, 50, 13))
        assert report.passed

    def test_es_risky(self):
        sp = FiniteSpace([0.5, 0.5])
        asset = EligibleAsset(1.0, RandVar(sp, [1.0, 2.0]))
        report = numeraire_identity_check(
            AcceptanceSpec.es_level(0.5), asset, grid_draws(sp, 40, 17))
        assert report.passed


IDENTITY_SPECS = {
    "var": lambda alpha: AcceptanceSpec.var_level(alpha),
    "es": lambda alpha: AcceptanceSpec.es_level(alpha),
    "mix": lambda alpha: AcceptanceSpec.distortion_mix(
        DistortionWeights(((alpha, 0.5), (1.0, 0.5)))),
    "mean": lambda alpha: AcceptanceSpec.expectation_floor(),
}


class TestIdentityChecks:
    """Both identities hold for every position, so only a solver defect fails them."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(st.integers(1, 16), st.integers(4, 16)), min_size=2, max_size=7),
        drawn=st.lists(
            st.lists(st.integers(-64, 64), min_size=7, max_size=7), min_size=1, max_size=3),
        risky=st.booleans(),
        price=st.integers(1, 8),
        kind=st.sampled_from(sorted(IDENTITY_SPECS)),
        alpha=st.floats(0.05, 0.6),
        tol=st.sampled_from([None, 1e-9]),
    )
    def test_both_hold_on_drawn_positions(self, atoms, drawn, risky, price, kind, alpha, tol):
        weights, pays = zip(*atoms)
        n = len(atoms)
        sp = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        payoff = RandVar(sp, np.array(pays) / 8 if risky else np.full(n, pays[0] / 8))
        asset = EligibleAsset(price / 4, payoff)
        positions = [RandVar(sp, np.array(v[:n]) / 16) for v in drawn]
        spec = IDENTITY_SPECS[kind](alpha)
        count = len(positions) + 3 + len(list(_payoff_steps(asset)))
        for check, per_position in ((s_additivity_check, 6), (numeraire_identity_check, 1)):
            report = check(spec, asset, positions, tol)
            assert report.passed, report.witness
            assert report.trials == per_position * count

    @pytest.mark.parametrize(
        "check, trials, x",
        [(s_additivity_check, 1, 0.0), (numeraire_identity_check, 2, 1.0)],
        ids=["s-additivity", "numeraire-identity"],
    )
    def test_an_offset_solver_fails_on_the_fixed_list(self, monkeypatch, space3, a_var05, check,
                                                       trials, x):
        # quotes of nonzero positions are 1e-3 too high.  s-additivity fails at
        # once (x = 0, lambda = -2: only the shifted side is off); at price 2 the
        # discounted side is off twice as much, so numeraire-identity passes
        # x = 0 and fails at x = 1.
        quote = engine.rho

        def off(spec, asset, y, tol=None, method="auto"):
            q = quote(spec, asset, y, tol, method)
            if method == "auto" and np.count_nonzero(y.values):
                q = dataclasses.replace(q, value=q.value + 1e-3)
            return q

        monkeypatch.setattr(engine, "rho", off)
        asset = EligibleAsset(2.0, RandVar(space3, [1.0, 2.0, 1.0]))
        report = check(a_var05, asset, positions=())
        assert (report.passed, report.trials) == (False, trials)
        assert report.witness["x"].tolist() == [x] * 3
        gap = abs(report.witness["lhs"] - report.witness["rhs"])
        assert gap == report.data["worst_error"] == pytest.approx(1e-3)
        if check is s_additivity_check:
            assert report.witness["lambda"] == -2.0


class TestRequirementMemo:
    """A statement's quote memo returns exactly what fresh ``rho`` calls return."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(st.integers(1, 16), st.integers(4, 16)), min_size=2, max_size=7),
        drawn=st.lists(
            st.lists(st.integers(-64, 64), min_size=7, max_size=7), min_size=1, max_size=3),
        risky=st.booleans(),
        price=st.integers(1, 8),
        kind=st.sampled_from(sorted(IDENTITY_SPECS)),
        alpha=st.floats(0.05, 0.6),
        tol=st.sampled_from([None, 1e-9]),
    )
    def test_memo_matches_fresh_quotes(self, atoms, drawn, risky, price, kind, alpha, tol):
        weights, pays = zip(*atoms)
        n = len(atoms)
        sp = FiniteSpace(np.array(weights, dtype=float) / sum(weights))
        payoff = RandVar(sp, np.array(pays) / 8 if risky else np.full(n, pays[0] / 8))
        asset = EligibleAsset(price / 4, payoff)
        spec = IDENTITY_SPECS[kind](alpha)
        positions = [RandVar(sp, np.array(v[:n]) / 16) for v in drawn]

        def fresh(x: RandVar, tol_x: float | None) -> float:
            return engine.rho(spec, asset, x, tol_x).value

        # multiples and negatives of the drawn positions: many sums coincide
        book = [c * x for x in positions for c in (1.0, 2.0, -1.0)]
        verdict = find_additivity_violation(spec, asset, book)
        if not verdict.passed:
            x, y = verdict.witness["x"], verdict.witness["y"]
            gap = fresh(x + y, 1e-12) - fresh(x, 1e-12) - fresh(y, 1e-12)
            assert verdict.witness["gap"].hex() == gap.hex()

        # s-additivity recomputed with one fresh quote per side
        worst, witness = 0.0, None
        for x in _audit_positions(asset, positions):
            for lam in S_ADDITIVITY_LAMBDAS:
                shifted = x + lam * asset.payoff
                t = tol if tol is not None else max(default_tol(asset, x), default_tol(asset, shifted))
                left, right = fresh(shifted, t), fresh(x, t) - lam * asset.price
                worst = max(worst, abs(left - right))
                if abs(left - right) > 10.0 * t:
                    witness = (x.tolist(), lam, left, right)
                    break
            if witness is not None:
                break
        report = s_additivity_check(spec, asset, positions, tol)
        assert report.data["worst_error"].hex() == worst.hex()
        if witness is None:
            assert report.witness is None
        else:
            w = report.witness
            assert (w["x"].tolist(), w["lambda"], w["lhs"], w["rhs"]) == witness

    def test_signed_zeros_are_priced_apart(self, monkeypatch, asset3, a_var05, space3):
        calls = []
        quote = engine.rho
        monkeypatch.setattr(engine, "rho", lambda *a, **k: calls.append(a[2]) or quote(*a, **k))
        requirement = engine._requirement(a_var05, asset3, 1e-12)
        zero = RandVar.constant(space3, 0.0)
        for x in (zero, -zero, zero, -zero):
            assert requirement(x) == 0.0
        assert [math.copysign(1.0, x.values[0]) for x in calls] == [1.0, -1.0]
        requirement(zero, 1e-9)
        assert len(calls) == 3

    def test_a_position_on_another_space_still_raises(self, space3, asset3, a_var05):
        # the discounted set multiplies by the asset's payoff, whose space must match;
        # the same bytes on an incompatible space miss the priced key
        disc = discounted_acceptance(a_var05, asset3)
        requirement = engine._requirement(disc, cash_asset(space3), 1e-9)
        x = RandVar(space3, [1.0, -2.0, 0.5])
        assert requirement(x) == rho(disc, cash_asset(space3), x, 1e-9).value
        other = FiniteSpace([0.5, 0.25, 0.25])
        with pytest.raises(SpaceMismatchError):
            requirement(RandVar(other, x.values))
        # a built-in criterion reaches rho's own check
        builtin = engine._requirement(a_var05, asset3, 1e-9)
        assert builtin(x) == rho(a_var05, asset3, x, 1e-9).value
        with pytest.raises(SpaceMismatchError):
            builtin(RandVar(other, x.values))
