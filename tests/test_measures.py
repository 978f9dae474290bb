"""Tests for value-at-risk, expected shortfall, and distortion mixtures."""

import math
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    FiniteSpace,
    Level,
    RandVar,
    distortion,
    es,
    es_choquet_oracle,
    essential_infimum,
    expectation,
    same_distribution,
    upper_quantile,
    var,
)

from sampling import generate_comonotone_pair


@pytest.fixture
def space3():
    return FiniteSpace([0.1, 0.1, 0.8])


@pytest.fixture
def x3(space3):
    return RandVar(space3, [-2.0, -3.0, 2.0])


def random_space(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    w = rng.integers(1, 64, n).astype(float)
    return FiniteSpace(w / w.sum())


def grid_rv(space, rng):
    return RandVar(space, rng.integers(-256, 257, space.n_atoms) / 64)


class TestLevel:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_boundary(self, alpha):
        with pytest.raises(ValueError):
            Level(alpha)


class TestDistortionWeights:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            DistortionWeights(((0.5, 0.0), (1.0, 1.0)))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DistortionWeights(((0.5, 0.4), (1.0, 0.4)))

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            DistortionWeights(((0.5, 0.5), (0.5, 0.5)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            DistortionWeights(())

    def test_rejects_level_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"mixture level 1\.5 outside \[0, 1\]"):
            DistortionWeights(((1.5, 1.0),))

    def test_weight_at_one(self):
        mu = DistortionWeights(((0.2, 0.25), (1.0, 0.75)))
        assert not mu.is_pure_expectation
        assert DistortionWeights(((1.0, 1.0),)).is_pure_expectation


class TestVar:
    def test_example(self, x3):
        assert var(x3, Level(0.1)) == 2.0

    def test_constant(self, space3):
        assert var(RandVar.constant(space3, 3.0), Level(0.3)) == -3.0

    def test_cash_shift(self, x3):
        assert var(x3 + 5.0, Level(0.1)) == -3.0

    def test_matches_definitional_infimum(self, x3):
        # threshold scan over m on a fine grid around the closed form
        alpha = 0.1
        v = var(x3, Level(alpha))
        space = x3.space
        loss_prob = lambda m: float(
            np.sum(space.probs[(x3.values + m) < 0.0])
        )
        assert loss_prob(v) <= alpha
        assert loss_prob(v - 1e-9) > alpha


class TestEs:
    def test_examples(self, x3):
        assert es(x3, Level(0.1)) == pytest.approx(3.0, abs=1e-12)
        assert es(x3, Level(0.2)) == pytest.approx(2.5, abs=1e-12)

    def test_constant(self, space3):
        for alpha in (0.05, 0.4, 0.9):
            assert es(RandVar.constant(space3, 2.0), Level(alpha)) == pytest.approx(
                -2.0, abs=1e-12
            )

    def test_dominates_var(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            alpha = float(rng.uniform(0.02, 0.98))
            assert es(x, Level(alpha)) >= var(x, Level(alpha)) - 1e-12


class TestEsBoundary:
    """A point mass at level 0 is the worst case, at level 1 the negated expectation."""

    @staticmethod
    def at(x, alpha):
        return distortion(x, DistortionWeights(((alpha, 1.0),)))

    def test_examples(self, x3):
        assert self.at(x3, 0.0) == 3.0
        assert self.at(x3, 1.0) == pytest.approx(-1.1, abs=1e-12)

    def test_zero_position(self, space3):
        z = RandVar.constant(space3, 0.0)
        assert self.at(z, 0.0) == 0.0
        assert self.at(z, 1.0) == 0.0


class TestDistortion:
    def test_pure_expectation(self, x3):
        assert distortion(x3, DistortionWeights(((1.0, 1.0),))) == pytest.approx(
            -1.1, abs=1e-12
        )

    def test_mixture(self, x3):
        mu = DistortionWeights(((0.1, 0.5), (0.2, 0.5)))
        assert distortion(x3, mu) == pytest.approx(2.75, abs=1e-12)

    def test_worst_case(self, x3):
        assert distortion(x3, DistortionWeights(((0.0, 1.0),))) == 3.0


class TestChoquetOracle:
    def test_matches_example(self, x3):
        assert es_choquet_oracle(x3, Level(0.2)) == pytest.approx(2.5, abs=1e-12)

    def test_constant(self, space3):
        assert es_choquet_oracle(RandVar.constant(space3, 4.0), Level(0.3)) == pytest.approx(
            -4.0, abs=1e-12
        )

    def test_agrees_with_es_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            alpha = float(rng.uniform(0.01, 0.99))
            assert es(x, Level(alpha)) == pytest.approx(
                es_choquet_oracle(x, Level(alpha)), abs=1e-10
            )


def profile_shortfall(x: RandVar, alpha: float) -> float:
    """ES as the breakpoint sum over the whole profile, with no early exit."""
    acc = prev = 0.0
    for v, c in zip(x.profile.values.tolist(), x.profile.cum.tolist()):
        hi = c if c < alpha else alpha
        if hi > prev:
            acc += (-v) * (hi - prev)
            prev = hi
    return acc / alpha


class TestLowerTail:
    """Quantile, ES and distortion walk the lower tail only up to their level.

    Each must equal, bit for bit, the same computation on the full profile.
    """

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 7, 2000]),
        dyadic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
        levels=st.lists(st.floats(1e-6, 1.0, exclude_max=True), max_size=3),
        ends=st.sets(st.sampled_from([0.0, 1.0])),
    )
    def test_matches_full_profile(self, n, dyadic, seed, picks, levels, ends):
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 8, n)
        if dyadic:  # probabilities over a power of two, so that levels can equal a cum
            weights[-1] += 2 ** math.ceil(math.log2(weights.sum())) - weights.sum()
        space = FiniteSpace(weights / weights.sum())
        # a few values per atom count, so that runs tie; zeros of both signs
        values = rng.integers(-4, 5, n) / 4
        values[(values == 0) & (rng.random(n) < 0.5)] = -0.0
        x = RandVar(space, values)
        prof = x.profile
        inner = [c for c in prof.cum.tolist() if c < 1.0]
        # levels at a cum, strictly between, and at the largest float below 1 (the pinned run)
        levels = sorted(
            {*(inner[k % len(inner)] for k in picks if inner), *levels, math.nextafter(1.0, 0.0)}
        )

        # each run's exact cum, the last pinned to 1: the quantile's run is the first past beta
        nums, den = space.int_probs
        exact = [
            Fraction(sum(m for m, u in zip(nums, values.tolist()) if u <= v), den)
            for v in prof.values.tolist()[:-1]
        ] + [Fraction(1)]
        for beta in [0.0, *levels]:
            k = next(i for i, c in enumerate(exact) if c > beta)
            assert upper_quantile(x, beta).hex() == float(prof.values[k]).hex()
        for alpha in levels:
            assert es(x, Level(alpha)).hex() == profile_shortfall(x, alpha).hex()
            # ES is the one-point mixture ((alpha, 1)), bit for bit
            assert AcceptanceSpec.es_level(alpha).functional_value(x).hex() == es(x, Level(alpha)).hex()
        # the expectation floor is the mixture ((1, 1)): equal by value only,
        # since the mixture's fsum may turn the -0.0 of a zero mean into +0.0
        assert AcceptanceSpec.expectation_floor().functional_value(x) == -expectation(x)

        points = [(a, 1.0 / (len(levels) + len(ends))) for a in [*levels, *sorted(ends)]]
        mu = DistortionWeights(tuple(points))
        want = math.fsum(
            w * (-essential_infimum(x) if a == 0.0 else -expectation(x) if a == 1.0 else es(x, Level(a)))
            for a, w in mu.points
        )
        assert distortion(x, mu).hex() == want.hex()

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0]])
    def test_zero_is_positive_whatever_the_atom_order(self, values):
        x = RandVar(FiniteSpace([0.5, 0.5]), values)
        assert upper_quantile(x, 0.2).hex() == (0.0).hex()
        assert var(x, Level(0.2)).hex() == (-0.0).hex()
        assert es(x, Level(0.2)).hex() == (0.0).hex()
        assert [v.hex() for v in x.profile.values.tolist()] == [(0.0).hex()]


FUNCTIONALS = {
    "var": lambda x, a: var(x, Level(a)),
    "es": lambda x, a: es(x, Level(a)),
    "distortion": lambda x, a: distortion(
        x, DistortionWeights(((a, 0.5), (min(2 * a, 0.75 + a / 4), 0.5)))
    ),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
class TestSharedProperties:
    def test_cash_additivity(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        fn = FUNCTIONALS[name]
        for _ in range(200):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            lam = float(rng.integers(-64, 65)) / 16
            alpha = float(rng.uniform(0.05, 0.6))
            assert fn(x + lam, alpha) == pytest.approx(fn(x, alpha) - lam, abs=1e-10)

    def test_positive_homogeneity(self, name):
        rng = np.random.default_rng(zlib.crc32((name + "h").encode()))
        fn = FUNCTIONALS[name]
        for _ in range(200):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            t = float(rng.integers(0, 33)) / 8
            alpha = float(rng.uniform(0.05, 0.6))
            assert fn(t * x, alpha) == pytest.approx(t * fn(x, alpha), abs=1e-10)

    def test_decreasing_monotonicity(self, name):
        rng = np.random.default_rng(zlib.crc32((name + "m").encode()))
        fn = FUNCTIONALS[name]
        for _ in range(200):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            bump = RandVar(sp, rng.integers(0, 65, sp.n_atoms) / 64)
            alpha = float(rng.uniform(0.05, 0.6))
            assert fn(x + bump, alpha) <= fn(x, alpha) + 1e-12

    def test_law_invariance(self, name):
        fn = FUNCTIONALS[name]
        rng = np.random.default_rng(zlib.crc32((name + "l").encode()))
        sp = FiniteSpace([0.25, 0.25, 0.25, 0.25])
        for _ in range(100):
            vals = rng.integers(-8, 9, 4).astype(float)
            x = RandVar(sp, vals)
            y = RandVar(sp, vals[rng.permutation(4)])
            assert same_distribution(x, y)
            alpha = float(rng.uniform(0.05, 0.9))
            assert fn(x, alpha) == fn(y, alpha)

    def test_comonotonic_additivity(self, name):
        fn = FUNCTIONALS[name]
        rng = np.random.default_rng(zlib.crc32((name + "c").encode()))
        for i in range(300):
            sp = random_space(rng, n_max=8)
            pair = generate_comonotone_pair(sp, rng)
            alpha = float(rng.uniform(0.05, 0.9))
            lhs = fn(pair.x + pair.y, alpha)
            rhs = fn(pair.x, alpha) + fn(pair.y, alpha)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSubadditivity:
    def test_es_and_distortion_subadditive(self):
        rng = np.random.default_rng(31)
        mu = DistortionWeights(((0.1, 0.3), (0.5, 0.4), (1.0, 0.3)))
        for _ in range(300):
            sp = random_space(rng)
            x, y = grid_rv(sp, rng), grid_rv(sp, rng)
            alpha = float(rng.uniform(0.05, 0.9))
            assert es(x + y, Level(alpha)) <= es(x, Level(alpha)) + es(y, Level(alpha)) + 1e-10
            assert distortion(x + y, mu) <= distortion(x, mu) + distortion(y, mu) + 1e-10

    def test_var_subadditivity_violation_exists(self):
        # the suite must exhibit a generated pair breaking var subadditivity
        rng = np.random.default_rng(17)
        level = Level(0.1)
        witness = None
        for _ in range(2000):
            sp = random_space(rng, n_max=6)
            x, y = grid_rv(sp, rng), grid_rv(sp, rng)
            if var(x + y, level) > var(x, level) + var(y, level) + 1e-9:
                witness = (sp, x, y)
                break
        assert witness is not None
        sp, x, y = witness
        assert var(x + y, level) > var(x, level) + var(y, level)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            sp = random_space(rng)
            x, y = grid_rv(sp, rng), grid_rv(sp, rng)
            alpha = float(rng.uniform(0.05, 0.9))
            span = float(np.max(np.abs((x - y).values)))
            assert abs(var(x, Level(alpha)) - var(y, Level(alpha))) <= span + 1e-12
            assert abs(es(x, Level(alpha)) - es(y, Level(alpha))) <= span + 1e-10


class TestStrictEsGap:
    def test_strict_gap_for_nonconstant(self):
        from eligirisk import expectation

        rng = np.random.default_rng(53)
        for _ in range(1000):
            sp = random_space(rng)
            x = grid_rv(sp, rng)
            while x.is_constant:
                x = grid_rv(sp, rng)
            alpha = float(rng.uniform(0.05, 0.95))
            assert es(x, Level(alpha)) + expectation(x) > 1e-12

    def test_equality_for_constants(self):
        from eligirisk import expectation

        sp = FiniteSpace([0.3, 0.7])
        for c in (-2.0, 0.0, 1.5):
            x = RandVar.constant(sp, c)
            assert abs(es(x, Level(0.25)) + expectation(x)) <= 1e-12
