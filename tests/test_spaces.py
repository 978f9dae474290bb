"""Tests for finite spaces, random variables, and the quantile machinery."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligirisk import (
    DistortionWeights,
    FiniteSpace,
    Level,
    RandVar,
    SpaceMismatchError,
    distortion,
    es,
    essential_infimum,
    expectation,
    same_distribution,
    upper_quantile,
    var,
)
from eligirisk import spaces
from eligirisk.spaces import _lower_tail


@pytest.fixture
def space3():
    return FiniteSpace([0.1, 0.1, 0.8])


@pytest.fixture
def x3(space3):
    return RandVar(space3, [-2.0, -3.0, 2.0])


class TestFiniteSpace:
    def test_rejects_null_atoms(self):
        with pytest.raises(ValueError):
            FiniteSpace([0.5, 0.5, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteSpace([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteSpace([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteSpace([])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="probs must be finite"):
            FiniteSpace([0.5, bad])

    def test_renormalizes_to_exact_one(self):
        sp = FiniteSpace([1 / 3, 1 / 3, 1 / 3])
        assert math.fsum(sp.probs.tolist()) == pytest.approx(1.0, abs=0)
        rv = RandVar(sp, [1.0, 2.0, 3.0])
        assert rv.profile.cum[-1] == 1.0

    def test_single_atom_allowed(self):
        sp = FiniteSpace([1.0])
        assert sp.n_atoms == 1

    def test_event_prob(self, space3):
        assert space3.event_prob([0, 1]) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("atom", [-1, 3, 10])
    def test_out_of_range_atom_rejected(self, atom):
        sp = FiniteSpace([0.1, 0.2, 0.7])
        with pytest.raises(ValueError, match=f"atom index {atom} "):
            sp.event_prob([0, atom])
        with pytest.raises(ValueError, match=f"atom index {atom} "):
            RandVar.indicator(sp, [atom])

    @pytest.mark.parametrize("atom", [1.5, 2.999, 2.0])
    def test_non_integer_atom_rejected(self, atom):
        sp = FiniteSpace([0.1, 0.2, 0.7])
        with pytest.raises(ValueError, match=f"atom index {atom} is not an integer"):
            sp.event_prob([0, atom])
        with pytest.raises(ValueError, match=f"atom index {atom} is not an integer"):
            RandVar.indicator(sp, [atom])

    def test_numpy_integer_atoms_accepted(self):
        sp = FiniteSpace([0.25, 0.25, 0.5])
        assert sp.event_prob(np.array([2, 0])) == 0.75
        assert RandVar.indicator(sp, [np.int64(1)]).tolist() == [0.0, 1.0, 0.0]

    def test_probs_immutable(self, space3):
        with pytest.raises(ValueError):
            space3.probs[0] = 0.3


class TestRandVar:
    def test_length_mismatch(self, space3):
        with pytest.raises(ValueError):
            RandVar(space3, [1.0, 2.0])

    def test_rejects_nonfinite(self, space3):
        with pytest.raises(ValueError):
            RandVar(space3, [1.0, float("nan"), 0.0])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 7, 20, 2000]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        where=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_rejects_nonfinite_at_any_position(self, n, bad, where):
        values = np.arange(n, dtype=float)
        values[int(where * n)] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            RandVar(FiniteSpace(np.full(n, 1.0 / n)), values)

    def test_two_dimensional_values_name_their_shape(self):
        with pytest.raises(ValueError, match=r"values must be one-dimensional, got shape \(3, 1\)"):
            RandVar(FiniteSpace([0.25, 0.25, 0.5]), np.zeros((3, 1)))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(*[st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])] * 2),
                       min_size=1, max_size=8),
        scalar=st.sampled_from([-0.5, -0.0, 0.0, 0.5]),
    )
    def test_comparisons_match_atomwise_python(self, atoms, scalar):
        xs, ys = map(list, zip(*atoms))
        sp = FiniteSpace(np.full(len(xs), 1.0 / len(xs)))
        x, y = RandVar(sp, xs), RandVar(sp, ys)
        assert x.is_constant is all(v == xs[0] for v in xs)
        assert (x >= y) is all(a >= b for a, b in zip(xs, ys))
        assert (x <= y) is all(a <= b for a, b in zip(xs, ys))
        assert (x >= scalar) is all(a >= scalar for a in xs)
        assert (x <= scalar) is all(a <= scalar for a in xs)

    @pytest.mark.parametrize(
        "op",
        [
            lambda big, tiny: big + big,
            lambda big, tiny: big + 1e308,
            lambda big, tiny: 1e308 + big,
            lambda big, tiny: big - (-big),
            lambda big, tiny: big - -1e308,
            lambda big, tiny: -1e308 - big,
            lambda big, tiny: big * big,
            lambda big, tiny: big * 10.0,
            lambda big, tiny: 10.0 * big,
            lambda big, tiny: big / 1e-10,
            lambda big, tiny: big / tiny,
            lambda big, tiny: 1e308 / tiny,
        ],
    )
    def test_arithmetic_rejects_overflow_to_inf(self, op):
        sp = FiniteSpace([0.5, 0.5])
        big, tiny = RandVar(sp, [1e308, 1.0]), RandVar(sp, [1e-10, 1.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="values must be finite"):
            op(big, tiny)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y, lambda x, y: x + 0.0, lambda x, y: 0.0 + x,
            lambda x, y: x - y, lambda x, y: x - 0.0, lambda x, y: 0.0 - x,
            lambda x, y: x * y, lambda x, y: x * 1.0, lambda x, y: 1.0 * x,
            lambda x, y: x / y, lambda x, y: x / 1.0, lambda x, y: 1.0 / y,
            lambda x, y: -x,
        ],
    )
    def test_arithmetic_results_are_read_only_and_own_their_values(self, space3, x3, op):
        # negation cannot overflow; every other operator is also checked finite above
        y = RandVar(space3, [1.0, 2.0, 4.0])
        r = op(x3, y)
        assert not r.values.flags.writeable
        assert not np.shares_memory(r.values, x3.values)
        assert not np.shares_memory(r.values, y.values)
        with pytest.raises(ValueError):
            r.values[0] = 0.0

    def test_constructor_copies_the_callers_array(self, space3):
        values = np.array([1.0, 2.0, 3.0])
        x = RandVar(space3, values)
        values[0] = 99.0
        assert x.tolist() == [1.0, 2.0, 3.0]
        assert values.flags.writeable
        assert not x.values.flags.writeable
        assert not np.shares_memory(x.values, values)

    def test_space_mismatch_on_arithmetic(self, x3):
        other = RandVar(FiniteSpace([0.5, 0.5]), [1.0, 2.0])
        with pytest.raises(SpaceMismatchError):
            _ = x3 + other

    def test_equal_probs_spaces_interoperate(self, x3):
        twin = FiniteSpace([0.1, 0.1, 0.8])
        y = RandVar(twin, [1.0, 1.0, 1.0])
        assert np.allclose((x3 + y).values, [-1.0, -2.0, 3.0])

    def test_arithmetic(self, space3, x3):
        assert np.array_equal((2.0 * x3).values, [-4.0, -6.0, 4.0])
        assert np.array_equal((x3 + 1.0).values, [-1.0, -2.0, 3.0])
        assert np.array_equal((-x3).values, [2.0, 3.0, -2.0])
        s1 = RandVar(space3, [1.0, 2.0, 1.0])
        assert np.array_equal((x3 / s1).values, [-2.0, -1.5, 2.0])
        assert np.array_equal((1.0 / s1).values, [1.0, 0.5, 1.0])

    def test_domination(self, space3, x3):
        assert (x3 + 1.0) >= x3
        assert not (x3 >= x3 + 1.0)

    def test_constructors(self, space3):
        assert RandVar.constant(space3, 2.5).is_constant
        ind = RandVar.indicator(space3, [1])
        assert ind.values.tolist() == [0.0, 1.0, 0.0]
        assert not ind.values.flags.writeable
        assert not RandVar.constant(space3, 2.5).values.flags.writeable
        with pytest.raises(ValueError, match="values must be finite"):
            RandVar.constant(space3, math.inf)


class TestExpectation:
    def test_example(self, x3):
        assert expectation(x3) == pytest.approx(1.1, abs=1e-12)

    def test_constant(self, space3):
        assert expectation(RandVar.constant(space3, 3.25)) == pytest.approx(3.25, abs=1e-12)

    def test_zero(self, space3):
        assert expectation(RandVar.constant(space3, 0.0)) == 0.0

    def test_linearity(self, space3):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = RandVar(space3, rng.integers(-64, 65, 3) / 16)
            y = RandVar(space3, rng.integers(-64, 65, 3) / 16)
            a, b = rng.uniform(-2, 2, 2)
            lhs = expectation(a * x + b * y)
            rhs = a * expectation(x) + b * expectation(y)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestUpperQuantile:
    def test_examples(self, x3):
        assert upper_quantile(x3, 0.05) == -3.0
        assert upper_quantile(x3, 0.1) == -2.0

    def test_constant(self, space3):
        c = RandVar.constant(space3, 1.5)
        for beta in (0.0, 0.3, 0.99):
            assert upper_quantile(c, beta) == 1.5

    def test_rejects_out_of_range(self, x3):
        for beta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                upper_quantile(x3, beta)

    def test_nondecreasing_in_beta(self, x3):
        grid = np.linspace(0.0, 0.999, 200)
        vals = [upper_quantile(x3, b) for b in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_cash_shift(self, space3):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = RandVar(space3, rng.integers(-64, 65, 3) / 64)
            c = rng.integers(-8, 9) / 4
            beta = rng.uniform(0.0, 0.999)
            assert upper_quantile(x + c, beta) == pytest.approx(
                upper_quantile(x, beta) + c, abs=1e-12
            )


class TestEssentialInfimum:
    def test_examples(self, x3, space3):
        assert essential_infimum(x3) == -3.0
        assert essential_infimum(RandVar.constant(space3, 4.0)) == 4.0
        two = FiniteSpace([0.5, 0.5])
        assert essential_infimum(RandVar(two, [0.0, 5.0])) == 0.0


class TestSameDistribution:
    def test_permutation_of_equal_atoms(self):
        sp = FiniteSpace([0.5, 0.5])
        assert same_distribution(RandVar(sp, [1.0, 2.0]), RandVar(sp, [2.0, 1.0]))

    def test_different_values(self):
        sp = FiniteSpace([0.5, 0.5])
        assert not same_distribution(RandVar(sp, [1.0, 2.0]), RandVar(sp, [1.0, 3.0]))

    def test_reflexive(self, x3):
        assert same_distribution(x3, x3)

    def test_space_mismatch(self, x3):
        with pytest.raises(SpaceMismatchError):
            same_distribution(x3, RandVar(FiniteSpace([0.5, 0.5]), [0.0, 0.0]))

    def test_equivalence_relation_on_samples(self):
        sp = FiniteSpace([0.25, 0.25, 0.25, 0.25])
        rng = np.random.default_rng(5)
        draws = [RandVar(sp, rng.integers(-2, 3, 4).astype(float)) for _ in range(60)]
        for x in draws[:20]:
            assert same_distribution(x, x)
        for x in draws:
            for y in draws[:10]:
                assert same_distribution(x, y) == same_distribution(y, x)
        for x in draws[:10]:
            for y in draws[:10]:
                for z in draws[:10]:
                    if same_distribution(x, y) and same_distribution(y, z):
                        assert same_distribution(x, z)

    def test_same_distribution_across_regroupings(self):
        # equal distributions assembled from different atom groupings: the
        # level 5 carries 0.2 either as one atom or as two 0.1 atoms
        sp = FiniteSpace([0.2, 0.1, 0.1, 0.6])
        x = RandVar(sp, [5.0, 7.0, 7.0, 1.0])
        y = RandVar(sp, [7.0, 5.0, 5.0, 1.0])
        assert same_distribution(x, y)
        z = RandVar(sp, [7.0, 7.0, 5.0, 1.0])
        assert not same_distribution(x, z)


def exact_profile(values: list[float], probs: list[float]) -> tuple[list[float], list[Fraction]]:
    """Distinct values ascending, with their cumulative probabilities as exact rationals."""
    distinct: list[float] = []
    cum: list[Fraction] = []
    acc = Fraction(0)
    for v, p in sorted(zip(values, probs)):
        acc += Fraction(p)
        if distinct and v == distinct[-1]:
            cum[-1] = acc
        else:
            distinct.append(v)
            cum.append(acc)
    return distinct, cum


def first_past(exact_cum: list[Fraction], level: float) -> int:
    """How many runs the walk takes: up to the first whose exact cum exceeds ``level``.

    The last run is pinned to 1, whatever its exact sum.
    """
    return next((k + 1 for k, c in enumerate(exact_cum[:-1]) if c > level), len(exact_cum))


def assert_profile_exact(x: RandVar) -> None:
    distinct, cum = exact_profile(x.values.tolist(), x.space.probs.tolist())
    assert x.profile.values.tolist() == distinct
    # the last entry is pinned to 1; every earlier one is the rounded exact sum
    assert x.profile.cum[:-1].tolist() == [float(c) for c in cum[:-1]]
    assert x.profile.cum[-1] == 1.0


class TestExactProfile:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(1, 50).map(float),
                    st.floats(1e-30, 1.0).map(lambda u: u**8),
                    st.floats(-700.0, 0.0).map(math.exp),
                ),
                # few distinct values, so that atoms share them; -0.0 ties with 0.0
                st.one_of(st.integers(-3, 3).map(float), st.just(-0.0)),
            ),
            min_size=1,
            max_size=40,
        ),
        event=st.sets(st.integers(0, 39)),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_oracle(self, atoms, event, perm_seed):
        total = math.fsum(w for w, _ in atoms)
        raw = np.array([w / total for w, _ in atoms])
        space = FiniteSpace(raw)
        x = RandVar(space, [v for _, v in atoms])
        assert_profile_exact(x)

        perm = np.random.default_rng(perm_seed).permutation(len(atoms))
        y = RandVar(FiniteSpace(raw[perm]), x.values[perm])
        assert y.profile.values.tolist() == x.profile.values.tolist()
        assert y.profile.cum.tolist() == x.profile.cum.tolist()

        event = [i for i in event if i < len(atoms)]
        probs = space.probs.tolist()
        assert space.event_prob(event) == float(sum((Fraction(probs[i]) for i in event), Fraction(0)))

    def test_twenty_thousand_atoms(self):
        rng = np.random.default_rng(20000)
        weights = rng.random(20000) ** 8 + 1e-6
        space = FiniteSpace(weights / math.fsum(weights.tolist()))
        assert_profile_exact(RandVar(space, rng.integers(0, 500, 20000).astype(float)))

    def test_uniform_ten_thousand_atom_grid(self):
        # a uniform grid approximating a continuous law, 513 values over 10^4 atoms
        rng = np.random.default_rng(10_000)
        space = FiniteSpace(np.full(10_000, 1e-4))
        x = RandVar(space, rng.integers(-256, 257, 10_000) / 64)
        assert_profile_exact(x)
        y = RandVar(space, x.values[rng.permutation(10_000)])
        assert y.profile.values.tolist() == x.profile.values.tolist()
        assert y.profile.cum.tolist() == x.profile.cum.tolist()


def walk(space: FiniteSpace, values: np.ndarray, level: float, min_atoms: float) -> tuple[list, list]:
    """``_lower_tail`` with ``VECTOR_MIN_ATOMS`` set to ``min_atoms``: 1 walks in numpy, inf loops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "VECTOR_MIN_ATOMS", min_atoms)
        return _lower_tail(space, values, level)


def signed(values: list[float]) -> list[str]:
    """Each value in hex, so that -0.0 and 0.0 differ."""
    return [v.hex() for v in values]


WALK_WEIGHTS = st.integers(1, 50).map(float) | st.floats(1e-3, 1.0)
#: Weights whose denominators often pass 2**84, where a space has no limbs.
TINY_WEIGHTS = st.floats(1e-30, 1.0).map(lambda u: u**8) | st.floats(-700.0, 0.0).map(math.exp)
WALK_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, math.inf, -math.inf, 1e300, -1e300]),
    st.floats(-1e6, 1e6),
)
WALK_LEVELS = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, math.inf]), st.floats(0.0, 1.0))


def exact_mean(space: FiniteSpace, values: list[float]) -> float:
    """The mean over the stored probabilities in exact rationals, rounded once."""
    nums, den = space.int_probs
    total = sum((m * Fraction(v) for m, v in zip(nums, values)), Fraction(0)) / den
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _around(v: float) -> list[float]:
    return [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]


#: Magnitudes at the TwoProduct guard (|v| <= 2**995, |p * v| >= 2**-960) and the float range's ends.
MEAN_EDGES = sorted(
    {e for v in (2.0**995, 2.0**-960, 2.0**-900, 2.0**-1022, 5e-324, 1.0, sys.float_info.max)
     for e in _around(v) if math.isfinite(e)}
)
MEAN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.tuples(st.sampled_from(MEAN_EDGES), st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1]),
)


class TestCorrectlyRoundedMean:
    """``expectation`` is the exact mean over the stored probabilities, rounded once."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(atoms=st.lists(st.tuples(WALK_WEIGHTS | TINY_WEIGHTS, MEAN_VALUES), min_size=1, max_size=40))
    def test_matches_the_exact_oracle(self, atoms):
        total = math.fsum(w for w, _ in atoms)
        space = FiniteSpace(np.array([w / total for w, _ in atoms]))
        values = [v for _, v in atoms]
        assert expectation(RandVar(space, values)).hex() == exact_mean(space, values).hex()

    @pytest.mark.parametrize("scale", [2.0**995, math.nextafter(2.0**995, math.inf), 2.0**-900, 2.0**-1000])
    def test_each_side_of_the_guard(self, scale):
        rng = np.random.default_rng(21)
        for n in (2, 7, 600):
            w = rng.random(n) + 0.5
            space = FiniteSpace(w / math.fsum(w.tolist()))
            values = (rng.uniform(-1.0, 1.0, n) * scale).tolist()
            assert expectation(RandVar(space, values)).hex() == exact_mean(space, values).hex()

    def test_a_mean_past_the_float_range_is_infinite(self):
        # stored, these probabilities sum past 1 + 2**-53: the mean of max rounds past the range
        weights = np.array([31, 9, 2, 13, 12, 26])
        space = FiniteSpace(weights / weights.sum())
        nums, den = space.int_probs
        assert Fraction(sum(nums), den) > 1 + Fraction(1, 2**53)
        assert expectation(RandVar.constant(space, sys.float_info.max)) == math.inf


class TestNumpyWalk:
    """From ``VECTOR_MIN_ATOMS`` atoms the tail walk runs in numpy; the loop is its oracle."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(WALK_WEIGHTS, WALK_VALUES), min_size=1, max_size=60),
        level=WALK_LEVELS,
    )
    def test_matches_the_loop_and_the_exact_oracle(self, atoms, level):
        total = math.fsum(w for w, _ in atoms)
        space = FiniteSpace(np.array([w / total for w, _ in atoms]))
        values = np.array([v for _, v in atoms])
        distinct, cum = walk(space, values, level, 1)
        loop = walk(space, values, level, math.inf)
        assert (signed(distinct), cum) == (signed(loop[0]), loop[1])
        # every run is stored as its value plus 0.0
        assert all(math.copysign(1.0, v) == 1.0 for v in distinct if v == 0.0)
        # the first run whose exact cum passes the level ends the walk, and it is a
        # prefix of the full profile
        assert all(c <= level for c in cum[:-1])
        full_values, full_cum = walk(space, values, math.inf, 1)
        k = len(cum)
        assert (signed(full_values[:k]), full_cum[:k]) == (signed(distinct), cum)
        assert full_cum[-1] == 1.0
        oracle_values, oracle_cum = exact_profile(values.tolist(), space.probs.tolist())
        assert k == first_past(oracle_cum, level)
        assert full_values == oracle_values
        assert full_cum[:-1] == [float(c) for c in oracle_cum[:-1]]
        for tie in full_cum:  # a run whose cum rounds to the level ends the walk iff it passes it
            assert walk(space, values, tie, 1) == walk(space, values, tie, math.inf)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(weights=st.lists(WALK_WEIGHTS | TINY_WEIGHTS, min_size=1, max_size=60))
    def test_limbs_reassemble_every_numerator(self, weights):
        total = math.fsum(weights)
        space = FiniteSpace(np.array([w / total for w in weights]))
        numerators, denominator = space.int_probs
        if space.limbs is None:
            assert denominator > 2**84
            return
        high, low, k = space.limbs
        assert denominator == 2**k <= 2**84
        assert high.dtype == low.dtype == np.int64
        assert (0 <= low).all() and (low < 2**32).all()
        assert [(h << 32) + lo for h, lo in zip(high.tolist(), low.tolist())] == numerators

    @pytest.mark.parametrize("k", [84, 85])
    def test_limbs_stop_past_a_denominator_of_two_to_the_84(self, k):
        space = FiniteSpace([1.0, 2.0**-k])  # the sum rounds to 1.0
        assert space.int_probs[1] == 2**k
        assert (space.limbs is None) == (k > 84)

    def test_limbs_stop_at_two_to_the_21_atoms(self):
        for n in (2**20, 2**21):
            assert (FiniteSpace(np.full(n, 1.0 / n)).limbs is None) == (n == 2**21)

    def test_a_denominator_past_two_to_the_84_walks_the_loop(self):
        # a weight of 2**-60, renormalized, sets a bit near 2**-113
        rng = np.random.default_rng(84)
        weights = np.concatenate(([2.0**-60], rng.random(999) + 0.5))
        space = FiniteSpace(weights / math.fsum(weights.tolist()))
        assert space.int_probs[1] > 2**84 and space.limbs is None
        x = RandVar(space, rng.integers(-64, 64, 1000) / 64)
        assert_profile_exact(x)
        for level in (0.0, 0.05, 0.5):
            assert walk(space, x.values, level, 1) == walk(space, x.values, level, math.inf)


#: Levels at which the selected walk is checked, besides every run's own cum.
SELECT_LEVELS = (0.0, 1e-9, 0.01, 0.05, 0.1, 0.3, 0.49, 0.5, math.inf)
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, 1e300, -1e300)
#: The distortion mixture of the quote-large benchmark.
BENCH_MIX = ((0.01, 0.5), (0.1, 0.3), (0.5, 0.2))


def dyadic_space(rng: np.random.Generator, values: np.ndarray, tiny_share: float) -> FiniteSpace:
    """Probabilities ``w / 2**B`` summing to 1 exactly, the lowest ``tiny_share`` of atoms tiny.

    The atoms lowest in value weigh 1 to 7 and the others about 2**36, so
    their numerators fill both limbs while ``2**B`` is near ``2**37 * n``.
    The shortfall to a power of two is spread over the others.
    """
    n = values.size
    weights = rng.integers(2**36, 2**37, n)
    tiny = values.argsort(kind="stable")[: int(tiny_share * n)]
    weights[tiny] = rng.integers(1, 8, tiny.size)
    others = np.setdiff1d(np.arange(n), tiny)
    total = int(weights.sum())
    shortfall = (1 << total.bit_length()) - total
    weights[others] += shortfall // others.size
    weights[others[0]] += shortfall % others.size
    return FiniteSpace(weights / float(1 << total.bit_length()))


def traced_tail(space: FiniteSpace, values: np.ndarray, level: float) -> tuple[tuple, list]:
    """``_lower_tail``, and per ``_limb_runs`` call the atoms it summed and whether it found no run."""
    limb_runs = spaces._limb_runs
    calls = []

    def record(space, values, order, level):
        runs = limb_runs(space, values, order, level)
        calls.append((order.size, runs is None))
        return runs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_limb_runs", record)
        return _lower_tail(space, values, level), calls


def expected_calls(values: np.ndarray, level: float, last: float) -> list[tuple[int, bool]]:
    """The ``_limb_runs`` calls of the numpy walk whose last run holds ``last``.

    Below level 0.5 it first sums the atoms at or below the ``m``-th least
    value; it sorts every atom at once when ``m`` reaches ``n``, and after
    that selection when the last run lies past that value.
    """
    n = values.size
    m = int(2.0 * level * n) + 32 if 0.0 <= level < 0.5 else n
    if m >= n:
        return [(n, False)]
    u = np.sort(values)[m - 1]
    selected = int(np.count_nonzero(values <= u))
    return [(selected, False)] if last <= u else [(selected, True), (n, False)]


class TestSelectedWalk:
    """Below level 0.5 the numpy walk sorts only the atoms at or below an order statistic."""

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        n=st.integers(512, 4096),
        seed=st.integers(0, 2**32 - 1),
        ticks=st.integers(4, 512),
        specials=st.integers(0, 8),
        tiny_share=st.sampled_from([None, 0.0, 0.1, 0.5, 0.9]),
    )
    def test_matches_the_full_sort_and_the_loop(self, n, seed, ticks, specials, tiny_share):
        rng = np.random.default_rng(seed)
        values = rng.integers(-ticks, ticks + 1, n) / 64  # a 1/64 grid: ties everywhere
        values[rng.integers(0, n, specials)] = rng.choice(SPECIAL_VALUES, specials)
        if tiny_share is None:
            weights = rng.random(n) + 0.5
            space = FiniteSpace(weights / math.fsum(weights.tolist()))
        else:
            space = dyadic_space(rng, values, tiny_share)
        assert space.limbs is not None
        full_values, full_cum = walk(space, values, math.inf, math.inf)
        for level in SELECT_LEVELS:
            (distinct, cum), calls = traced_tail(space, values, level)
            everything = spaces._limb_runs(space, values, values.argsort(), level)
            loop = walk(space, values, level, math.inf)
            assert (signed(distinct), cum) == (signed(everything[0]), everything[1])
            assert (signed(distinct), cum) == (signed(loop[0]), loop[1])
            assert calls == expected_calls(values, level, distinct[-1])
        # at a run's own cum the walk ends at the first run whose exact cum passes it
        _, exact = exact_profile(values.tolist(), space.probs.tolist())
        for level in full_cum:
            (distinct, cum), calls = traced_tail(space, values, level)
            k = first_past(exact, level)
            assert (signed(distinct), cum) == (signed(full_values[:k]), full_cum[:k])
            assert calls == expected_calls(values, level, distinct[-1])

    def test_each_branch(self):
        n = 2000
        rng = np.random.default_rng(39)
        values = rng.integers(-256, 257, n) / 64
        weights = rng.random(n) + 0.5
        space = FiniteSpace(weights / math.fsum(weights.tolist()))
        tiny = dyadic_space(rng, values, 0.5)  # the 1000 lowest atoms carry some 2**-35 in all
        for sp, vals, level, branch in [
            (space, values, 0.05, "selected"),
            (space, (np.arange(n) % 2) / 64, 0.01, "selected"),  # 1000 atoms tie at the statistic 0.0
            (tiny, values, 0.01, "fallback"),
            (space, values, 0.5, "full"),
            (space, values, math.inf, "full"),
            (space, np.full(n, 0.25), 0.0, "full"),  # every atom ties with the order statistic
        ]:
            runs, calls = traced_tail(sp, vals, level)
            loop = walk(sp, vals, level, math.inf)
            assert (signed(runs[0]), runs[1]) == (signed(loop[0]), loop[1])
            sizes = [size for size, _ in calls]
            taken = "fallback" if len(sizes) == 2 else "full" if sizes == [n] else "selected"
            assert taken == branch
            assert calls == expected_calls(vals, level, runs[0][-1])

    def test_ten_thousand_atoms_match_the_loop(self):
        # aim 1's grid size: a uniform 10**4 grid and a 10**4 random-weight space
        rng = np.random.default_rng(10_000)
        weights = rng.random(10_000) + 0.5
        uniform = FiniteSpace(np.full(10_000, 1e-4))
        for space in (uniform, FiniteSpace(weights / math.fsum(weights.tolist()))):
            assert space.limbs is not None
            x = RandVar(space, rng.integers(-256, 257, 10_000) / 64)

            def quotes():
                return [
                    var(x, Level(0.05)),
                    es(x, Level(0.1)),
                    distortion(x, DistortionWeights(BENCH_MIX)),
                    upper_quantile(x, 0.05),
                    upper_quantile(x, 0.3),
                ]

            numpy = quotes()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spaces, "VECTOR_MIN_ATOMS", math.inf)
                loop = quotes()
            assert [q.hex() for q in numpy] == [q.hex() for q in loop]
            assert traced_tail(space, x.values, 0.05)[1][0][0] < 10_000


class TestSharedWalk:
    """``_walk`` is the one loop walk of ``_lower_tail``: distinct values and their rounded sums."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        atoms=st.lists(st.tuples(WALK_WEIGHTS, WALK_VALUES), min_size=1, max_size=60),
        level=WALK_LEVELS,
    )
    def test_runs_round_their_exact_sums(self, atoms, level):
        total = math.fsum(w for w, _ in atoms)
        space = FiniteSpace(np.array([w / total for w, _ in atoms]))
        values = np.array([v for _, v in atoms])
        vals = values.tolist()
        # tied atoms in either order give the same walk
        order = values.argsort().tolist()
        reverse = sorted(range(len(vals)), key=lambda i: (vals[i], -i))
        distinct, cum = spaces._walk(space, vals, order, level)
        tied = spaces._walk(space, vals, reverse, level)
        assert (signed(distinct), cum) == (signed(tied[0]), tied[1])
        # run k is every atom of the k-th least value, stored plus 0.0; its cum
        # is the exact numerator sum of the atoms up to it, rounded once, or
        # the pinned 1.0 at the end
        runs = sorted(set(vals))
        assert distinct == runs[: len(distinct)]
        assert all(math.copysign(1.0, v) == 1.0 for v in distinct if v == 0.0)
        nums, den = space.int_probs
        for v, c in zip(distinct, cum):
            acc = sum(nums[i] for i in range(len(vals)) if vals[i] <= v)
            assert c == (1.0 if v == runs[-1] else acc / den)
        assert all(c <= level for c in cum[:-1])
        assert cum[-1] > level or len(distinct) == len(runs)
