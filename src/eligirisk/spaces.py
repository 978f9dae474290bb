"""Finite probability spaces, random variables, and exact quantile machinery.

Per-quote paths (value checks, comparisons, the sorted tail walk) run
some 10**5 times per hundred CLI checks on spaces of a few atoms, where
numpy's fixed cost per call outweighs the arithmetic.  They use ndarray
methods (``a.argsort()``, ``a.tolist()``) and ``np.count_nonzero``, never
the ``np.<func>`` wrappers or ``.all()``/``.any()`` reductions, which add
microseconds of dispatch per call.  Two loops walk the atoms in sorted
order: :func:`_walk`, the loop of :func:`_lower_tail`, and the fused walk of
a Newton iterate (:func:`~eligirisk.measures.shortfall_and_slope`), the
hottest of these paths.  That one reads the shifted array itself, with no
``RandVar``, and loops at every atom count.

The walk of :func:`_lower_tail` is a Python loop below ``VECTOR_MIN_ATOMS``
atoms and numpy from there (:func:`_numpy_tail`), with the same results bit
for bit.  The numpy walk has a fixed cost of some 20 us.  On random weights
and distinct values (2 shared vCPUs, Python 3.11, numpy 2.4, best of 300
calls, three runs), at 256 atoms the loop took 18-22 us against numpy's
28-36 at level 0.05 and 53-95 against 26-39 at level 0.5; at 512 atoms and
level 0.05, 40-50 against 33-41; at 2000, selecting before the sort cut
numpy's 75-109 us to 53-59.  The loop sums each run's probability as a
Python integer over :attr:`FiniteSpace.int_probs`; numpy sums the numerators
split at 2**32 into two int64 limbs (:attr:`FiniteSpace.limbs`), each sum
exact while it stays below 2**53, and rounds ``high * 2**32 + low`` once, as
the loop rounds ``acc / den``.

Operators adopt the array they allocate; the public constructor copies.
``RandVar(space, values)`` copies and validates foreign input; arithmetic,
``constant`` and ``indicator`` pass the array numpy has just allocated to
``RandVar._fresh``, which keeps the finiteness check (arithmetic can
overflow to inf) and the read-only flag.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "FiniteSpace",
    "RandVar",
    "SortedProfile",
    "SpaceMismatchError",
    "expectation",
    "upper_quantile",
    "essential_infimum",
    "same_distribution",
]

#: Largest tolerated deviation of the raw probability sum from 1.
PROB_SUM_TOL = 1e-12

#: Fewest atoms at which :func:`_lower_tail` walks in numpy (:func:`_numpy_tail`);
#: below it the Python loop is faster (see the module docstring).
VECTOR_MIN_ATOMS = 512


class SpaceMismatchError(ValueError):
    """Raised when two random variables do not share a probability space."""


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Atoms with strictly positive probabilities summing to one.

    The raw probabilities must sum to 1 within ``PROB_SUM_TOL``; they are then
    divided by their exact floating-point sum.  The quotients are rounded,
    so the stored probabilities need not sum to 1 (nor, renormalized again,
    give the same space); the tail walk (:func:`_walk`, or :func:`_numpy_tail`)
    pins the last cumulative probability to 1 instead.  Null atoms are
    rejected at construction: with every atom carrying positive mass,
    "holds almost surely" coincides with "holds at every atom" throughout
    the package.
    Atom identity is positional; labels, if any, are a reporting concern of
    the scenario layer.  The exact numerators of the probabilities are
    cached on first use, as Python integers (:attr:`int_probs`) for the
    loops and as two int64 limbs (:attr:`limbs`) for numpy.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a nonempty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr <= 0.0):
            raise ValueError("every atom probability must be strictly positive")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )
        arr /= total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_atoms(self) -> int:
        return int(self.probs.size)

    def compatible(self, other: "FiniteSpace") -> bool:
        """True when the two spaces are interchangeable (identical atoms)."""
        if self is other:
            return True
        return self.n_atoms == other.n_atoms and not np.count_nonzero(self.probs != other.probs)

    @cached_property
    def int_probs(self) -> tuple[list[int], int]:
        """The stored probabilities as ``(numerators, denominator)``, exactly.

        Floats are dyadic, so over the power-of-two denominator every
        ``probs[i] == numerators[i] / denominator``; integer sums of the
        numerators are the package's exact event probabilities.  The numpy
        walk reads the same numerators as :attr:`limbs`.
        """
        ratios = [p.as_integer_ratio() for p in self.probs.tolist()]
        denominator = max(den for _, den in ratios)
        return [num * (denominator // den) for num, den in ratios], denominator

    @cached_property
    def limbs(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The ``int_probs`` numerators split at 2**32: int64 arrays ``(high, low)`` and ``k``.

        ``numerators[i] == high[i] * 2**32 + low[i]`` over the denominator
        ``2**k``.  Built from ``probs`` in numpy: ``2**-k`` is the least
        significant bit set in any probability, and ``p * 2**(k - 32)`` and
        ``p * 2**k`` are exact, so the floor and the remainder are too.  None
        when a sum of limbs could reach 2**53, where its float would round:
        ``k > 84`` (the high sums stay below about 2**(k - 32)) or 2**21 atoms
        or more (the low sums stay below n * 2**32).
        """
        p = self.probs
        mantissa, exponent = np.frexp(p)
        bits = np.ldexp(mantissa, 53).astype(np.int64)
        lowest = np.frexp((bits & -bits).astype(float))[1] + exponent - 54
        k = -int(lowest.min())
        if k > 84 or p.size >= 1 << 21:
            return None
        high = np.floor(np.ldexp(p, k - 32))
        low = np.ldexp(p, k) - np.ldexp(high, 32)
        return high.astype(np.int64), low.astype(np.int64), k

    def _atom_indices(self, atoms: Iterable[int]) -> list[int]:
        """The distinct atom indices, ascending; each must be an integer in ``[0, n_atoms)``."""
        distinct: set[int] = set()
        for i in atoms:
            try:
                distinct.add(operator.index(i))  # accepts numpy integers, rejects 1.5 and 2.0
            except TypeError:
                raise ValueError(f"atom index {i!r} is not an integer") from None
        idx = sorted(distinct)
        bad = [i for i in idx if not 0 <= i < self.n_atoms]
        if bad:
            raise ValueError(f"atom index {bad[0]} outside [0, {self.n_atoms})")
        return idx

    def event_prob(self, atoms: Iterable[int]) -> float:
        """Probability of the event consisting of the given atom indices."""
        nums, den = self.int_probs
        return sum(nums[i] for i in self._atom_indices(atoms)) / den


@dataclass(frozen=True, eq=False)
class SortedProfile:
    """Distinct values in ascending order with exact cumulative probabilities.

    ``cum[k]`` is the correctly rounded probability of the first ``k + 1``
    distinct values: an exact integer sum over :attr:`FiniteSpace.int_probs`,
    rounded once, hence independent of atom order.  ``cum[-1]`` equals 1
    exactly.  It is the whole law, as :func:`same_distribution` compares it;
    quantiles and shortfall read only the prefix of it up to their level.
    """

    values: np.ndarray
    cum: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.cum.setflags(write=False)


def _limb_runs(
    space: FiniteSpace, values: np.ndarray, order: np.ndarray, level: float
) -> tuple[list[float], list[float]] | None:
    """The runs of ``values[order]`` up to the first with exact cum > ``level``, over the limbs.

    ``order`` sorts atoms closed downward in value.  If they are not all the
    atoms, the last run's ``cum`` is its exact sum, not the pinned 1.0, and
    None means that no run passes the level.
    """
    high, low, k = space.limbs
    sv = values[order]
    ends = (sv[1:] != sv[:-1]).nonzero()[0]  # the last sorted index of each run but the last
    pinned = order.size == values.size
    if not pinned:
        ends = np.append(ends, order.size - 1)
    hi, lo = high[order].cumsum()[ends], low[order].cumsum()[ends]
    cum = np.ldexp(hi * 2.0**32 + lo, -k)
    r = int(cum.searchsorted(level, side="right"))  # the first run with cum > level
    # a run whose cum rounds to the level itself ends the walk iff its exact sum exceeds it
    while r and cum[r - 1] == level and Fraction(int(hi[r - 1]) * 2**32 + int(lo[r - 1]), 2**k) > level:
        r -= 1
    if r == ends.size and not pinned:
        return None
    starts = np.concatenate(([0], ends[:r] + 1))
    cum = cum[: r + 1].tolist() if r < ends.size else cum.tolist() + [1.0]
    return (sv[starts] + 0.0).tolist(), cum


def _numpy_tail(
    space: FiniteSpace, values: np.ndarray, level: float
) -> tuple[list[float], list[float]] | None:
    """The walk of :func:`_lower_tail` in numpy, or None where the space has no limbs.

    Below level 0.5, where ``m = floor(2 * level * n) + 32`` is below ``n``,
    it sorts only the atoms at or below the ``m``-th least value, ties
    included: closed downward in value, they hold whole runs of the full
    profile with the same sums.  If none passes the level, it sorts every
    atom.  Each limb is summed in sorted order in int64, without rounding;
    a run's ``cum`` is ``ldexp(high * 2**32 + low, -k)``, one correctly
    rounded addition of two exact floats, hence the loop's ``acc / den``
    bit for bit.
    """
    if space.limbs is None:
        return None
    m = int(2.0 * level * values.size) + 32 if 0.0 <= level < 0.5 else values.size
    if m < values.size:
        below = (values <= np.partition(values, m - 1)[m - 1]).nonzero()[0]
        runs = _limb_runs(space, values, below[values[below].argsort()], level)
        if runs is not None:
            return runs
    return _limb_runs(space, values, values.argsort(), level)


def _walk(
    space: FiniteSpace, vals: list[float], order: list[int], level: float
) -> tuple[list[float], list[float]]:
    """The loop walk of :func:`_lower_tail` over ``vals`` sorted by ``order``."""
    nums, den = space.int_probs
    last = vals[order[0]] + 0.0
    distinct = [last]
    cum: list[float] = []
    acc = 0
    for i in order:
        v = vals[i]
        if v != last:  # the run of the previous value ends: round its sum once
            c = acc / den
            cum.append(c)
            if c > level or c == level and Fraction(acc, den) > level:
                return distinct, cum
            last = v + 0.0
            distinct.append(last)
        acc += nums[i]
    cum.append(1.0)
    return distinct, cum


def _lower_tail(
    space: FiniteSpace, values: np.ndarray, level: float
) -> tuple[list[float], list[float]]:
    """The profile of ``values`` up to and including its first run with exact cum > ``level``.

    One walk over the atoms in sorted order, :func:`_walk`, adds each
    ``int_probs`` numerator to an integer and rounds the sum once, when a
    run of tied values ends.  Rounding is monotone, so a rounded cum above
    ``level`` is an exact one; only a run whose cum rounds to ``level``
    itself is settled by comparing its exact sum, as a ``Fraction``.  So the
    walk stops where P(X <= v) > level exactly, the paper's VaR set.  A run
    is stored as its value plus 0.0, so a zero is +0.0 whichever sign its
    atoms have; the tied atoms of a run are then interchangeable, and the
    sort need not be stable.  The walk pins
    the last run's ``cum`` to 1.0: the stored probabilities need not sum to
    exactly 1.  Every prefix is the same prefix of the full profile, bit for
    bit.  ``values`` may hold +-inf, which then only orders the atoms.  From
    ``VECTOR_MIN_ATOMS`` atoms the walk runs in numpy (:func:`_numpy_tail`),
    over the limbs of the numerators; below level 0.5 it selects first.
    """
    runs = _numpy_tail(space, values, level) if values.size >= VECTOR_MIN_ATOMS else None
    if runs is not None:
        return runs
    return _walk(space, values.tolist(), values.argsort().tolist(), level)


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, once every value is checked finite."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RandVar:
    """One real value per atom of a finite probability space.

    Instances are immutable and interoperate only when they reference the
    same space.  Arithmetic is atomwise; scalars broadcast.  The constructor
    copies ``values`` and checks its shape and finiteness, so the caller's
    array stays the caller's; arithmetic adopts the array it allocates (see
    :meth:`_fresh`).
    """

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
        if arr.size != self.space.n_atoms:
            raise ValueError(
                f"value vector has length {arr.size}, space has {self.space.n_atoms} atoms"
            )
        object.__setattr__(self, "values", _sealed(arr))

    @classmethod
    def _fresh(cls, space: FiniteSpace, arr: np.ndarray) -> "RandVar":
        """Adopt ``arr`` without a copy or the shape checks.

        ``arr`` must be a one-dimensional float64 array of ``space.n_atoms``
        values that no one else holds: one that numpy has just allocated for
        an operation on values of ``space``.  It is still checked finite.
        """
        x = object.__new__(cls)
        object.__setattr__(x, "space", space)
        object.__setattr__(x, "values", _sealed(arr))
        return x

    @classmethod
    def constant(cls, space: FiniteSpace, c: float) -> "RandVar":
        return cls._fresh(space, np.full(space.n_atoms, float(c)))

    @classmethod
    def indicator(cls, space: FiniteSpace, atoms: Iterable[int]) -> "RandVar":
        v = np.zeros(space.n_atoms)
        v[space._atom_indices(atoms)] = 1.0
        return cls._fresh(space, v)

    @cached_property
    def profile(self) -> SortedProfile:
        values, cum = _lower_tail(self.space, self.values, math.inf)
        return SortedProfile(np.array(values, dtype=float), np.array(cum, dtype=float))

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def is_constant(self) -> bool:
        return not np.count_nonzero(self.values != self.values[0])

    def _other_values(self, other) -> np.ndarray | float:
        if isinstance(other, RandVar):
            if not self.space.compatible(other.space):
                raise SpaceMismatchError("random variables live on different spaces")
            return other.values
        return float(other)

    def __add__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self.values + self._other_values(other))

    __radd__ = __add__

    def __sub__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self.values - self._other_values(other))

    def __rsub__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self._other_values(other) - self.values)

    def __mul__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self.values * self._other_values(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self.values / self._other_values(other))

    def __rtruediv__(self, other) -> "RandVar":
        return RandVar._fresh(self.space, self._other_values(other) / self.values)

    def __neg__(self) -> "RandVar":
        return RandVar._fresh(self.space, -self.values)

    def __ge__(self, other) -> bool:
        """Atomwise domination: self >= other at every atom."""
        # counting the atoms where it holds, not those where it fails, keeps a nan scalar failing
        return bool(np.count_nonzero(self.values >= self._other_values(other)) == self.values.size)

    def __le__(self, other) -> bool:
        return bool(np.count_nonzero(self.values <= self._other_values(other)) == self.values.size)

    def tolist(self) -> list[float]:
        return self.values.tolist()


#: Veltkamp's splitter 2**27 + 1: ``c - (c - a)`` with ``c = SPLIT * a`` holds
#: the high 26 bits of ``a``, and ``a`` minus it the rest, both exactly.
SPLIT = 134217729.0


def _mean(space: FiniteSpace, values: np.ndarray) -> float:
    """sum(p * v) over the stored probabilities, correctly rounded: the one mean.

    It is the exact dot of :attr:`FiniteSpace.int_probs` and ``values``,
    rounded once, on every CPU; a zero mean is +0.0.  Dekker's TwoProduct
    writes each p * v as ``x + e`` exactly (split at 2**27 + 1), and
    ``math.fsum`` rounds the sum of all x and e once (Ogita, Rump and Oishi,
    "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005).
    That holds while no split overflows, |v| <= 2**995, and no error term
    underflows, |p * v| >= 2**-960 for every nonzero v; outside that guard
    the numerators are summed as exact rationals instead.  A Python loop:
    on 3-16 atoms it takes 1.3-5.7 us, where the same steps in numpy took
    11-15 (2 shared vCPUs, Python 3.11, numpy 2.4).
    """
    terms: list[float] = []
    for p, v in zip(space.probs.tolist(), values.tolist()):
        x = p * v
        if not (abs(v) <= 2.0**995 and (abs(x) >= 2.0**-960 or v == 0.0)):
            break
        c = SPLIT * p
        p_high = c - (c - p)
        c = SPLIT * v
        v_high = c - (c - v)
        p_low, v_low = p - p_high, v - v_high
        terms += (x, ((p_high * v_high - x) + p_high * v_low + p_low * v_high) + p_low * v_low)
    else:
        return math.fsum(terms)
    nums, den = space.int_probs
    total = sum(m * Fraction(v) for m, v in zip(nums, values.tolist()))
    try:
        return float(total / den)
    except OverflowError:  # past the float range, the mean rounds to an infinity
        return math.inf if total > 0 else -math.inf


def expectation(x: RandVar) -> float:
    """Probability-weighted sum of the atom values, correctly rounded (:func:`_mean`)."""
    return _mean(x.space, x.values)


def upper_quantile(x: RandVar, beta: float) -> float:
    """sup{v : P(X < v) <= beta}, computed exactly from the lower tail up to ``beta``.

    ``beta`` must lie in ``[0, 1)``.  The result is the first distinct value
    whose exact cumulative probability exceeds ``beta``, the last value of
    the walk: P(X < v) is compared with ``beta`` in exact rationals, where a
    cum rounds to ``beta`` itself, so VaR reads the paper's P(X < 0) <= alpha.
    """
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    return _lower_tail(x.space, x.values, beta)[0][-1]


def essential_infimum(x: RandVar) -> float:
    """Smallest atom value (every atom has positive probability)."""
    return float(x.values.min())


def same_distribution(x: RandVar, y: RandVar) -> bool:
    """True iff the sorted (value, cumulative probability) profiles coincide exactly."""
    if not x.space.compatible(y.space):
        raise SpaceMismatchError("random variables live on different spaces")
    px, py = x.profile, y.profile
    return (
        px.values.size == py.values.size
        and bool(np.all(px.values == py.values))
        and bool(np.all(px.cum == py.cum))
    )
