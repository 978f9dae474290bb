"""Finite probability spaces, random variables, and exact quantile machinery.

Per-quote paths (value checks, comparisons, the sorted tail walk) run
some 10**5 times per hundred CLI checks on spaces of a few atoms, where
numpy's fixed cost per call outweighs the arithmetic.  They use ndarray
methods (``a.argsort()``, ``a.tolist()``) and ``np.count_nonzero``, never
the ``np.<func>`` wrappers or ``.all()``/``.any()`` reductions, which add
microseconds of dispatch per call.  The code path is the same at every
atom count.  A Newton iterate is the hottest of these paths: one argsort
and one walk (:func:`~eligirisk.measures.shortfall_and_slope`, the walk of
:func:`_lower_tail` that also sums p * S1 per run) give the value and the
slope together, on the one ``RandVar`` the iterate builds.

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


class SpaceMismatchError(ValueError):
    """Raised when two random variables do not share a probability space."""


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Atoms with strictly positive probabilities summing to one.

    The raw probabilities must sum to 1 within ``PROB_SUM_TOL``; they are then
    divided by their exact floating-point sum.  The quotients are rounded,
    so the stored probabilities need not sum to 1 (nor, renormalized again,
    give the same space); :func:`_lower_tail` pins the last cumulative
    probability to 1 instead.  Null atoms are rejected at
    construction: with every atom carrying positive mass, "holds almost
    surely" coincides with "holds at every atom" throughout the package.
    Atom identity is positional; labels, if any, are a reporting concern of
    the scenario layer.
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
        numerators are the package's exact event probabilities.
        """
        ratios = [p.as_integer_ratio() for p in self.probs.tolist()]
        denominator = max(den for _, den in ratios)
        return [num * (denominator // den) for num, den in ratios], denominator

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


def _lower_tail(
    space: FiniteSpace, values: np.ndarray, level: float
) -> tuple[list[float], list[float]]:
    """The profile of ``values`` up to and including its first run with ``cum > level``.

    One walk over the atoms in sorted order adds each ``int_probs``
    numerator to an integer and rounds the sum once, when a run of tied
    values ends.  A run is stored as its value plus 0.0, so a zero is +0.0
    whichever sign its atoms have; the tied atoms of a run are then
    interchangeable, and the sort need not be stable.  The last run's
    ``cum`` is pinned to 1.0: the stored probabilities need not sum to
    exactly 1.  Every prefix is the same prefix of the full profile, bit for
    bit.  ``values`` may hold +-inf, which then only orders the atoms.
    """
    nums, den = space.int_probs
    vals = values.tolist()
    order = values.argsort().tolist()
    last = vals[order[0]] + 0.0
    distinct = [last]
    cum: list[float] = []
    acc = 0
    for i in order:
        v = vals[i]
        if v != last:  # the run of the previous value ends: round its sum once
            c = acc / den
            cum.append(c)
            if c > level:
                return distinct, cum
            last = v + 0.0
            distinct.append(last)
        acc += nums[i]
    cum.append(1.0)
    return distinct, cum


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


def expectation(x: RandVar) -> float:
    """Probability-weighted sum of the atom values."""
    return float(np.dot(x.space.probs, x.values))


def upper_quantile(x: RandVar, beta: float) -> float:
    """sup{v : P(X < v) <= beta}, computed exactly from the lower tail up to ``beta``.

    ``beta`` must lie in ``[0, 1)``.  The result is the k-th distinct value
    where ``beta`` falls in ``[cum[k-1], cum[k])``, the last value of the
    walk; no tolerance enters the comparison, since the definition is purely
    order based.
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
