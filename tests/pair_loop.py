"""The per-pair loop: the oracle of ``theorems.find_additivity_violation``.

The package sweeps a book's pairs in blocks: the comonotone tests and the
sums of a block's pairs at once, then one ordered walk that prices them.
This is the loop it replaced, kept as the tests' oracle: one
``is_comonotone`` sort and one ``RandVar`` sum per pair, every quote through
the memo of ``engine._requirement``.  The sweep must return the same
verdict, samples, witness and gap bits, raise the same exception, and make
the same ``engine.rho`` calls in the same order.
"""

from __future__ import annotations

import numpy as np

from eligirisk import AcceptanceSpec, EligibleAsset, RandVar, is_comonotone
from eligirisk.engine import _requirement
from eligirisk.theorems import (
    ADDITIVITY_THRESHOLD,
    TheoremVerdict,
    _rho_one,
    check_theorem_condition_b,
)


def loop_additivity_violation(
    spec: AcceptanceSpec, asset: EligibleAsset, book=()
) -> TheoremVerdict:
    """``find_additivity_violation`` by one loop over the pairs (book[i], book[j]), i <= j."""
    _rho_one(spec, asset)
    rho_fn = _requirement(spec, asset, 1e-12)
    one = RandVar.constant(asset.payoff.space, 1.0)

    def pairs():
        for i, x in enumerate(book):
            for y in book[i:]:
                yield x, y
        yield one, -one
        if spec.kind == "var":
            stability = check_theorem_condition_b(spec, asset)
            if not stability.passed:
                x = stability.witness["x"]
                yield x, one if stability.witness["direction"] == "+" else -one

    samples = 0
    with np.errstate(over="ignore"):
        for x, y in pairs():
            if not is_comonotone(x, y):
                continue
            samples += 1
            try:
                total = x + y
            except ValueError:
                raise ValueError("the comonotone sum X + Y leaves the float range") from None
            gap = rho_fn(total) - rho_fn(x) - rho_fn(y)
            if abs(gap) > ADDITIVITY_THRESHOLD:
                return TheoremVerdict(
                    "additivity-violation", "fail", samples,
                    witness={"x": x, "y": y, "gap": gap},
                    condition_values={"threshold": ADDITIVITY_THRESHOLD,
                                      "direction": "superadditive" if gap > 0 else "subadditive"},
                    note="verified comonotone pair with non-additive requirement",
                )
    return TheoremVerdict(
        "additivity-violation", "pass", samples,
        condition_values={"threshold": ADDITIVITY_THRESHOLD},
        note="no constructed comonotone pair exceeds the threshold",
    )
