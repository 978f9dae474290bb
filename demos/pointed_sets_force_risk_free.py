"""Pointed acceptance sets tolerate no risky funding asset.

When an acceptance set meets its negation only at zero, the requirement can
be comonotonically additive only for a constant asset payoff.  Expected
shortfall and every distortion mixture with mass off the expectation level
are pointed: this script runs the corollary for convex criteria, decided
exactly by the criterion's kind and the payoff, on risky and risk-free
assets and then exhibits concrete violating pairs.
"""

import numpy as np

from eligirisk import (
    AcceptanceSpec,
    DistortionWeights,
    EligibleAsset,
    FiniteSpace,
    RandVar,
    check_corollary_convex,
    decide_risk_invariant,
    es,
    expectation,
    find_additivity_violation,
)
from eligirisk.measures import Level

space = FiniteSpace([0.5, 0.5])
risky = EligibleAsset(1.0, RandVar(space, [1.0, 2.0]))
risk_free = EligibleAsset(1.0, RandVar.constant(space, 2.0))

print("== expected shortfall criterion ==")
spec = AcceptanceSpec.es_level(0.25)

for name, asset in (("risky payoff (1, 2)", risky), ("constant payoff 2", risk_free)):
    verdict = check_corollary_convex(spec, asset)
    w = verdict.condition_values["w_invariant"]
    print(f"{name}: {verdict.verdict}  leveraged payoff = {w.tolist()}")

print("\nwhy: the shortfall of X and of -X always sum strictly positive")
rng = np.random.default_rng(0)
for _ in range(3):
    x = RandVar(space, rng.integers(-8, 9, 2).astype(float))
    while x.is_constant:
        x = RandVar(space, rng.integers(-8, 9, 2).astype(float))
    gap = es(x, Level(0.25)) + es(-x, Level(0.25))
    print(f"  X = {x.tolist()}: ES(X) + ES(-X) = {gap}")

print("risk invariant decision:", decide_risk_invariant(spec, space).note)

print("\nconcrete additivity violation under the risky asset:")
found = find_additivity_violation(spec, risky)
print("  X =", found.witness["x"].tolist(), " Y =", found.witness["y"].tolist(),
      " gap =", found.witness["gap"])

print("\n== distortion mixtures ==")
half_and_half = AcceptanceSpec.distortion_mix(DistortionWeights(((0.25, 0.5), (1.0, 0.5))))
pure_mean = AcceptanceSpec.distortion_mix(DistortionWeights(((1.0, 1.0),)))
print("half shortfall, half mean + risky asset:",
      check_corollary_convex(half_and_half, risky).verdict)
print("pure mean criterion + the same risky asset:",
      check_corollary_convex(pure_mean, risky).verdict,
      "(the expectation kernel is full of risk invariants)")
w = RandVar(space, [1.0, -1.0])
print("  for instance E of", w.tolist(), "and of its negation:",
      expectation(w), expectation(-w))
