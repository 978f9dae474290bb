"""Aggregating comonotone positions can cost MORE capital under a risky asset.

A quantile-based capital rule is additive on comonotone positions when
capital is raised in cash.  Switch the funding instrument to a risky asset
and that bound breaks: this script prices two comonotone positions and
their sum under such an asset and watches the aggregate requirement exceed
the sum of the individual ones.
"""

from eligirisk import (
    AcceptanceSpec,
    EligibleAsset,
    FiniteSpace,
    RandVar,
    find_additivity_violation,
    is_comonotone,
    rho,
    rho_cash,
)

# three scenarios: two stress events of 5% each, one benign bulk
space = FiniteSpace([0.05, 0.05, 0.9])
spec = AcceptanceSpec.var_level(0.05)

# the eligible asset pays double in the second stress event
asset = EligibleAsset(1.0, RandVar(space, [1.0, 2.0, 1.0]))

x = RandVar(space, [-2.0, -3.0, 2.0])
y = RandVar(space, [-4.0, -9.0, 0.0])
print("positions X =", x.tolist(), " Y =", y.tolist())
print("comonotone:", is_comonotone(x, y))

vx = rho(spec, asset, x).value
vy = rho(spec, asset, y).value
vxy = rho(spec, asset, x + y).value
print(f"\nrequirement of X      : {vx}")
print(f"requirement of Y      : {vy}")
print(f"requirement of X + Y  : {vxy}   (> {vx} + {vy} = {vx + vy})")

print("\nunder cash funding the same rule is additive:")
print(f"  cash req X = {rho_cash(spec, x)}, Y = {rho_cash(spec, y)}, "
      f"X+Y = {rho_cash(spec, x + y)}")

# the search builds a non-additive comonotone pair on its own, without
# being handed X and Y (either direction of the inequality counts)
found = find_additivity_violation(spec, asset)
print("\nindependent search verdict:", found.verdict)
print("witness gap:", found.witness["gap"],
      f"({found.condition_values['direction']})")
print("witness X:", found.witness["x"].tolist())
print("witness Y:", found.witness["y"].tolist())
