"""Discounting by a risky payoff reshuffles dependence.

Expressing positions in units of the asset payoff turns the asset into
formal cash: the requirement factors exactly through the discounted world.
But comonotonicity does not survive the trip in either direction, so a
"comonotonic" discounted rule has no such meaning for the original
positions.  This script verifies the pricing identity numerically and then
shows witnesses for both failure directions.
"""

import numpy as np

from eligirisk import (
    AcceptanceSpec,
    EligibleAsset,
    FiniteSpace,
    RandVar,
    cash_asset,
    change_numeraire,
    comono_preservation_under_numeraire,
    discounted_acceptance,
    is_comonotone,
    rho,
)

space = FiniteSpace([0.2, 0.3, 0.5])
asset = EligibleAsset(1.0, RandVar(space, [0.5, 1.5, 2.5]))
spec = AcceptanceSpec.es_level(0.3)

print("pricing identity: requirement = price x cash requirement of X / S1")
disc_spec = discounted_acceptance(spec, asset)
cash = cash_asset(space)
rng = np.random.default_rng(7)
for _ in range(4):
    x = RandVar(space, rng.integers(-64, 65, 3) / 16)
    lhs = rho(spec, asset, x, tol=1e-11).value
    rhs = asset.price * rho(disc_spec, cash, change_numeraire(x, asset), tol=1e-11).value
    print(f"  X = {x.tolist()}: direct {lhs:.9f}  vs discounted {rhs:.9f}")

print("\ncomonotonicity is NOT preserved by the change of numeraire:")
report = comono_preservation_under_numeraire(asset)
fw = report.witness["forward"]
rv = report.witness["reverse"]

print("\n(a) comonotone in the discounted world, not in the original one")
print("    X' =", fw["x_discounted"].tolist())
print("    Y' =", fw["y_discounted"].tolist())
print("    comonotone discounted:", is_comonotone(fw["x_discounted"], fw["y_discounted"]))
print("    X = X' * S1 =", fw["x"].tolist())
print("    Y = Y' * S1 =", fw["y"].tolist())
print("    comonotone original:", is_comonotone(fw["x"], fw["y"]))

print("\n(b) not comonotone in the discounted world, comonotone in the original one")
print("    X' =", rv["x_discounted"].tolist())
print("    Y' =", rv["y_discounted"].tolist())
print("    comonotone discounted:", is_comonotone(rv["x_discounted"], rv["y_discounted"]))
print("    X =", rv["x"].tolist(), " Y =", rv["y"].tolist())
print("    comonotone original:", is_comonotone(rv["x"], rv["y"]))

constant = EligibleAsset(1.0, RandVar.constant(space, 2.0))
print("\nwith a constant payoff nothing is reshuffled:",
      comono_preservation_under_numeraire(constant).note)
