"""Which probability spaces admit a risky asset with an additive quantile rule?

Exhaustive answer for small spaces: a risky eligible asset keeping the
quantile-based requirement comonotonically additive exists iff some event A
with 0 < P(A) <= alpha satisfies P(A) + P(B) <= alpha for every subset B of
its complement with P(B) <= alpha.  Lopsided spaces pass; anything close to
uniform fails, and finer and finer uniform grids approximate the atomless
case, where only risk-free assets ever work.
"""

from eligirisk import (
    AcceptanceSpec,
    EligibleAsset,
    FiniteSpace,
    Level,
    RandVar,
    check_var_condition_b,
    find_additivity_violation,
)

CASES = [
    ("lopsided two atoms", [0.1, 0.9], 0.1),
    ("two stress atoms", [0.05, 0.05, 0.9], 0.05),
    ("tiny tail atom", [0.02, 0.18, 0.8], 0.05),
    ("uniform 10 atoms", [0.1] * 10, 0.05),
    ("uniform 20 atoms", [0.05] * 20, 0.05),
]

for name, probs, alpha in CASES:
    space = FiniteSpace(probs)
    verdict = check_var_condition_b(space, Level(alpha))
    print(f"{name} (alpha = {alpha}): {verdict.verdict}")
    if verdict.passed:
        event = verdict.condition_values["event"]
        payoff = verdict.condition_values["witness_payoff"]
        print(f"    event A = atoms {event} with P(A) = "
              f"{verdict.condition_values['event_prob']:.4f}")
        print(f"    witness asset payoff = {payoff.tolist()}")
    else:
        best = verdict.condition_values["best_total"]
        if best is None:
            print(f"    no event has probability within (0, {alpha}] at all")
        else:
            print(f"    best achievable P(A) + max P(B) = {best:.4f} > {alpha}")

print("\nclose-up on the lopsided space: the constructed asset really is additive")
space = FiniteSpace([0.1, 0.9])
spec = AcceptanceSpec.var_level(0.1)
asset = EligibleAsset(1.0, RandVar(space, [2.0, 1.0]))
report = find_additivity_violation(spec, asset)
print(f"additivity on constructed comonotone pairs: {report.verdict} ({report.samples} priced; "
      "the exact theorem-b test rules out every other pair)")
print("\nfiner uniform grids keep failing, mirroring the atomless limit:")
for n in (4, 8, 12, 16, 20):
    space = FiniteSpace([1.0 / n] * n)
    verdict = check_var_condition_b(space, Level(0.05))
    print(f"  uniform {n:2d}: {verdict.verdict}")
