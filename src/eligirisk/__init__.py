"""Capital-requirement risk measures with general eligible assets on finite
probability spaces.

The package evaluates requirements of the form

    rho(X) = inf{m : X + (m / S0) * S1 acceptable},

where the eligible asset S has price S0 > 0 and strictly positive payoff S1
and acceptability is defined through value-at-risk, expected shortfall,
distortion mixtures, a plain expectation floor, or a user-supplied
decreasing functional.  Alongside the solver it ships exact comonotonicity
tests and executable checkers for the structural results that tie
comonotonic additivity of the requirement to properties of the acceptance
set and of the asset: additivity survives a risky asset only when the set
absorbs the fully leveraged payoff, and never when the set is pointed.
"""

__version__ = "0.1.0"

from .spaces import (
    FiniteSpace,
    RandVar,
    SortedProfile,
    SpaceMismatchError,
    essential_infimum,
    expectation,
    same_distribution,
    upper_quantile,
)
from .measures import (
    DistortionWeights,
    Level,
    distortion,
    es,
    es_choquet_oracle,
    shortfall_and_slope,
    var,
    var_of_ratio,
)
from .acceptance import (
    AcceptanceSpec,
    accepts,
    decide_convex,
    decide_risk_invariant,
    var_loss_limit,
)
from .engine import (
    BracketExpansionError,
    EligibleAsset,
    RiskQuote,
    cash_asset,
    change_numeraire,
    discounted_acceptance,
    rho,
    rho_cash,
)
from .comonotone import (
    additivity_on_S_comonotone,
    comono_preservation_under_numeraire,
    is_comonotone,
)
from .reporting import CheckReport
from .theorems import (
    REFERENCE_VALUES,
    TheoremVerdict,
    absorbs,
    check_corollary_convex,
    check_lemma_equality,
    check_theorem_condition_b,
    check_var_condition_b,
    check_var_necessary_condition,
    decide_by_construction,
    find_additivity_violation,
    run_replication_suite,
)

__all__ = [
    "__version__",
    "FiniteSpace",
    "RandVar",
    "SortedProfile",
    "SpaceMismatchError",
    "expectation",
    "upper_quantile",
    "essential_infimum",
    "same_distribution",
    "Level",
    "DistortionWeights",
    "var",
    "var_of_ratio",
    "es",
    "distortion",
    "shortfall_and_slope",
    "es_choquet_oracle",
    "AcceptanceSpec",
    "accepts",
    "var_loss_limit",
    "decide_convex",
    "decide_risk_invariant",
    "EligibleAsset",
    "RiskQuote",
    "BracketExpansionError",
    "cash_asset",
    "rho",
    "rho_cash",
    "change_numeraire",
    "discounted_acceptance",
    "is_comonotone",
    "additivity_on_S_comonotone",
    "comono_preservation_under_numeraire",
    "CheckReport",
    "TheoremVerdict",
    "absorbs",
    "check_theorem_condition_b",
    "check_corollary_convex",
    "decide_by_construction",
    "check_lemma_equality",
    "check_var_necessary_condition",
    "check_var_condition_b",
    "find_additivity_violation",
    "run_replication_suite",
    "REFERENCE_VALUES",
]
