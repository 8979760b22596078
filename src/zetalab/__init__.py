"""zetalab: a desk-scale laboratory for hybrid fourth-moment bounds.

Two halves share one package.  The exact half does rational arithmetic
on exponent pairs: the A/B process calculus, linear-fractional
objectives, and the sigma thresholds the pairs certify for moment
bounds of the zeta function.  The numerical half evaluates zeta, its
functional-equation factor chi, three finite-sum representations with
measured residuals, divisor-weighted exponential sums with an exact
hyperbola cross-check, and the moment integrals themselves with
deterministic panel quadrature.

Asymptotic statements are not verifiable numerically; every harness
here either checks an exact identity, compares against a documented
oracle, or records ratios against fixed bound shapes, which are
regression yardsticks, not theorems.
"""

from .errors import (
    DegenerateFitError,
    DomainError,
    EmptyResultError,
    HypothesisError,
    ParseError,
    PoleError,
    PrecisionError,
    ResourceLimitError,
    ZetalabError,
)
from .pairs import (
    ExponentPair,
    PairSet,
    SEED_PAIRS,
    a_process,
    b_process,
    enumerate_pairs,
    q_family_pair,
)
from .objectives import (
    FractionalObjective,
    LinearConstraint,
    optimize,
    parse_constraint,
    parse_objective,
)
from .thresholds import (
    MuThreshold,
    consistency_check_mu_equals_pair,
    mu_threshold,
    pair_sigma_formula,
    theorem1_pair_sigma,
    theorem1_sigma,
    theorem2_branches,
    theorem2_sigma,
    y_cutoff_exponent,
)
from .zeta import (
    EvalSettings,
    afe_simple,
    afe_zeta_squared,
    chi,
    chi_grid,
    functional_equation_residual,
    smoothed_sum,
    zeta,
    zeta_grid_multi,
)
from .dirichlet import (
    DivisorTable,
    divisor_phase_sum_direct,
    divisor_phase_sum_hyperbola,
)
from .quadrature import QuadratureSettings, integrate, panel_edges, panel_width
from .moments import (
    GrowthFit,
    MomentResult,
    MomentSpec,
    dyadic_scan,
    fit_growth,
    integrate_moment,
    sixth_moment_probe,
    split_i1_i2,
    watt_ratio,
)
from .config import Config, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Config",
    "DegenerateFitError",
    "DivisorTable",
    "DomainError",
    "EmptyResultError",
    "EvalSettings",
    "ExponentPair",
    "FractionalObjective",
    "GrowthFit",
    "HypothesisError",
    "LinearConstraint",
    "MomentResult",
    "MomentSpec",
    "MuThreshold",
    "PairSet",
    "ParseError",
    "PoleError",
    "PrecisionError",
    "QuadratureSettings",
    "ResourceLimitError",
    "SEED_PAIRS",
    "ZetalabError",
    "a_process",
    "afe_simple",
    "afe_zeta_squared",
    "b_process",
    "chi",
    "chi_grid",
    "consistency_check_mu_equals_pair",
    "divisor_phase_sum_direct",
    "divisor_phase_sum_hyperbola",
    "dyadic_scan",
    "enumerate_pairs",
    "fit_growth",
    "functional_equation_residual",
    "integrate",
    "integrate_moment",
    "load_config",
    "mu_threshold",
    "optimize",
    "pair_sigma_formula",
    "panel_edges",
    "panel_width",
    "parse_config",
    "parse_constraint",
    "parse_objective",
    "q_family_pair",
    "sixth_moment_probe",
    "smoothed_sum",
    "split_i1_i2",
    "theorem1_pair_sigma",
    "theorem1_sigma",
    "theorem2_branches",
    "theorem2_sigma",
    "watt_ratio",
    "y_cutoff_exponent",
    "zeta",
    "zeta_grid_multi",
]
