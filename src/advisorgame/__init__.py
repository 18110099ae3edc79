"""Nash equilibria, admissibility, social-welfare optimum and Price of
Stability for the advisor-customer personal-finance opinion game."""

from .errors import (
    AdvisorGameError,
    DegenerateDenominator,
    DegenerateLeadingCoefficient,
    EqualReturns,
    GridTooLarge,
    InvalidParameter,
    MissingEquilibrium,
    NumericalContractError,
    UnsupportedN,
)
from .params import (
    EPS_DEN,
    CustomerSlice,
    HeterogeneousParams,
    ModelParams,
    OpinionProfile,
)
from .model import (
    advisor_best_response,
    advisor_utilities,
    advisor_utility,
    customer_best_response,
    customer_utility,
    social_welfare,
    social_welfare_gradient,
    total_utility,
)
from .equilibria import (
    AdmissibilitySource,
    AdmissibilityThresholds,
    CriticalZeta,
    EquilibriumPair,
    LimitRegime,
    QuadraticRoots,
    admissibility_thresholds,
    check_admissibility_regions,
    critical_zeta,
    limit_equilibria,
    nash_equilibria,
    quadratic_discriminant,
    solve_quadratic,
)
from .welfare import (
    EquilibriumUtilities,
    PosFlag,
    QuarticAnalysis,
    WelfareReport,
    boundary_membership,
    classify_quartic,
    maximize_welfare,
    price_of_stability,
    quartic_coefficients,
    solve_quartic,
    utilities_at_equilibria,
)
from .oracle import (
    DynamicsTrace,
    GridSpec,
    best_response_dynamics,
    grid_max_welfare,
    lipschitz_bound,
    perturbation_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
