"""Nash equilibria, admissibility, social-welfare optimum and Price of
Stability for the advisor-customer personal-finance opinion game."""

from .errors import (
    AdvisorGameError,
    DegenerateDenominator,
    DegenerateLeadingCoefficient,
    EqualReturns,
    GridTooLarge,
    InvalidParameter,
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
)
from .equilibria import (
    AdmissibilitySource,
    CriticalZeta,
    EquilibriumPair,
    QuadraticRoots,
    check_admissibility_regions,
    critical_zeta,
    nash_equilibria,
    solve_quadratic,
)
from .welfare import (
    PosFlag,
    QuarticAnalysis,
    WelfareReport,
    classify_quartic,
    maximize_welfare,
    solve_quartic,
)
from .oracle import (
    DynamicsTrace,
    GridSpec,
    best_response_dynamics,
    best_response_gap,
    grid_max_welfare,
    lipschitz_bound,
    perturbation_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
