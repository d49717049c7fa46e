"""Long-run control of finite Markov chains under general discounting.

Solvers for the average-reward and risk-sensitive optimality equations,
exact finite-horizon evaluators, and exact large-deviation bound checks for
weighted empirical measures.
"""

from .errors import (
    CheckFailed,
    ConfigError,
    EmptyDeviationSet,
    EnumerationTooLarge,
    GammaNotAllowed,
    GammaOutOfRange,
    InvalidModel,
    KernelNotPositive,
    KernelsNotEquivalent,
    MarginNotSatisfied,
    NoConvergence,
    NotErgodic,
    SolverError,
)
from .model import (
    DiscountSchedule,
    HyperbolicSchedule,
    Model,
    StationaryPolicy,
    TabulatedSchedule,
    TimeVaryingPolicy,
    UnitSchedule,
    density_bounds,
    equivalence_constant,
    ergodicity_coefficient,
    load_model,
    phi_partial_sum,
    risk_contraction_margin,
    save_model,
    span_seminorm,
    validate_schedule,
)
from .average_solver import (
    SpanSolution,
    TimeExtendedSolution,
    cesaro_values,
    invariant_measure,
    poisson_solve,
    policy_enumeration_oracle,
    relative_value_iteration,
    stationary_distribution,
    time_extended_solve,
)
from .risk_solver import (
    RiskTimeExtendedSolution,
    gamma_sweep,
    multiplicative_poisson_solve,
    perron_oracle,
    risk_relative_value_iteration,
    risk_span_bound,
    risk_time_extended_solve,
)
from .evaluator import (
    EvaluationResult,
    SimulationResult,
    discounted_optimality_check,
    exact_discounted_value,
    exact_risk_value,
    random_policy_panel,
    risk_upper_bound_check,
    sandwich_check,
    simulate,
)
from .ldp import (
    RateReport,
    WeightedEmpiricalMeasure,
    deviation_rate_infimum,
    dv_supermartingale_check,
    exact_event_probability,
    ldp_upper_bound_check,
    near_optimality_margin,
    rate_function,
    weighted_empirical,
)

__version__ = "0.1.0"
