"""Exact finite-field interpolation oracle for plane and quartic-surface
fat-point linear systems."""
from .config import (
    DEFAULT_BUDGET_ROWS,
    DEFAULT_PRIME,
    DEFAULT_PRIME2,
    DEFAULT_TRIALS,
    BudgetExceededError,
    OracleMeasurement,
    PrimeFieldConfig,
    SamplingError,
    derived_rng,
)
from .field import poly_roots, rank_mod_p
from .planar import measure_planar, planar_condition_rows
from .quartic import (
    QuarticSurfaceInstance,
    SurfacePoint,
    k3_condition_rows,
    measure_k3,
    measure_k3_cross_checked,
    monomial_exponents,
    sample_quartic_instance,
)
from .series import ChartSingularError, solve_implicit

__all__ = [
    "BudgetExceededError",
    "ChartSingularError",
    "DEFAULT_BUDGET_ROWS",
    "DEFAULT_PRIME",
    "DEFAULT_PRIME2",
    "DEFAULT_TRIALS",
    "OracleMeasurement",
    "PrimeFieldConfig",
    "QuarticSurfaceInstance",
    "SamplingError",
    "SurfacePoint",
    "derived_rng",
    "k3_condition_rows",
    "measure_k3",
    "measure_k3_cross_checked",
    "measure_planar",
    "monomial_exponents",
    "planar_condition_rows",
    "poly_roots",
    "rank_mod_p",
    "sample_quartic_instance",
    "solve_implicit",
]
