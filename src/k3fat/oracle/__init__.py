"""Exact finite-field interpolation oracle for plane and quartic-surface
fat-point linear systems.

The package imports only `config` (primes, budgets, result records), which
needs no numpy.  Every other name of __all__ is resolved on first access
from the submodule that defines it (`field`, `planar`, `quartic` or
`series`, which load numpy) and then cached here, so the engine and the
engine-only commands never load numpy.  `from k3fat.oracle import quartic`
imports a submodule as usual.
"""
import importlib

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

# The submodule that defines each name resolved on first access.
_SUBMODULE = {
    "ChartSingularError": "series",
    "QuarticSurfaceInstance": "quartic",
    "k3_condition_rows": "quartic",
    "measure_k3": "quartic",
    "measure_k3_cross_checked": "quartic",
    "measure_planar": "planar",
    "monomial_exponents": "quartic",
    "planar_condition_rows": "planar",
    "poly_roots": "field",
    "rank_mod_p": "field",
    "sample_quartic_instance": "quartic",
    "solve_implicit": "series",
}


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "DEFAULT_BUDGET_ROWS",
    "DEFAULT_PRIME",
    "DEFAULT_PRIME2",
    "DEFAULT_TRIALS",
    "BudgetExceededError",
    "OracleMeasurement",
    "PrimeFieldConfig",
    "SamplingError",
    "derived_rng",
    *_SUBMODULE,
]
