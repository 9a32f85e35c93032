"""k3fat: dimensions and speciality of homogeneous fat-point linear systems
on generic K3 surfaces, by degeneration recursion, with an exact
finite-field interpolation oracle for independent verification."""
from .core import (
    DimensionReport,
    K3System,
    Status,
    edim,
    point_conditions,
    vdim_k3,
    vdim_planar,
)
from .degeneration import (
    DegenerationStep,
    DegenerationTrace,
    Regime,
    factor_4_9,
    recurse,
)
from .classify import (
    Verdict,
    VerificationOutcome,
    base_gamma4,
    classify,
    verify,
)
from . import oracle
from .oracle import PrimeFieldConfig

__version__ = "0.1.0"
