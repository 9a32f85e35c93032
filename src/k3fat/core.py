"""Integer dimension formulas and the system records shared by all modules.

Everything here is exact arbitrary-precision integer arithmetic; there is no
floating point anywhere in this module.  A fat point of multiplicity m imposes
m(m+1)/2 linear conditions; virtual dimensions are the ambient dimension minus
the imposed conditions, and the expected dimension clamps at -1 (the empty
system).

A surface system is a homogeneous record of its key: K3System(gamma, d, m, n)
is L^gamma(d, m^n), with m = n = 0 for the unconditioned system.  A plane
system L(delta, m^n) is its three integers, as the engine carries its planar
branches; check_points reads the pair (m, n) for both.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional, Tuple

#: A homogeneous system L^gamma(d, m^n) as (gamma, d, m, n).
Key = Tuple[int, int, int, int]


class Status(Enum):
    """Speciality verdict attached to a dimension report."""

    NONSPECIAL = "NONSPECIAL"
    SPECIAL = "SPECIAL"
    UNKNOWN = "UNKNOWN"
    CONDITIONAL = "CONDITIONAL"


def point_conditions(multiplicity: int) -> int:
    """Number of linear conditions imposed by one point: m(m+1)/2."""
    return multiplicity * (multiplicity + 1) // 2


def as_int(name: str, value) -> int:
    """`value` as a Python int, for an integer of any type (numpy integers
    and bools too); ValueError for anything else, such as 2.5 or "3"."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def index_fields(record, names) -> None:
    """Store the named fields of a frozen dataclass as Python ints (see
    `as_int`), so that a record built from numpy integers compares, hashes
    and serialises like one built from ints."""
    for name in names:
        object.__setattr__(record, name, as_int(name, getattr(record, name)))


def check_points(multiplicity: int, count: int) -> Tuple[int, int]:
    """The point group (m, n) as Python ints (see `as_int`); ValueError
    unless it is (0, 0), no points, or has both entries positive."""
    multiplicity, count = as_int("multiplicity", multiplicity), as_int("count", count)
    if multiplicity < 0 or count < 0 or (multiplicity == 0) != (count == 0):
        raise ValueError("multiplicity and count must be both 0 (no points) or both "
                         f"positive, got {multiplicity} and {count}")
    return multiplicity, count


@dataclass(frozen=True)
class K3System:
    """The system L^gamma(degree, multiplicity^count) of curves of degree d
    through `count` general points of one multiplicity on a generic K3
    surface whose Picard generator has self-intersection gamma.

    gamma is even and >= 2 (gamma = 2g-2 for genus g >= 2); gamma = 4
    corresponds to quartic surfaces in P^3.  multiplicity = count = 0 is the
    unconditioned system of all degree-d curves.
    """

    gamma: int
    degree: int
    multiplicity: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        index_fields(self, (f.name for f in fields(self)))
        if self.gamma < 2 or self.gamma % 2 != 0:
            raise ValueError(f"gamma must be even and >= 2, got {self.gamma}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        check_points(self.multiplicity, self.count)

    @staticmethod
    def homogeneous(gamma: int, degree: int, multiplicity: int, count: int) -> "K3System":
        """Build L^gamma(degree, multiplicity^count); multiplicity 0 or count 0
        normalize to the unconditioned system, and a negative one raises
        ValueError, as does a non-integer one (see `as_int`)."""
        multiplicity, count = as_int("multiplicity", multiplicity), as_int("count", count)
        if multiplicity < 0 or count < 0:
            raise ValueError("multiplicity and count must be non-negative")
        if not (multiplicity and count):
            multiplicity = count = 0
        return K3System(gamma, degree, multiplicity, count)

    @property
    def key(self) -> Key:
        return (self.gamma, self.degree, self.multiplicity, self.count)


def k3_vdim_formula(gamma: int, d: int, multiplicity: int, count: int) -> int:
    """Virtual dimension gamma*d^2/2 + 1 - count*m(m+1)/2 of L^gamma(d, m^count).

    gamma even guarantees integrality of the ambient term.
    """
    return (gamma // 2) * d * d + 1 - count * point_conditions(multiplicity)


def vdim_k3(sys: K3System) -> int:
    """Virtual dimension gamma*d^2/2 + 1 - n*m(m+1)/2."""
    return k3_vdim_formula(*sys.key)


def edim(v: int) -> int:
    """Expected dimension max(v, -1)."""
    return max(v, -1)


def vdim_planar(delta: int, multiplicity: int, count: int) -> int:
    """Virtual dimension delta(delta+3)/2 - count*m(m+1)/2 of L(delta,
    m^count); ValueError for a non-integer argument (see `as_int`) or a pair
    that check_points refuses.

    For delta < 0 the system is empty by convention and -1 is returned, so
    that the combination formulas stay total.
    """
    delta, (multiplicity, count) = as_int("delta", delta), check_points(multiplicity, count)
    if delta < 0:
        return -1
    return planar_vdim_formula(delta, multiplicity, count)


def planar_vdim_formula(delta: int, multiplicity: int, count: int) -> int:
    """Unclamped planar virtual dimension delta(delta+3)/2 - count*m(m+1)/2.

    Unlike vdim_planar this evaluates the raw quadratic for every delta,
    which is what makes the surface/plane bookkeeping identity polynomial
    in the matching degree k.
    """
    return delta * (delta + 3) // 2 - count * point_conditions(multiplicity)


@dataclass(frozen=True)
class DimensionReport:
    """vdim, edim, computed dimension and speciality verdict for one system.

    dim is None exactly when the status is UNKNOWN.  CONDITIONAL marks a
    dimension that is valid only under an assumed single-point base.
    """

    vdim: int
    edim: int
    dim: Optional[int]
    status: Status
    trace: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.edim != max(self.vdim, -1):
            raise ValueError("edim must equal max(vdim, -1)")
        if self.status is Status.UNKNOWN:
            if self.dim is not None:
                raise ValueError("UNKNOWN reports carry no dimension")
            return
        if self.dim is None:
            raise ValueError(f"{self.status.value} reports need a dimension")
        if not (self.vdim <= self.edim <= self.dim):
            raise ValueError("known dimension must satisfy vdim <= edim <= dim")
        if self.status is Status.NONSPECIAL and self.dim != self.edim:
            raise ValueError("NONSPECIAL requires dim == edim")
        if self.status is Status.SPECIAL and self.dim <= self.edim:
            raise ValueError("SPECIAL requires dim > edim")

    @property
    def is_definite(self) -> bool:
        return self.dim is not None

    def with_trace(self, trace) -> "DimensionReport":
        return replace(self, trace=trace)


def report_nonspecial(v: int) -> DimensionReport:
    return DimensionReport(v, edim(v), edim(v), Status.NONSPECIAL)


def report_special(v: int, dim: int) -> DimensionReport:
    return DimensionReport(v, edim(v), dim, Status.SPECIAL)


def report_conditional(v: int) -> DimensionReport:
    return DimensionReport(v, edim(v), edim(v), Status.CONDITIONAL)


def report_unknown(v: int) -> DimensionReport:
    return DimensionReport(v, edim(v), None, Status.UNKNOWN)
