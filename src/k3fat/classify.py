"""Theorem driver: base-case policies, the gamma = 4 classification of
homogeneous systems with n = 4^u * 9^w points, the 4-and-9-points planar
shortcut, and reconciliation with the finite-field oracle.

For gamma = 4 (quartic surfaces) the single-point systems are fully
classified: L^4(d, mu) is non-special unless mu = 2d and d >= 2, in which
case its unique divisor is d times the nodal tangent-plane section, so the
dimension is 0 while the expected dimension is -1.  On top of that base the
classification of composite systems splits on the sign of the virtual
dimension v:

    v >= -1                              -> non-special, dim = v
    v <= -1 and (u > 0 or 2d != 1 mod 3) -> non-special and empty, dim = -1
    v <= -1, u = 0, 2d = 1 mod 3         -> open; reported UNKNOWN

UNKNOWN verdicts are never silently replaced by oracle measurements; the
oracle value is recorded as clearly-labeled advisory data instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    DimensionReport,
    K3System,
    Status,
    edim,
    planar_dim_nonspecial,
    point_conditions,
    report_conditional,
    report_nonspecial,
    report_special,
    report_unknown,
    vdim_k3,
)
from .degeneration import BaseResolver, EngineError, factor_4_9, recurse


class PolicyKind(Enum):
    GAMMA4_PROVED = "GAMMA4_PROVED"
    HYPOTHESIS = "HYPOTHESIS"
    ORACLE_BACKED = "ORACLE_BACKED"


@dataclass(frozen=True)
class BasePolicy:
    """How single-point systems L^gamma(d, mu) are resolved.

    GAMMA4_PROVED uses the full quartic-surface classification (gamma = 4
    only).  HYPOTHESIS assumes every single-point system is non-special and
    marks all downstream reports CONDITIONAL; it is rejected for gamma = 4,
    where the assumption is known to be false.  ORACLE_BACKED measures each
    leaf with the finite-field oracle (gamma = 4 only; Monte-Carlo evidence,
    not proof).
    """

    kind: PolicyKind
    gamma: Optional[int] = None
    oracle_cfg: Optional[object] = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.HYPOTHESIS:
            if self.gamma is None or self.gamma < 2 or self.gamma % 2 != 0:
                raise ValueError("HYPOTHESIS policy needs an even gamma >= 2")
            if self.gamma == 4:
                raise ValueError(
                    "HYPOTHESIS is unavailable for gamma = 4: single-point "
                    "systems L^4(d, 2d) with d >= 2 are special"
                )
        if self.kind is PolicyKind.ORACLE_BACKED and self.oracle_cfg is None:
            raise ValueError("ORACLE_BACKED policy needs a PrimeFieldConfig")

    def resolver(self) -> BaseResolver:
        if self.kind is PolicyKind.GAMMA4_PROVED:
            def resolve(gamma: int, d: int, mu: int) -> DimensionReport:
                if gamma != 4:
                    raise ValueError("GAMMA4_PROVED resolves gamma = 4 only")
                return base_gamma4(d, mu)
            return resolve
        if self.kind is PolicyKind.HYPOTHESIS:
            def resolve(gamma: int, d: int, mu: int) -> DimensionReport:
                v = (gamma // 2) * d * d + 1 - point_conditions(mu)
                return report_conditional(v)
            return resolve

        def resolve(gamma: int, d: int, mu: int) -> DimensionReport:
            from .oracle import measure_k3

            if gamma != 4:
                raise ValueError("the oracle supports quartic surfaces only")
            v = 2 * d * d + 1 - point_conditions(mu)
            dim = measure_k3(d, [(mu, 1)], self.oracle_cfg).dim
            status = Status.NONSPECIAL if dim == edim(v) else Status.SPECIAL
            return DimensionReport(v, edim(v), dim, status)
        return resolve


GAMMA4_PROVED = BasePolicy(PolicyKind.GAMMA4_PROVED)


def base_gamma4(d: int, mu: int) -> DimensionReport:
    """Classification of the single-point system L^4(d, mu) on a quartic.

    Non-special except at mu = 2d with d >= 2, where the system consists of
    the single divisor d*C for C the tangent-plane section with a node at
    the point: dimension 0 against expected dimension -1.  For mu >= 2d + 1
    the system is empty, since that divisor has multiplicity exactly 2d.
    """
    if d < 1 or mu < 1:
        raise ValueError("d and mu must be positive")
    v = 2 * d * d + 1 - point_conditions(mu)
    if mu == 2 * d and d >= 2:
        return report_special(v, 0)
    return report_nonspecial(v)


def planar_dim_c49(delta: int, mu: int, c: int) -> int:
    """Dimension of the plane system L(delta, mu^c) for c in {4, 9}.

    Homogeneous plane systems with 4 or 9 general points are non-special
    for every degree and multiplicity, so the dimension is max(-1, vdim);
    delta < 0 gives the empty system.
    """
    if c not in (4, 9):
        raise ValueError(f"c must be 4 or 9, got {c}")
    if mu < 1:
        raise ValueError("mu must be positive")
    return planar_dim_nonspecial(delta, mu, c)


def default_policy(gamma: int) -> BasePolicy:
    if gamma == 4:
        return GAMMA4_PROVED
    raise ValueError(
        f"no proved base policy for gamma = {gamma}; pass an explicit "
        "HYPOTHESIS policy to compute conditional reports"
    )


def classify(sys: K3System, policy: Optional[BasePolicy] = None) -> DimensionReport:
    """Classify a homogeneous system with n = 4^u * 9^w points.

    With the proved gamma = 4 policy the verdict follows the quartic-surface
    classification above; the attached degeneration trace shows how far the
    recursion itself certifies the claim.  With a HYPOTHESIS policy every
    verdict is CONDITIONAL on the assumed base non-speciality.
    """
    if not sys.is_homogeneous:
        raise ValueError("classify requires a homogeneous system")
    n = sys.total_points
    uw = factor_4_9(n) if n > 0 else (0, 0)
    if uw is None:
        raise ValueError(f"point count {n} is not of the form 4^u * 9^w")
    if policy is None:
        policy = default_policy(sys.gamma)
    if policy.kind is PolicyKind.GAMMA4_PROVED and sys.gamma != 4:
        raise ValueError("GAMMA4_PROVED policy requires gamma = 4")
    if policy.kind is PolicyKind.HYPOTHESIS and policy.gamma != sys.gamma:
        raise ValueError("HYPOTHESIS policy gamma does not match the system")

    chain_report, trace = recurse(sys, policy.resolver())
    if policy.kind is not PolicyKind.GAMMA4_PROVED:
        return chain_report

    verdict = _gamma4_theorem_verdict(sys, uw)
    if verdict.is_definite and chain_report.is_definite:
        if (verdict.dim, verdict.status) != (chain_report.dim, chain_report.status):
            raise EngineError(
                f"recursion certified {chain_report} against the proved "
                f"classification {verdict} for {sys}"
            )
    if not verdict.is_definite and chain_report.is_definite:
        raise EngineError(
            f"recursion certified {chain_report} inside the open region for {sys}"
        )
    return verdict.with_trace(trace)


def _gamma4_theorem_verdict(sys: K3System, uw) -> DimensionReport:
    u, _w = uw
    d = sys.degree
    n = sys.total_points
    v = vdim_k3(sys)
    if n == 0:
        return report_nonspecial(v)
    if n == 1:
        return base_gamma4(d, sys.multiplicity)
    if v >= -1:
        return report_nonspecial(v)
    if u > 0 or (2 * d) % 3 != 1:
        return report_nonspecial(v)  # empty: dim = edim = -1
    return report_unknown(v)


# ---------------------------------------------------------------------------
# Reconciliation with the oracle


class Verdict(Enum):
    AGREE = "AGREE"
    DISAGREE = "DISAGREE"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class VerificationOutcome:
    kind: Verdict
    oracle_dim: Optional[int] = None
    reason: Optional[str] = None
    low_confidence: bool = False


def verify(sys: K3System, report: DimensionReport, cfg, measure=None) -> VerificationOutcome:
    """Compare an engine report against the finite-field oracle.

    Skipped (with the reason) when the oracle cannot run: gamma != 4 or the
    condition matrix exceeds the size budget.  UNKNOWN reports are always
    measured so the oracle dimension can be recorded as advisory data.
    `measure(d, points, cfg)` supplies the oracle measurement; it defaults
    to measure_k3_cross_checked, and a cache may serve a stored one instead.
    The verdict itself is always computed here, from the current report.
    """
    from .oracle import measure_k3_cross_checked

    if sys.gamma != 4:
        return VerificationOutcome(Verdict.SKIPPED, reason="oracle supports gamma=4 only")
    rows = sum(g.count * point_conditions(g.multiplicity) for g in sys.points)
    d = sys.degree
    cols = (d + 3) * (d + 2) * (d + 1) // 6
    if rows > cfg.budget_rows or cols > cfg.budget_rows:
        return VerificationOutcome(
            Verdict.SKIPPED,
            reason=f"condition matrix {rows}x{cols} exceeds budget {cfg.budget_rows}",
        )
    points = [(g.multiplicity, g.count) for g in sys.points]
    meas = (measure or measure_k3_cross_checked)(d, points, cfg)
    if report.dim is None:
        return VerificationOutcome(
            Verdict.SKIPPED,
            oracle_dim=meas.dim,
            reason="engine reports UNKNOWN; oracle dimension recorded as advisory data",
            low_confidence=meas.low_confidence,
        )
    kind = Verdict.AGREE if meas.dim == report.dim else Verdict.DISAGREE
    return VerificationOutcome(kind, oracle_dim=meas.dim, low_confidence=meas.low_confidence)
