"""Theorem driver: the gamma = 4 classification of homogeneous systems with
n = 4^u * 9^w points, and reconciliation with the finite-field oracle.

The recursion bottoms out in single-point systems L^gamma(d, mu).  For
gamma = 4 (quartic surfaces) they are fully classified: L^4(d, mu) is
non-special unless mu = 2d and d >= 2, in which case its unique divisor is d
times the nodal tangent-plane section, so the dimension is 0 while the
expected dimension is -1.  On top of that base the classification of
composite systems splits on the sign of the virtual dimension v:

    v >= -1                              -> non-special, dim = v
    v <= -1 and (u > 0 or 2d != 1 mod 3) -> non-special and empty, dim = -1
    v <= -1, u = 0, 2d = 1 mod 3         -> open; reported UNKNOWN

Beside the open region, degree monotonicity (not applied yet): a smooth
quartic S is integral, so G -> H G (H a nonzero linear form) embeds
L^4(d, m^n) in L^4(d+1, m^n), whose 2(d+1) = 0 mod 3 puts it in the second
row: empty once v(d+1) = v + 4d + 2 <= -1, and then L^4(d, m^n) is empty
too, dim = edim = -1, with no degeneration step.  For d, m < 40, n <= 1296
that leaves open the hard core L^4(3j+2, (2j+1)^9) and three n = 81 systems.

For gamma != 4 no base is proved: classify(sys, assume_base=True) assumes
every single-point system non-special and reports CONDITIONAL verdicts, and
without it classify refuses.  At gamma = 4 the proved base is always used.

UNKNOWN verdicts are never silently replaced by oracle measurements; verify
records the oracle value as clearly-labeled advisory data instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    DimensionReport,
    K3System,
    k3_vdim_formula,
    report_conditional,
    report_nonspecial,
    report_special,
    report_unknown,
    vdim_k3,
)
from .degeneration import EngineError, recurse


def base_gamma4(d: int, mu: int) -> DimensionReport:
    """Classification of the single-point system L^4(d, mu) on a quartic.

    Non-special except at mu = 2d with d >= 2, where the system consists of
    the single divisor d*C for C the tangent-plane section with a node at
    the point: dimension 0 against expected dimension -1.  For mu >= 2d + 1
    the system is empty, since that divisor has multiplicity exactly 2d.
    """
    if d < 1 or mu < 1:
        raise ValueError("d and mu must be positive")
    v = k3_vdim_formula(4, d, mu, 1)
    if mu == 2 * d and d >= 2:
        return report_special(v, 0)
    return report_nonspecial(v)


def _proved_base(gamma: int, d: int, mu: int) -> DimensionReport:
    return base_gamma4(d, mu)


def _assumed_base(gamma: int, d: int, mu: int) -> DimensionReport:
    return report_conditional(k3_vdim_formula(gamma, d, mu, 1))


def classify(sys: K3System, *, assume_base: bool = False) -> DimensionReport:
    """Classify a homogeneous system with n = 4^u * 9^w points.

    At gamma = 4 the verdict follows the quartic-surface classification
    above, and assume_base has no effect; the attached degeneration trace
    shows how far the recursion itself certifies the claim.  For gamma != 4,
    assume_base=True makes every verdict CONDITIONAL on the assumed
    single-point non-speciality; without it a ValueError is raised.  The
    system itself is validated by the recursion.
    """
    if sys.gamma != 4:
        if not assume_base:
            raise ValueError(
                f"no proved base classification for gamma = {sys.gamma}; pass "
                "assume_base=True to compute CONDITIONAL reports under the "
                "non-special-base hypothesis"
            )
        return recurse(sys, _assumed_base)[0]

    chain_report, trace = recurse(sys, _proved_base)
    verdict = _gamma4_theorem_verdict(sys)
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


def _gamma4_theorem_verdict(sys: K3System) -> DimensionReport:
    _, d, m, n = sys.key
    v = vdim_k3(sys)
    if n == 0:
        return report_nonspecial(v)
    if n == 1:
        return base_gamma4(d, m)
    if v >= -1:
        return report_nonspecial(v)
    if n % 4 == 0 or (2 * d) % 3 != 1:  # u > 0 in n = 4^u * 9^w
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
    """The verdict; over_budget marks a SKIPPED outcome whose condition
    matrix exceeded the configured size budget."""

    kind: Verdict
    oracle_dim: Optional[int] = None
    reason: Optional[str] = None
    low_confidence: bool = False
    over_budget: bool = False


def verify(sys: K3System, report: DimensionReport, cfg, measure=None) -> VerificationOutcome:
    """Compare an engine report against the finite-field oracle.

    Skipped (with the reason) when the oracle cannot run: gamma != 4 or the
    condition matrix exceeds the size budget (the BudgetExceededError of the
    measurement).  UNKNOWN reports are always measured so the oracle
    dimension can be recorded as advisory data.  `measure(d, (m, n), cfg)`
    supplies the oracle measurement; it defaults to measure_k3_cross_checked,
    and a cache may serve a stored one instead.  The verdict itself is always
    computed here, from the current report.
    """
    from .oracle import BudgetExceededError, measure_k3_cross_checked

    if sys.gamma != 4:
        return VerificationOutcome(Verdict.SKIPPED, reason="oracle supports gamma=4 only")
    try:
        meas = (measure or measure_k3_cross_checked)(
            sys.degree, (sys.multiplicity, sys.count), cfg)
    except BudgetExceededError as exc:
        return VerificationOutcome(Verdict.SKIPPED, reason=str(exc), over_budget=True)
    if report.dim is None:
        return VerificationOutcome(
            Verdict.SKIPPED,
            oracle_dim=meas.dim,
            reason="engine reports UNKNOWN; oracle dimension recorded as advisory data",
            low_confidence=meas.low_confidence,
        )
    kind = Verdict.AGREE if meas.dim == report.dim else Verdict.DISAGREE
    return VerificationOutcome(kind, oracle_dim=meas.dim, low_confidence=meas.low_confidence)
