"""Reference forms of one degeneration step's arithmetic, as the engine once
computed them, for tests to check `degeneration._step` and its helpers
against: a doubling search for the interval ends, the branch vdims from the
core formulas, and the final-step tie-break as a search over the interval.
"""
from k3fat.core import k3_vdim_formula, planar_vdim_formula
from k3fat.degeneration import Regime


def ref_least_k(pred):
    """Smallest k >= 0 with pred(k) true, for a predicate monotone in k."""
    k = 0
    step = 1
    while not pred(k):
        k += step
        step *= 2
    lo, hi = max(0, k - step // 2), k
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def ref_bounds(gamma, d, m, n, c, regime):
    """(k_min, k_max) of one step, each end by a search."""
    b = n // c
    a_num = gamma * d * d + 4
    cm = c * m * (m + 1)
    if regime is Regime.NONNEG:
        k_max = ref_least_k(lambda k: b * (k + 1) * (k + 2) > a_num)
        k_min = ref_least_k(lambda k: k * (k + 3) >= cm - 2)
    else:
        k_min = ref_least_k(lambda k: b * (k + 1) * (k + 2) >= a_num)
        k_max = ref_least_k(lambda k: (k + 1) * (k + 2) > cm)
    return k_min, k_max


def ref_branch_vdims(gamma, d, m, b, c, k):
    """(v_S, v_S_hat, v_P, v_P_hat): the surface branch vdims at
    multiplicities k, k+1 and the unclamped planar vdims at degrees k, k-1."""
    return (
        k3_vdim_formula(gamma, d, k, b),
        k3_vdim_formula(gamma, d, k + 1, b),
        planar_vdim_formula(k, m, c),
        planar_vdim_formula(k - 1, m, c),
    )


def ref_final_k(regime, d, k_min, k_max):
    """The final-step matching degree at gamma = 4 from a non-empty
    interval, by listing the interval: in NONNEG the largest k outside
    {2d-1, 2d} for d >= 2, else k_max; in NEG 2d when admissible."""
    if regime is Regime.NONNEG and d >= 2:
        preferred = [k for k in range(k_min, k_max + 1) if k not in (2 * d - 1, 2 * d)]
        if preferred:
            return max(preferred)
        return k_max
    if regime is Regime.NEG and k_min <= 2 * d <= k_max:
        return 2 * d
    return k_max


def ref_select_k(gamma, d, m, n, c, regime):
    """The matching degree of one step, or None if none is admissible:
    the largest admissible k, apart from the final step over gamma = 4."""
    k_min, k_max = ref_bounds(gamma, d, m, n, c, regime)
    if k_min > k_max:
        return None
    if gamma == 4 and n == c:
        return ref_final_k(regime, d, k_min, k_max)
    return k_max
