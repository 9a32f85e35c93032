"""Invariant and property tests of the integer engine."""
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from k3fat.classify import base_gamma4, classify
from k3fat.core import (
    K3System,
    Status,
    edim,
    point_conditions,
    vdim_k3,
    vdim_planar,
)
from k3fat.degeneration import (
    Regime,
    _identity_holds,
    _least_k,
    _recombine,
    _step,
    factor_4_9,
    recurse,
)
from step_reference import ref_bounds, ref_branch_vdims, ref_least_k

ADMISSIBLE_N = sorted(
    4**u * 9**w for u in range(7) for w in range(4) if 4**u * 9**w <= 5184
)
COMPOSITE_N = [n for n in ADMISSIBLE_N if n > 1]

gammas = st.sampled_from([2, 4, 6, 8, 10])
degrees = st.integers(min_value=1, max_value=20)
mults = st.integers(min_value=1, max_value=10)
counts = st.sampled_from(COMPOSITE_N)
ks = st.integers(min_value=1, max_value=50)


@given(gammas, degrees, mults, counts, ks, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_vdim_identity_property(gamma, d, m, n, k, rnd):
    c = rnd.choice([cc for cc in (4, 9) if n % cc == 0])
    sys = K3System.homogeneous(gamma, d, m, n)
    v = vdim_k3(sys)
    assert _identity_holds(v, n // c, k, ref_branch_vdims(gamma, d, m, n // c, c, k))
    # the step's own vdims, at the degree it chooses, are the same formulas
    b, _, _, k_step, vdims = _step(sys.key, v, c)
    assert vdims == ref_branch_vdims(gamma, d, m, b, c, k_step)


@given(gammas, degrees, mults, st.integers(min_value=0, max_value=5184))
@settings(max_examples=200, deadline=None)
def test_vdim_drops_by_conditions_per_point(gamma, d, m, n):
    sys = K3System.homogeneous(gamma, d, m, n)
    grown = K3System.homogeneous(gamma, d, m, n + 1)
    assert vdim_k3(grown) == vdim_k3(sys) - point_conditions(m)


@given(st.integers(min_value=-100, max_value=100))
def test_edim_idempotent(v):
    assert edim(edim(v)) == edim(v)
    assert edim(v) >= v
    assert edim(v) >= -1


@given(
    st.integers(min_value=-1, max_value=30),
    st.integers(min_value=-1, max_value=30),
    st.integers(min_value=-1, max_value=40),
    st.integers(min_value=-1, max_value=40),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=300, deadline=None)
def test_combine_dims_cross_identity(l_s, l_sh, l_p, l_ph, b, k):
    # when the transversality maximum is attained at the non-(-1) argument,
    # the combination equals l_S + b*(l_P - k)
    r_s, r_p = l_s - l_sh - 1, l_p - l_ph - 1
    l0 = _recombine(l_s, l_sh, l_p, l_ph, b, k)[3]
    if r_s + b * r_p - b * k >= -1:
        assert l0 == l_s + b * (l_p - k)
    else:
        assert l0 == b * (l_ph + 1) + l_sh


def test_select_k_substitution_bulk():
    # every returned k satisfies its regime inequalities; lemma-level check
    rng = Random(20260811)
    seen = {Regime.NONNEG: 0, Regime.NEG: 0}
    while min(seen.values()) < 500:
        gamma = rng.choice([2, 4, 6, 8, 10])
        d = rng.randrange(1, 21)
        m = rng.randrange(1, 11)
        n = rng.choice(COMPOSITE_N)
        c = rng.choice([cc for cc in (4, 9) if n % cc == 0])
        sys = K3System.homogeneous(gamma, d, m, n)
        v = vdim_k3(sys)
        regime = Regime.NONNEG if v >= -1 else Regime.NEG
        k = _step(sys.key, v, c)[3]
        assert k is not None, (gamma, d, m, n, c, regime)
        b = n // c
        half = gamma // 2
        if regime is Regime.NONNEG:
            assert half * d * d + 1 - b * point_conditions(k) >= -1
            assert k * (k + 3) // 2 - c * point_conditions(m) >= -1
        else:
            assert half * d * d + 1 - b * point_conditions(k + 1) <= -1
            assert (k - 1) * (k + 2) // 2 - c * point_conditions(m) <= -1
        seen[regime] += 1


def test_any_admissible_k_certifies_the_same_value():
    # whenever a step through an admissible k validates, the combined value
    # is forced (v in the NONNEG regime), so the tie-break cannot change a
    # certified verdict
    base = lambda gamma, d, mu: base_gamma4(d, mu)
    rng = Random(7)
    checked = 0
    while checked < 150:
        d = rng.randrange(1, 8)
        m = rng.randrange(1, 5)
        n = rng.choice([4, 9, 16, 36])
        sys = K3System.homogeneous(4, d, m, n)
        v = vdim_k3(sys)
        if v < -1:
            continue
        c = 9 if n % 9 == 0 else 4
        b = n // c
        _, k_min, k_max, _, _ = _step(sys.key, v, c)
        for k in range(k_min, k_max + 1):
            rep_s, _ = recurse(K3System.homogeneous(4, d, k, b), base)
            rep_sh, _ = recurse(K3System.homogeneous(4, d, k + 1, b), base)
            if rep_s.status is not Status.NONSPECIAL or rep_sh.status is not Status.NONSPECIAL:
                continue
            l0 = _recombine(
                rep_s.dim, rep_sh.dim,
                edim(vdim_planar(k, m, c)),
                edim(vdim_planar(k - 1, m, c)),
                b, k,
            )[3]
            assert l0 == v, (d, m, n, k)
            checked += 1


def test_covered_neg_region_always_certifies():
    # gamma = 4, v <= -1, and (u > 0 or 2d != 1 mod 3): the recursion itself
    # must reach dim = -1, never UNKNOWN
    base = lambda gamma, d, mu: base_gamma4(d, mu)
    rng = Random(99)
    checked = 0
    while checked < 400:
        d = rng.randrange(1, 15)
        m = rng.randrange(1, 12)
        n = rng.choice(COMPOSITE_N)
        sys = K3System.homogeneous(4, d, m, n)
        v = vdim_k3(sys)
        u, _w = factor_4_9(n)
        if v > -1 or (u == 0 and (2 * d) % 3 == 1):
            continue
        rep, _ = recurse(sys, base)
        assert (rep.dim, rep.status) == (-1, Status.NONSPECIAL), (d, m, n, v)
        checked += 1


def test_classify_matches_recursion_whenever_it_certifies():
    for d in range(1, 8):
        for m in range(1, 5):
            for n in (1, 4, 9, 16, 36, 81, 144):
                sys = K3System.homogeneous(4, d, m, n)
                rep, _ = recurse(sys, lambda g, dd, mu: base_gamma4(dd, mu))
                verdict = classify(sys)
                if rep.is_definite:
                    assert (verdict.dim, verdict.status) == (rep.dim, rep.status)


# --- closed-form k bounds against the doubling search they replaced --------


@given(
    st.sampled_from([4, 9]),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=10**6)),
    st.sampled_from([4, 6, 8]),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**3),
)
@settings(max_examples=500, deadline=None)
def test_closed_form_k_bounds_match_the_search(c, b, gamma, d, m):
    # the step reads the formulas of the regime of the sign of v; the draws
    # fall about evenly on either side
    sys = K3System.homogeneous(gamma, d, m, b * c)
    v = vdim_k3(sys)
    regime = Regime.NONNEG if v >= -1 else Regime.NEG
    bounds = _step(sys.key, v, c)[1:3]
    assert bounds == ref_bounds(gamma, d, m, b * c, c, regime)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=-2, max_value=2))
@settings(max_examples=500, deadline=None)
def test_least_k_at_its_thresholds(t, delta):
    # r next to t(t+3), where the integer guess and the fix-up are decided
    r = t * (t + 3) + delta
    assert _least_k(r) == ref_least_k(lambda k: k * (k + 3) >= r)


def test_least_k_small_thresholds():
    for r in range(-20, 20000):
        assert _least_k(r) == ref_least_k(lambda k: k * (k + 3) >= r)
