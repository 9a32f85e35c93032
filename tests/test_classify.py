import pytest

from k3fat.classify import Verdict, _proved_base, base_gamma4, classify, verify
from k3fat.core import K3System, Status, edim, vdim_k3, vdim_planar
from k3fat.degeneration import recurse
from k3fat.oracle import BudgetExceededError, PrimeFieldConfig


def test_base_gamma4_special_wall():
    rep = base_gamma4(3, 6)
    assert (rep.dim, rep.status) == (0, Status.SPECIAL)
    assert rep.edim == -1 and rep.vdim == 1 - 3


def test_base_gamma4_above_wall_empty():
    rep = base_gamma4(3, 7)
    assert (rep.dim, rep.status) == (-1, Status.NONSPECIAL)


def test_base_gamma4_below_wall():
    rep = base_gamma4(3, 5)
    assert (rep.dim, rep.status) == (4, Status.NONSPECIAL)
    assert rep.vdim == 19 - 15


def test_base_gamma4_d1_tangent_section_not_special():
    # mu = 2d at d = 1 is the tangent-plane section: dimension 0 = vdim
    rep = base_gamma4(1, 2)
    assert (rep.dim, rep.status) == (0, Status.NONSPECIAL)


@pytest.mark.parametrize(
    "delta,mu,c,expected",
    [(4, 2, 4, 2), (3, 2, 4, -1), (8, 2, 9, 17)],
)
def test_planar_dim_c49(delta, mu, c, expected):
    # plane systems through 4 or 9 general points are non-special
    assert edim(vdim_planar(delta, mu, c)) == expected


def test_classify_unconditioned_system():
    rep = classify(K3System(4, 3))
    assert (rep.status, rep.dim) == (Status.NONSPECIAL, 19)
    assert [node.kind for node in rep.trace.nodes] == ["unconditioned"]


def test_classify_nonneg_case():
    rep = classify(K3System.homogeneous(4, 4, 2, 9))
    assert (rep.dim, rep.status) == (6, Status.NONSPECIAL)
    # side condition of the endgame: m <= (2d-2)/3 holds
    assert 2 <= (2 * 4 - 2) / 3


def test_classify_neg_covered_case():
    rep = classify(K3System.homogeneous(4, 2, 2, 4))
    assert (rep.dim, rep.status) == (-1, Status.NONSPECIAL)


def test_classify_open_case_reports_unknown():
    rep = classify(K3System.homogeneous(4, 2, 2, 9))
    assert rep.status is Status.UNKNOWN
    assert rep.dim is None


def test_classify_agrees_with_base_on_single_points():
    for d in range(1, 7):
        for mu in range(1, 2 * d + 3):
            rep = classify(K3System.homogeneous(4, d, mu, 1))
            base = base_gamma4(d, mu)
            assert (rep.dim, rep.status) == (base.dim, base.status)


def test_classify_nonspecial_reports_have_dim_edim():
    for d in range(1, 7):
        for m in range(1, 4):
            for n in (1, 4, 9, 16, 36):
                rep = classify(K3System.homogeneous(4, d, m, n))
                if rep.status is Status.NONSPECIAL:
                    assert rep.dim == max(-1, rep.vdim)


def test_classify_is_deterministic():
    sys = K3System.homogeneous(4, 3, 2, 36)
    r1, r2 = classify(sys), classify(sys)
    assert (r1.vdim, r1.edim, r1.dim, r1.status) == (r2.vdim, r2.edim, r2.dim, r2.status)
    assert r1.trace.to_json() == r2.trace.to_json()


def test_classify_theorem_side_condition_chains():
    # n = 4, d >= 2: v >= -1  <=>  m <= d-1  <=>  v >= 1+2d.  (At d = 1 the
    # chain is not needed: no single-point system is special there, so the
    # endgame has no matching degrees to avoid.)
    for d in range(2, 12):
        for m in range(1, 2 * d + 2):
            v = vdim_k3(K3System.homogeneous(4, d, m, 4))
            assert (v >= -1) == (m <= d - 1) == (v >= 1 + 2 * d)
    # n = 9, d >= 4: v >= -1  <=>  3m <= 2d-2  <=>  v >= 2+d
    for d in range(4, 14):
        for m in range(1, 2 * d + 2):
            v = vdim_k3(K3System.homogeneous(4, d, m, 9))
            assert (v >= -1) == (3 * m <= 2 * d - 2) == (v >= 2 + d)
    # n = 9, d <= 3: v >= -1 already forces m <= 1
    for d in (1, 2, 3):
        for m in range(1, 10):
            v = vdim_k3(K3System.homogeneous(4, d, m, 9))
            if v >= -1:
                assert m <= 1


def test_degree_monotonicity_leaves_only_the_hard_core_open():
    # the classify docstring's argument on the sample n = 4^u 9^w in
    # {4, ..., 1296}, 1 <= d, m < 40: an open L^4(d, m^n) is empty when
    # v(d+1, m, n) <= -1, its witness L^4(d+1, m^n) lying outside the open
    # region, and each witness is certified empty by its own trace
    ns = (4, 9, 16, 36, 64, 81, 144, 324, 729, 1296)
    systems = [(d, m, n) for n in ns for d in range(1, 40) for m in range(1, 40)]
    open_systems = [key for key in systems
                    if classify(K3System.homogeneous(4, *key)).status is Status.UNKNOWN]
    witnesses = [K3System.homogeneous(4, d + 1, m, n) for d, m, n in open_systems]
    closed = [(key, w) for key, w in zip(open_systems, witnesses) if vdim_k3(w) <= -1]
    assert (len(systems), len(open_systems), len(closed)) == (15210, 1310, 1295)
    hard_core = [(3 * j + 2, 2 * j + 1, 9) for j in range(1, 13)]
    left = set(open_systems) - {key for key, _ in closed}
    assert sorted(left) == sorted(hard_core + [(20, 4, 81), (29, 6, 81), (38, 8, 81)])
    for key, witness in closed:
        report, _ = recurse(witness, _proved_base)
        assert (report.dim, report.status) == (-1, Status.NONSPECIAL), key


def test_classify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify(K3System.homogeneous(4, 2, 1, 6))
    with pytest.raises(ValueError, match="assume_base"):
        classify(K3System.homogeneous(6, 2, 1, 4))  # no proved base
    with pytest.raises(ValueError):
        classify(K3System.homogeneous(6, 2, 1, 6), assume_base=True)
    with pytest.raises(ValueError, match="d and mu must be positive"):
        base_gamma4(0, 1)


def test_hypothesis_policy_marks_conditional():
    rep = classify(K3System.homogeneous(6, 2, 1, 4), assume_base=True)
    assert rep.status is Status.CONDITIONAL
    assert rep.dim == rep.edim == 9


def test_assume_base_never_applies_the_false_hypothesis_at_gamma4():
    # L^4(2, 4) is the special wall: under the hypothesis it would read
    # CONDITIONAL with dim -1
    sys = K3System.homogeneous(4, 2, 4, 1)
    rep = classify(sys, assume_base=True)
    assert (rep.status, rep.dim) == (Status.SPECIAL, 0)
    assert rep == classify(sys)


def test_verify_agree(small_cfg):
    sys = K3System.homogeneous(4, 2, 2, 4)
    outcome = verify(sys, classify(sys), small_cfg)
    assert outcome.kind is Verdict.AGREE
    assert outcome.oracle_dim == -1


def test_verify_known_special_single_point(small_cfg):
    sys = K3System.homogeneous(4, 1, 2, 1)
    outcome = verify(sys, classify(sys), small_cfg)
    assert outcome.kind is Verdict.AGREE
    assert outcome.oracle_dim == 0


def test_verify_unknown_records_oracle_dim(small_cfg):
    sys = K3System.homogeneous(4, 2, 2, 9)
    rep = classify(sys)
    outcome = verify(sys, rep, small_cfg)
    assert outcome.kind is Verdict.SKIPPED
    assert isinstance(outcome.oracle_dim, int)
    assert rep.status is Status.UNKNOWN and rep.dim is None


def test_verify_skips_non_quartic(small_cfg):
    sys = K3System.homogeneous(6, 2, 1, 4)
    rep = classify(sys, assume_base=True)
    outcome = verify(sys, rep, small_cfg)
    assert outcome.kind is Verdict.SKIPPED
    assert outcome.oracle_dim is None


def test_verify_skips_over_budget():
    cfg = PrimeFieldConfig(budget_rows=10, prime2=None)
    sys = K3System.homogeneous(4, 2, 2, 9)
    outcome = verify(sys, classify(sys), cfg)
    assert outcome.kind is Verdict.SKIPPED
    assert "budget" in outcome.reason


def test_verify_marks_only_budget_skips_over_budget(small_cfg):
    # the marker comes from the measurement's BudgetExceededError, not from
    # the wording of the reason
    def refuse(d, points, cfg):
        raise BudgetExceededError("too large")

    sys = K3System.homogeneous(4, 2, 2, 4)
    outcome = verify(sys, classify(sys), small_cfg, refuse)
    assert (outcome.kind, outcome.over_budget, outcome.reason) == (
        Verdict.SKIPPED, True, "too large")
    rep = classify(K3System.homogeneous(6, 2, 1, 4), assume_base=True)
    assert not verify(K3System.homogeneous(6, 2, 1, 4), rep, small_cfg).over_budget
    assert not verify(sys, classify(sys), small_cfg).over_budget

