import numpy as np
import pytest

from k3fat.classify import classify
from k3fat.core import (
    DimensionReport,
    K3System,
    Status,
    edim,
    planar_vdim_formula,
    point_conditions,
    vdim_k3,
    vdim_planar,
)
from k3fat.oracle import measure_planar


def test_vdim_k3_single_point_wall():
    # vdim of L^4(d, 2d) is 1 - d; at d = 2 that is -1
    sys = K3System.homogeneous(4, 2, 4, 1)
    assert vdim_k3(sys) == -1


def test_vdim_k3_unconditioned():
    assert vdim_k3(K3System(4, 3)) == 19


def test_vdim_k3_nine_double_points():
    assert vdim_k3(K3System.homogeneous(4, 3, 2, 9)) == -8


@pytest.mark.parametrize("v,expected", [(5, 5), (-1, -1), (-8, -1), (0, 0)])
def test_edim(v, expected):
    assert edim(v) == expected


def test_edim_idempotent_and_monotone():
    values = list(range(-20, 21))
    for v in values:
        assert edim(edim(v)) == edim(v)
    images = [edim(v) for v in values]
    assert images == sorted(images)


@pytest.mark.parametrize(
    "delta,mu,nu,expected",
    [(2, 1, 4, 1), (4, 2, 4, 2), (3, 2, 4, -3)],
)
def test_vdim_planar(delta, mu, nu, expected):
    assert vdim_planar(delta, mu, nu) == expected


def test_vdim_planar_negative_degree_convention():
    assert vdim_planar(-1, 3, 4) == -1
    assert vdim_planar(-5, 1, 9) == -1
    # the raw formula used in bookkeeping identities is unclamped
    assert planar_vdim_formula(-1, 1, 4) == -1 - 4
    assert edim(vdim_planar(-1, 3, 4)) == -1


def test_append_point_decreases_vdim_by_conditions():
    for m in (1, 2, 3, 7):
        sys = K3System.homogeneous(4, 5, m, 9)
        extended = K3System.homogeneous(4, 5, m, 10)
        assert vdim_k3(extended) == vdim_k3(sys) - point_conditions(m)


def test_gamma_validation():
    with pytest.raises(ValueError):
        K3System(3, 2)
    with pytest.raises(ValueError):
        K3System(0, 2)
    with pytest.raises(ValueError):
        K3System(4, 0)


def test_system_records_reject_invalid_points(small_cfg):
    # a negative field, or points of multiplicity 0, or a multiplicity
    # without points; the plane system is refused as its pair is read
    for m, n in [(-1, 4), (2, -1), (-1, 0), (0, -1), (0, 4), (2, 0)]:
        with pytest.raises(ValueError):
            K3System(4, 2, m, n)
        with pytest.raises(ValueError):
            vdim_planar(2, m, n)
        with pytest.raises(ValueError):
            measure_planar(2, (m, n), small_cfg)


def test_system_records_read_their_fields_as_ints(small_cfg):
    # a non-integer field fails at construction, not later inside classify
    for args in ((4.0, 3, 1, 4), (4, 2.5, 1, 1), (4, 3, "1", 4), (4, 3, 1, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            K3System(*args)
    # homogeneous reads its pair as integers before it compares them
    for m, n in (("3", 5), (3, "5"), (2.5, 1), (1, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            K3System.homogeneous(4, 2, m, n)
    assert K3System.homogeneous(4, 2, np.int64(0), np.int32(5)).key == (4, 2, 0, 0)
    for delta, m, n in ((2.5, 1, 1), (3, "1", 4), (3, 1, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            vdim_planar(delta, m, n)
        with pytest.raises(ValueError, match="must be an integer"):
            measure_planar(delta, (m, n), small_cfg)
    # numpy integers are stored as ints, so the trace serialises as for ints
    sys = K3System(4, np.int64(3), np.int32(1), np.int64(4))
    assert all(type(x) is int for x in sys.key) and sys == K3System(4, 3, 1, 4)
    assert classify(sys).trace.to_json() == classify(K3System(4, 3, 1, 4)).trace.to_json()
    v = vdim_planar(np.int64(2), np.int64(1), np.int64(4))
    assert type(v) is int and v == 1
    plane = measure_planar(np.int64(2), (np.int64(1), np.int64(4)), small_cfg)
    assert plane == measure_planar(2, (1, 4), small_cfg)
    assert all(type(x) is int for x in (plane.dim, *plane.trial_dims, plane.rows, plane.cols))


def test_homogeneous_constructor_normalizes_empty():
    assert K3System.homogeneous(4, 2, 0, 5).key == (4, 2, 0, 0)
    assert K3System.homogeneous(4, 2, 3, 0).key == (4, 2, 0, 0)
    assert K3System(4, 2).key == (4, 2, 0, 0)
    sys = K3System.homogeneous(4, 2, 3, 5)
    assert (sys.multiplicity, sys.count) == (3, 5) and sys.key == (4, 2, 3, 5)
    for m, n in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError, match="must be non-negative"):
            K3System.homogeneous(4, 2, m, n)


def test_dimension_report_invariants():
    rep = DimensionReport(3, 3, 3, Status.NONSPECIAL)
    assert rep.is_definite
    rep = DimensionReport(-1, -1, 0, Status.SPECIAL)
    assert rep.dim > rep.edim
    rep = DimensionReport(-18, -1, None, Status.UNKNOWN)
    assert not rep.is_definite

    with pytest.raises(ValueError):
        DimensionReport(3, -1, 3, Status.NONSPECIAL)  # edim mismatch
    with pytest.raises(ValueError):
        DimensionReport(3, 3, 4, Status.NONSPECIAL)  # dim != edim
    with pytest.raises(ValueError):
        DimensionReport(3, 3, 3, Status.SPECIAL)  # not above edim
    with pytest.raises(ValueError):
        DimensionReport(3, 3, None, Status.NONSPECIAL)  # missing dim
    with pytest.raises(ValueError):
        DimensionReport(3, 3, 2, Status.NONSPECIAL)  # dim below edim
    with pytest.raises(ValueError, match="carry no dimension"):
        DimensionReport(-18, -1, 0, Status.UNKNOWN)
