from math import comb
from random import Random

import pytest
from series_reference import Series2, binomial_shift, eval_poly3, from_dense, ref_eval_scalar

from k3fat.oracle.field import inverse_mod
from k3fat.oracle.quartic import sample_quartic_instance
from k3fat.oracle.series import ChartSingularError, chart_jets, powers, solve_implicit, triangle

P = 2**31 - 1


def coefficients(psi, z, order):
    """phi = z + psi, for the grid psi of the given order, as a map
    (i, j) -> coefficient over the triangle i + j <= order."""
    assert psi.shape == (order + 1, order + 1) and psi[0, 0] == 0
    return {(i, j): int(psi[i, j]) + (z if (i, j) == (0, 0) else 0) for i, j in triangle(order)}


def solve_run(f, points, order, p=P):
    """psi on a run of points, from the run's jet table: the columns of a
    quartic and the rows the solve reads."""
    return solve_implicit(f, chart_jets(points, 4, max(order, 1), p), order, p)


def solve_at(f, point, order, p=P):
    """phi at one point, z = x3 solved over (x1, x2)."""
    return coefficients(solve_run(f, [point], order, p)[0], point[2], order)


def test_series_arithmetic_basics():
    s = Series2.linear(P, 3, 2, 1, 0)  # 2 + s
    t = Series2.linear(P, 3, 5, 0, 1)  # 5 + t
    prod = s * t
    assert prod.coefficient(0, 0) == 10
    assert prod.coefficient(1, 0) == 5
    assert prod.coefficient(0, 1) == 2
    assert prod.coefficient(1, 1) == 1
    sq = s.pow(2)
    assert sq.coefficient(0, 0) == 4 and sq.coefficient(1, 0) == 4 and sq.coefficient(2, 0) == 1


def test_series_truncation_drops_high_terms():
    s = Series2.linear(P, 1, 0, 1, 1)  # s + t at order 1
    assert (s * s).is_zero()  # all products have degree 2 > order


def test_series_inverse():
    rng = Random(2)
    for _ in range(5):
        data = {(i, j): rng.randrange(P) for i in range(4) for j in range(4 - i)}
        data[(0, 0)] = rng.randrange(1, P)
        u = Series2.from_dict(P, 3, data)
        prod = u * u.inverse()
        assert prod.coefficient(0, 0) == 1
        assert len(prod.coeffs) == 1


def test_solve_implicit_graph_case():
    # f = w - q(u, v): the implicit series is exactly the truncation of q
    rng = Random(4)
    q = {(i, j): rng.randrange(P) for i in range(5) for j in range(5 - i)}
    f = {(i, j, 0): (-c) % P for (i, j), c in q.items()}
    f[(0, 0, 1)] = 1
    phi = solve_at(f, (0, 0, q[(0, 0)]), 3)
    for (i, j), c in q.items():
        if i + j <= 3:
            assert phi[(i, j)] == c % P


def test_solve_implicit_square_root_series():
    # u^2 + v^2 + w^2 - 1 at (0, 0, 1): w = sqrt(1 - u^2 - v^2)
    #   = 1 - (u^2+v^2)/2 - (u^2+v^2)^2/8 - ...
    f = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1}
    phi = solve_at(f, (0, 0, 1), 4)
    inv2 = inverse_mod(2, P)
    inv8 = inverse_mod(8, P)
    assert phi[(0, 0)] == 1
    assert phi[(2, 0)] == (-inv2) % P
    assert phi[(0, 2)] == (-inv2) % P
    assert phi[(1, 1)] == 0
    assert phi[(4, 0)] == (-inv8) % P
    assert phi[(0, 4)] == (-inv8) % P
    assert phi[(2, 2)] == (-2 * inv8) % P


def test_power_tables_evaluate_as_ref_eval_scalar():
    rng = Random(4)
    for _ in range(20):
        f = {(i, j, k): rng.randrange(P)
             for i in range(5) for j in range(5 - i) for k in range(5 - i - j)}
        point = [rng.randrange(P) for _ in range(3)]
        t1, t2, t3 = (powers(x, 4, P) for x in point)
        assert t1 == [pow(point[0], e, P) for e in range(5)]
        from_tables = sum(c * t1[i] * t2[j] * t3[k] for (i, j, k), c in f.items()) % P
        assert from_tables == ref_eval_scalar(f, *point, P)
    assert powers(3, 4, 7) == [1, 3, 2, 6, 4]


def test_solve_implicit_order_one_is_gradient():
    # first-order implicit differentiation: phi = p3 - (f_u/f_w) s - (f_v/f_w) t
    rng = Random(9)
    for _ in range(5):
        f = {(i, j, k): rng.randrange(P)
             for i in range(3) for j in range(3 - i) for k in range(3 - i - j)}
        p1, p2 = rng.randrange(P), rng.randrange(P)
        # force f(p1, p2, 0) = 0 by adjusting the constant term
        f[(0, 0, 0)] = 0
        f[(0, 0, 0)] = (-ref_eval_scalar(f, p1, p2, 0, P)) % P
        fu = sum(i * c * pow(p1, i - 1, P) * pow(p2, j, P)
                 for (i, j, k), c in f.items() if i and not k) % P
        fv = sum(j * c * pow(p1, i, P) * pow(p2, j - 1, P)
                 for (i, j, k), c in f.items() if j and not k) % P
        fw = sum(c * pow(p1, i, P) * pow(p2, j, P)
                 for (i, j, k), c in f.items() if k == 1) % P
        if fw == 0:
            continue
        phi = solve_at(f, (p1, p2, 0), 1)
        inv_fw = inverse_mod(fw, P)
        assert phi[(1, 0)] == (-fu * inv_fw) % P
        assert phi[(0, 1)] == (-fv * inv_fw) % P


def test_solve_implicit_rejects_singular_chart():
    f = {(0, 0, 2): 1}  # w^2: zero w-partial at w = 0
    with pytest.raises(ChartSingularError):
        solve_run(f, [(0, 0, 0)], 2)


def test_local_series_residual_vanishes_on_random_quartics():
    rng = Random(31)
    instance = sample_quartic_instance((4, 3), P, rng)
    f = instance.affine_poly()
    order = instance.multiplicity - 1
    for pt, psi in zip(instance.points, solve_run(f, instance.points, order)):
        phi = coefficients(psi, pt[2], order)
        phi = tuple(phi[ij] for ij in triangle(order))
        assert len(phi) == len(triangle(order))
        assert phi[0] == pt[2]
        # residual check: substitute the series back into the affine quartic
        assert eval_poly3(f, Series2.linear(P, order, pt[0], 1, 0),
                          Series2.linear(P, order, pt[1], 0, 1),
                          from_dense(P, order, phi)).is_zero()


def test_binomial_shift_is_the_taylor_table():
    rng = Random(5)
    for top, kmax in ((0, 0), (3, 1), (4, 4), (6, 2), (2, 5)):
        x = rng.randrange(P)
        table = binomial_shift(x, top, kmax, P)
        assert len(table) == kmax + 1
        for k, row in enumerate(table):
            assert row == [comb(e, k) * x ** (e - k) % P if e >= k else 0
                           for e in range(top + 1)]
    assert binomial_shift(0, 3, 3, P) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                          [0, 0, 0, 1]]


@pytest.mark.parametrize("p", (7, P, 3037000493, 2**61 - 1))
def test_chart_jets_are_the_binomial_shift_tables(p):
    """The whole-run jet tables equal binomial_shift of each point's
    coordinates, for triples and for the plane's pairs, each point's
    coordinates permuted at random, at small, int64 and object primes and
    with kmax above top."""
    rng = Random(p)
    for top, kmax in ((0, 0), (4, 1), (4, 4), (9, 3), (2, 5), (20, 12)):
        for size in (3, 2):
            drawn = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
            points = [tuple(rng.sample(x, size)) for x in drawn]
            jets = chart_jets(points, top, kmax, p)
            assert jets.shape == (len(points), size, kmax + 1, top + 1)
            for n, point in enumerate(points):
                for role, x in enumerate(point):
                    assert jets[n, role].tolist() == binomial_shift(x, top, kmax, p)
