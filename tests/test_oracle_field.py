from random import Random

import numpy as np
import pytest
from oracle_reference import non_residue, ref_rank_mod_p

from k3fat.oracle import DEFAULT_PRIME, DEFAULT_PRIME2, field
from k3fat.oracle.field import (
    _BLOCK,
    _INT64_SAFE_PRIME,
    _SLAB,
    _SLAB_ENTRIES,
    _linear_powmod,
    _pdivmod,
    _pgcd,
    _pstrip,
    _quadratic_roots,
    field_dtype,
    matmul_mod_p,
    poly_roots,
    rank_mod_p,
    sqrt_mod,
)
from k3fat.oracle.quartic import k3_condition_rows, sample_quartic_instance

P1 = 2**31 - 1
P2 = 2**61 - 1
P_EDGE = 3037000493  # the largest prime p with p^2 < 2^63
P_TS = 3 * 2**30 + 1  # p - 1 = 3 * 2^30: thirty Tonelli-Shanks levels
SQRT_PRIMES = (10007, P1, P_EDGE, P_TS, P2)
RANK_PRIMES = (10007, P1, P_EDGE, P2)


def _pmul(f, g, p):
    """f * g mod p for ascending coefficient lists, stripped."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = (out[i + j] + fi * gj) % p
    return _pstrip(out)


def test_rank_zero_matrix():
    assert rank_mod_p(np.zeros((4, 7), dtype=np.int64), P1) == 0
    assert rank_mod_p([], P1) == 0


def test_rank_reduces_entries_of_any_size_before_the_cast():
    # 2^70 = 2^8 and 2^64 - 1 = 3 mod 2^31 - 1, so each pair of rows is equal
    assert rank_mod_p([[2**70, 1], [2**8, 1]], P1) == 1
    assert rank_mod_p([[2**70, 1], [2**8, 1]], P2) == 2
    assert rank_mod_p(np.array([[2**64 - 1, 1], [3, 1]], dtype=np.uint64), P1) == 1


def test_rank_refuses_a_matrix_that_is_not_of_integers():
    for m in ([[1.5, 2.0], [3.0, 4.0]], np.eye(3), [["1", "2"]], [[1j, 1]]):
        with pytest.raises(ValueError, match="must be integers"):
            rank_mod_p(m, P1)


def test_rank_refuses_an_array_that_is_not_two_dimensional():
    with pytest.raises(ValueError, match="two-dimensional"):
        rank_mod_p(np.ones((2, 2, 2), dtype=np.int64), P1)


@pytest.mark.parametrize("p", (P1, P2))
def test_rank_refuses_an_object_matrix_that_holds_a_float(p):
    # 2^70 makes the array one of objects; the cast to int64 after the
    # reduction would truncate 1.5 to 1 and give rank 1
    m = np.array([[1.5, 2**70], [1, 2**70]], dtype=object)
    with pytest.raises(ValueError, match="must be integers"):
        rank_mod_p(m, p)
    assert rank_mod_p(np.array([[np.int64(1), 2**70], [True, 2**70]], dtype=object), p) == 1


def test_rank_identity_pattern_padded():
    for r in (1, 3, 5):
        m = np.zeros((r + 2, r + 4), dtype=np.int64)
        for i in range(r):
            m[i, i + 1] = 17
        assert rank_mod_p(m, P1) == r


def test_rank_detects_dependence_only_mod_p():
    # rows differ by a multiple of p: dependent over F_p, independent over Z
    rows = [[1, 2, 3], [1 + P1, 2, 3 + 2 * P1]]
    assert rank_mod_p(rows, P1) == 1


def test_rank_random_consistency_between_dtypes():
    rng = Random(5)
    for _ in range(10):
        rows = rng.randrange(2, 12)
        cols = rng.randrange(2, 12)
        m = [[rng.randrange(1000) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(m, P1) == rank_mod_p(m, P2) == np.linalg.matrix_rank(np.array(m))


def test_default_primes_take_the_int64_path():
    for p in (DEFAULT_PRIME, DEFAULT_PRIME2):
        assert p <= _INT64_SAFE_PRIME
        assert field_dtype(p) is np.int64
    assert field_dtype(P2) is object


def test_rank_int64_edge_matches_object_path(monkeypatch):
    # entries next to p make every product in the elimination close to 2^63
    p = P_EDGE
    assert field_dtype(p) is np.int64
    values = (0, p - 3, p - 2, p - 1)
    rng = Random(19)
    matrices = []
    for _ in range(20):
        n_cols = rng.randrange(2, 16)
        m = [[rng.choice(values) for _ in range(n_cols)] for _ in range(rng.randrange(2, 12))]
        independent_bound = len(m)
        for _ in range(rng.randrange(1, 5)):  # plant dependent rows
            i, j = rng.randrange(len(m)), rng.randrange(len(m))
            if rng.random() < 0.5:
                m.append(list(m[i]))
            else:
                a, b = rng.choice(values[1:]), rng.choice(values[1:])
                m.append([(a * x + b * y) % p for x, y in zip(m[i], m[j])])
        matrices.append((m, independent_bound))
    fast = [rank_mod_p(m, p) for m, _ in matrices]
    assert all(r <= bound for r, (_, bound) in zip(fast, matrices))
    monkeypatch.setattr(field, "field_dtype", lambda p: object)
    assert fast == [rank_mod_p(m, p) for m, _ in matrices]


@pytest.mark.parametrize("p", (P1, P_EDGE, P2))
def test_matmul_mod_p_is_exact(p):
    # entries next to p maximise every limb product, at inner dimensions up
    # to the widest exact int64 product, and past it on the object path
    rng = Random(p)
    values = (0, p - 2, p - 1)
    for inner in (1, 16, 31, 32) + ((33, 64) if field_dtype(p) is object else ()):
        a = [[rng.choice(values) for _ in range(inner)] for _ in range(5)]
        b = [[rng.choice(values) for _ in range(7)] for _ in range(inner)]
        c = [[rng.choice(values) for _ in range(7)] for _ in range(5)]
        expected = (np.array(c, dtype=object)
                    - np.array(a, dtype=object) @ np.array(b, dtype=object)) % p
        got = matmul_mod_p(*(np.array(x, dtype=field_dtype(p)) for x in (c, a, b)), p)
        assert got.dtype == field_dtype(p)
        assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("p", (P1, P_EDGE))
def test_int64_kernel_refuses_an_inner_dimension_above_the_slab(p):
    # past _SLAB a float64 limb sum may pass 2^53 and round; on object
    # arrays the same product stays exact at any width
    c, a, b = (np.full(shape, p - 1, dtype=np.int64)
               for shape in ((2, 3), (2, _SLAB + 1), (_SLAB + 1, 3)))
    with pytest.raises(ValueError, match="inner dimension"):
        matmul_mod_p(c, a, b, p)
    c, a, b = (np.full(shape, p - 1, dtype=object) for shape in ((2, 3), (2, 64), (64, 3)))
    assert matmul_mod_p(c, a, b, p).tolist() == [[(p - 1 - 64 * (p - 1) ** 2) % p] * 3] * 2


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_fused_kernel_with_every_entry_at_p_minus_one(p):
    # the largest limb sums, the largest reduced high-limb sum shifted and
    # the largest c, at the inner dimensions of a Schur step and a slab
    for inner in (1, 16, 32):
        c, a, b = (np.full(shape, p - 1, dtype=field_dtype(p))
                   for shape in ((3, 4), (3, inner), (inner, 4)))
        expected = (c.astype(object) - a.astype(object) @ b.astype(object)) % p
        assert matmul_mod_p(c, a, b, p).tolist() == expected.tolist()


def _sparse(rng, n_rows, n_cols, p):
    """A random matrix mod p with many zeros and units, so that pivots
    inside a leading block often sit off its diagonal."""
    return np.array([[rng.choice((0, 0, 1, p - 1, rng.randrange(p))) for _ in range(n_cols)]
                     for _ in range(n_rows)], dtype=object)


def _low_rank(rng, n_rows, n_cols, rank, p):
    """U . V mod p for sparse U (n_rows x rank) and V (rank x n_cols)."""
    return (_sparse(rng, n_rows, rank, p) @ _sparse(rng, rank, n_cols, p)) % p


def _assert_rank_matches_reference(m, p):
    for matrix in (m, m.T):
        assert rank_mod_p(matrix.tolist(), p) == ref_rank_mod_p(matrix.tolist(), p)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_at_block_seams(p):
    # one row or column either side of one and two leading blocks of 16,
    # at full rank and at ranks on both sides of the block order
    rng = Random(p)
    sizes = (15, 16, 17, 32, 33)
    for n_rows in sizes:
        for n_cols in sizes:
            _assert_rank_matches_reference(_sparse(rng, n_rows, n_cols, p), p)
            for rank in (15, 17):
                _assert_rank_matches_reference(_low_rank(rng, n_rows, n_cols, rank, p), p)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_of_low_rank_products(p):
    rng = Random(p + 1)
    for n_rows, n_cols in ((40, 40), (50, 70), (70, 34)):
        for rank in (1, 3, 16, 20, 33):
            m = _low_rank(rng, n_rows, n_cols, rank, p)
            _assert_rank_matches_reference(m, p)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_multiplies_with_an_inner_dimension_of_at_most_a_block(p, monkeypatch):
    # every product of the elimination, at the block seams and at low rank,
    # is within the one limb product of the int64 kernel
    inner = []
    matmul = field.matmul_mod_p

    def logged(c, a, b, p, **kwargs):
        inner.append(a.shape[1])
        return matmul(c, a, b, p, **kwargs)

    monkeypatch.setattr(field, "matmul_mod_p", logged)
    test_rank_at_block_seams(p)
    test_rank_of_low_rank_products(p)
    assert inner and max(inner) <= _BLOCK <= _SLAB


def _step_orders(monkeypatch):
    """The (k, order of A11) of every step of rank_mod_p from now on: k is
    the number of pivots Gauss-Jordan finds in the leading block."""
    orders = []
    negated_inverse = field._negated_inverse

    def logged(a11, p):
        k, neg_e = negated_inverse(a11, p)
        orders.append((k, a11.shape[0]))
        return k, neg_e

    monkeypatch.setattr(field, "_negated_inverse", logged)
    return orders


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_falls_back_on_a_singular_leading_block_then_takes_schur_steps(p, monkeypatch):
    # the first 16 rows are zero in column 0 and sparse elsewhere: the first
    # step finds no pivot and swaps in the first row below, then Schur steps
    # take 16, 16 and 13 pivots, and zero columns are dropped at the end
    rng = Random(p + 2)
    m = np.array([[rng.randrange(1, p) for _ in range(70)] for _ in range(56)], dtype=object)
    m[:16] = _sparse(rng, 16, 70, p)
    m[:16, 0] = 0
    m[40:] = _low_rank(rng, 16, 70, 5, p)  # rank 45 of 56
    orders = _step_orders(monkeypatch)
    assert rank_mod_p(m.tolist(), p) == ref_rank_mod_p(m.tolist(), p) == 45
    assert [k for k, _ in orders[:4]] == [0, 16, 16, 13]
    assert sum(k for k, _ in orders) == 45


@pytest.mark.parametrize("p", RANK_PRIMES)
@pytest.mark.parametrize("stop", (1, 7, 15))
def test_rank_when_the_leading_block_stops_early(p, stop, monkeypatch):
    # column `stop` of the first 16 rows is a combination of the columns
    # before it, so the first step takes `stop` pivots and moves the other
    # rows of its strip under the dense, full-rank rows below
    rng = Random(p + stop)
    m = np.array([[rng.randrange(1, p) for _ in range(60)] for _ in range(40)], dtype=object)
    m[:16, stop] = m[:16, :stop] @ [rng.randrange(p) for _ in range(stop)] % p
    orders = _step_orders(monkeypatch)
    assert rank_mod_p(m.tolist(), p) == ref_rank_mod_p(m.tolist(), p) == 40
    assert orders[0] == (stop, 16)
    assert sum(k for k, _ in orders) == 40


@pytest.mark.parametrize("p", RANK_PRIMES)
@pytest.mark.parametrize("col", (0, 25))
def test_rank_with_a_column_that_is_zero_in_every_row(p, col, monkeypatch):
    # the dense rows reach the zero column with a step of order 0, which
    # finds it zero in the whole block and drops it
    rng = Random(p + col)
    m = np.array([[rng.randrange(1, p) for _ in range(50)] for _ in range(30)], dtype=object)
    m[:, col] = 0
    orders = _step_orders(monkeypatch)
    assert rank_mod_p(m.tolist(), p) == ref_rank_mod_p(m.tolist(), p) == 30
    assert any(k == 0 for k, _ in orders)
    m = _low_rank(rng, 30, 50, 20, p)
    m[:, col] = 0
    _assert_rank_matches_reference(m, p)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_swaps_in_a_row_from_below_a_leading_block_with_column_0_zero(p):
    # column 0 is nonzero only in row 20, which is zero elsewhere: dropping
    # the column in place of swapping that row in would lose a pivot
    rng = Random(p + 4)
    m = _sparse(rng, 30, 40, p)
    m[:, 0] = 0
    m[20] = 0
    m[20, 0] = rng.randrange(1, p)
    _assert_rank_matches_reference(m, p)


@pytest.mark.parametrize("p", RANK_PRIMES)
@pytest.mark.parametrize("d", (5, 10))
def test_rank_of_the_rows_of_a_wall(p, d, monkeypatch):
    # one point of multiplicity 2d: L^4(d, 2d^1) has dimension 0, so its
    # rows have rank one below the column count, and a leading block on
    # the way is singular
    instance = sample_quartic_instance((2 * d, 1), p, Random(p))
    rows = np.array(k3_condition_rows(d, instance))
    orders = _step_orders(monkeypatch)
    assert rank_mod_p(rows, p) == ref_rank_mod_p(rows, p) == rows.shape[1] - 1
    assert any(0 < k < size for k, size in orders)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_of_a_zero_schur_complement(p):
    # [[A11, A11 X], [W A11, W A11 X]] = [I; W] A11 [I, X] has rank 16, and
    # its Schur complement A22 - A21 A11^-1 A12 is zero; A11 is a permuted
    # triangle, so its inverse needs row swaps
    rng = Random(p + 3)
    tri = np.array([[rng.randrange(1, p) if j == i else rng.randrange(p) if j > i else 0
                     for j in range(16)] for i in range(16)], dtype=object)
    order = list(range(16))
    rng.shuffle(order)
    a11 = tri[order]
    x = _sparse(rng, 16, 30, p)
    w = _sparse(rng, 20, 16, p)
    top = np.hstack((a11, a11 @ x % p))
    m = np.vstack((top, w @ top % p))
    assert rank_mod_p(m.tolist(), p) == ref_rank_mod_p(m.tolist(), p) == 16


# 256 columns right of the leading block: its Schur step updates the rows
# below it in slabs of 64 rows
SLAB_WIDTH = 256
SLAB_HEIGHT = _SLAB_ENTRIES // SLAB_WIDTH


@pytest.mark.parametrize("p", RANK_PRIMES)
@pytest.mark.parametrize("below", (SLAB_HEIGHT - 1, SLAB_HEIGHT, SLAB_HEIGHT + 1))
def test_rank_updates_the_rows_below_the_block_one_slab_at_a_time(p, below, monkeypatch):
    # a leading block of 16 rows over `below` rows, SLAB_WIDTH columns right
    # of it: the first Schur step updates those rows in place, one product
    # per slab, and no product has more entries than a slab.  Dense at full
    # rank (also transposed), at low rank, and with a singular leading block
    # (column 5 of its rows a combination of the columns before it), each
    # matches the reference
    rng = Random(p + below)
    n_rows, n_cols = _BLOCK + below, _BLOCK + SLAB_WIDTH
    products = []
    matmul = field.matmul_mod_p

    def logged(c, a, b, p, **kwargs):
        products.append(c.shape)
        return matmul(c, a, b, p, **kwargs)

    monkeypatch.setattr(field, "matmul_mod_p", logged)
    dense = np.array([[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)],
                     dtype=object)
    assert rank_mod_p(dense.tolist(), p) == ref_rank_mod_p(dense.tolist(), p) == n_rows
    # Y, then the slabs of the first step
    slabs = [(min(SLAB_HEIGHT, below - lo), SLAB_WIDTH) for lo in range(0, below, SLAB_HEIGHT)]
    assert products[:1 + len(slabs)] == [(_BLOCK, SLAB_WIDTH)] + slabs
    assert rank_mod_p(dense.T.tolist(), p) == n_rows
    low = _low_rank(rng, n_rows, n_cols, 40, p)
    expected = ref_rank_mod_p(low.tolist(), p)
    assert rank_mod_p(low.tolist(), p) == rank_mod_p(low.T.tolist(), p) == expected
    singular = dense.copy()
    singular[:_BLOCK, 5] = singular[:_BLOCK, :5] @ [rng.randrange(p) for _ in range(5)] % p
    orders = _step_orders(monkeypatch)
    assert rank_mod_p(singular.tolist(), p) == ref_rank_mod_p(singular.tolist(), p)
    assert orders[0] == (5, _BLOCK)
    assert max(rows * cols for rows, cols in products) <= _SLAB_ENTRIES


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_moves_the_rows_below_a_singular_block_up_across_slabs(p, monkeypatch):
    # two slabs and 9 rows below the leading block: the first step takes 5
    # pivots (column 5 of the first 16 rows is a combination of the columns
    # before it), so each of its three slab products writes 11 rows above
    # the slab it reads, and Y[5:] goes under them.  Wide and tall, and at
    # low rank, where later leading blocks are singular too, each matches
    # the reference
    rng = Random(p + 7)
    below = 2 * SLAB_HEIGHT + 9
    n_rows, n_cols = _BLOCK + below, 5 + SLAB_WIDTH
    moved = []
    matmul = field.matmul_mod_p

    def logged(c, a, b, p, **kwargs):
        if kwargs.get("out") is not None:
            moved.append(kwargs["out"].ctypes.data != c.ctypes.data)
        return matmul(c, a, b, p, **kwargs)

    monkeypatch.setattr(field, "matmul_mod_p", logged)
    singular = np.array([[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)],
                        dtype=object)
    singular[:_BLOCK, 5] = singular[:_BLOCK, :5] @ [rng.randrange(p) for _ in range(5)] % p
    orders = _step_orders(monkeypatch)
    expected = ref_rank_mod_p(singular.tolist(), p)
    assert rank_mod_p(singular.tolist(), p) == expected
    assert orders[0] == (5, _BLOCK)
    assert moved[:3] == [True] * 3
    assert rank_mod_p(singular.T.tolist(), p) == expected
    orders.clear()
    low = _low_rank(rng, n_rows, n_cols, 40, p)
    expected = ref_rank_mod_p(low.tolist(), p)
    assert rank_mod_p(low.tolist(), p) == rank_mod_p(low.T.tolist(), p) == expected
    assert any(0 < k < size for k, size in orders)


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_never_writes_the_callers_matrix(p):
    # unreduced entries, negative and past p, in a wide and a tall array and
    # in a list of row views of one array (what k3_condition_rows returns),
    # of int64 and of objects: the rank reduces its own copy
    rng = Random(p + 6)
    for n_rows, n_cols in ((20, 50), (50, 20)):
        m = np.array([[rng.randrange(-2 * p, 2 * p) for _ in range(n_cols)]
                      for _ in range(n_rows)], dtype=np.int64)
        expected = ref_rank_mod_p(m.tolist(), p)
        for matrix in (m, m.astype(object)):
            before = matrix.copy()
            assert rank_mod_p(matrix, p) == expected
            assert rank_mod_p(list(matrix), p) == expected
            assert np.array_equal(matrix, before)


def test_rank_transpose_invariance():
    rng = Random(11)
    m = [[rng.randrange(P1) for _ in range(5)] for _ in range(40)]
    assert rank_mod_p(m, P1) == rank_mod_p(list(map(list, zip(*m))), P1)


def _brute_roots(coeffs, p):
    return sorted(
        x for x in range(p)
        if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
    )


def test_poly_roots_brute_force_small_prime():
    # monic quartics with 0 to 4 planted roots, repeats allowed, times a
    # random monic factor of the remaining degree
    p = 10007
    rng = Random(3)
    for _ in range(25):
        f = [rng.randrange(p) for _ in range(rng.randrange(5))] + [1]
        while len(f) < 5:
            f = _pmul(f, [rng.randrange(p), 1], p)
        assert poly_roots(f, p, Random(0)) == _brute_roots(f, p)


def test_poly_roots_constructed_large_prime():
    rng = Random(7)
    for p in (P1, P_EDGE, P2):
        # (T - r1)(T - r2)(T^2 - c) with c a non-residue: T^2 - c is
        # irreducible and contributes no roots (at P_EDGE = 1 mod 4, -1 is a
        # square and T^2 + 1 would split)
        c = non_residue(p, start=rng.randrange(2, 1000))
        for _ in range(5):
            r1, r2 = rng.randrange(p), rng.randrange(p)
            f = _pmul(_pmul([(-r1) % p, 1], [(-r2) % p, 1], p), [p - c, 0, 1], p)
            assert poly_roots(f, p, Random(1)) == sorted({r1, r2})


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_sqrt_mod_squares_zero_and_non_residues(p):
    rng = Random(p)
    assert sqrt_mod(0, p) == 0
    assert sqrt_mod(p, p) == 0
    for x in [1, 2, p - 1, p - 2] + [rng.randrange(1, p) for _ in range(200)]:
        assert sqrt_mod(x * x, p) in (x, p - x)
    for _ in range(50):
        c = non_residue(p, start=rng.randrange(2, p - 1))
        assert sqrt_mod(c, p) is None
        assert sqrt_mod(c * rng.randrange(1, p) ** 2, p) is None
    if p % 4 == 3:
        assert sqrt_mod(p - 1, p) is None
    else:
        assert sqrt_mod(p - 1, p) ** 2 % p == p - 1


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_quadratic_roots_need_two_distinct_roots(p):
    r1, r2 = 5, p - 12
    assert sorted(_quadratic_roots(_pmul([p - r1, 1], [p - r2, 1], p), p)) == sorted((r1, r2))
    with pytest.raises(ArithmeticError):  # (T - 5)^2: a double root
        _quadratic_roots(_pmul([p - r1, 1], [p - r1, 1], p), p)
    with pytest.raises(ArithmeticError):  # T^2 - c for a non-residue c: no root
        _quadratic_roots([p - non_residue(p), 0, 1], p)


def test_quadratic_roots_are_checked(monkeypatch):
    # a wrong square root gives roots that do not solve the quadratic
    p = P1
    g = _pmul([p - 5, 1], [p - 7, 1], p)
    monkeypatch.setattr(field, "sqrt_mod", lambda a, p: 1)
    with pytest.raises(ArithmeticError, match="do not solve"):
        _quadratic_roots(g, p)


def test_poly_roots_repeated_root():
    # (T - r)^2 (T^2 - c) with c a non-residue, and (T - r)^4: the root
    # part is T - r in both
    p = P1
    r = 123456789
    square = _pmul([(-r) % p, 1], [(-r) % p, 1], p)
    for f in (_pmul(square, [p - non_residue(p), 0, 1], p), _pmul(square, square, p)):
        assert len(f) == 5 and f[4] == 1
        assert poly_roots(f, p, Random(0)) == [r]


def _assert_refused_before_any_draw(f):
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="monic quartic"):
        poly_roots(f, P1, rng)
    assert rng.getstate() == state


def test_poly_roots_rejects_zero_polynomial():
    for f in ([], [0, 0], [0, 0, 0, 0, 0]):
        _assert_refused_before_any_draw(f)


def test_poly_roots_rejects_degree_above_four():
    # the powering kernels work on four-coefficient residues
    _assert_refused_before_any_draw([1, 0, 0, 0, 0, 1])


def test_poly_roots_takes_only_a_monic_quartic():
    # linear, cubic and non-monic (also with a lead of p + 1): each refused
    # before any draw
    for f in ([5, 1], [1, 2, 3, 1], [1, 2, 3, 4, 2], [1, 2, 3, 4, P1 + 1]):
        _assert_refused_before_any_draw(f)


def _powmod_reference(shift, e, g, p):
    """(T + shift)^e mod g by plain square-and-multiply on coefficient lists."""
    out, base = [1], [shift % p, 1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), g, p)[1]
        base = _pdivmod(_pmul(base, base, p), g, p)[1]
        e >>= 1
    return out


@pytest.mark.parametrize("p", (7, 10007, P1, P_EDGE, P2))
def test_linear_powmod_matches_square_and_multiply(p):
    """The packed powering equals plain polynomial arithmetic, as the four
    residue coefficients mod the line's monic quartic f, zeros on top kept,
    for the Frobenius T^p, the splitting power (T + shift)^((p-1)/2) and
    other exponents, also with f's coefficients all at p - 1 and with
    residues of degree below 3."""
    def residue(shift, e, f):
        out = _powmod_reference(shift, e, f, p)
        return out + [0] * (4 - len(out))

    rng = Random(p)
    quartics = [[rng.randrange(p) for _ in range(4)] + [1] for _ in range(6)]
    quartics += [[p - 1] * 4 + [1], [0, 0, 0, 0, 1]]  # every coefficient at its largest; T^4
    for f in quartics:
        for shift, e in ((0, p), (rng.randrange(1, p), (p - 1) // 2), (p - 1, p), (0, 2),
                         (rng.randrange(p), rng.randrange(1, 10**6))):
            assert _linear_powmod(shift, e, f, p) == residue(shift, e, f)


def test_pgcd_monic():
    p = P1
    f = _pmul([1, 1], [2, 1], p)
    g = _pmul([1, 1], [5, 1], p)
    assert _pgcd(f, g, p) == [1, 1]
