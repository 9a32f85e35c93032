"""Exact prime-field linear algebra and root finding for degree <= 4.

For p up to isqrt(2^63) field elements live in int64 numpy arrays (a product
of two reduced entries fits in a signed 64-bit word); larger primes, which
only an explicit choice reaches, take object arrays of Python integers,
which stay exact at any size.  `field_dtype` makes that choice for every
array of field elements.

`matmul_mod_p` is the one matrix product.  On int64 it is float64 BLAS on
16-bit limbs with delayed reduction, in the style of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ISSAC 2004 and ACM TOMS 35(3), 2008).  The left factor
is split into its high and low 16-bit limbs, and each limb times the right
factor is one float64 product per slab of _SLAB inner indices.  A limb is
below 2^16 and an entry below p < 2^32, so a slab sum stays below
_SLAB * 2^16 * 2^32 = 2^53, where float64 is exact.  The slab sums are added
up in int64 and reduced mod p once per _SLABS_PER_REDUCTION slabs and at
the end.  On object arrays the product is (a @ b) % p.

`rank_mod_p` is blocked Gaussian elimination, one algorithm for both dtypes.
Each panel of _PANEL columns is factored column by column while every row
records its multipliers on the panel's original pivot rows; the rows without
a pivot then get their trailing columns from one kernel call,
T[k:] + G21 . T[:k].  The rank is the pivot count plus the rank of that
trailing block, so the pivot rows themselves are never transformed.

Roots are found by Cantor-Zassenhaus (Math. Comp. 36, 1981): the root part
gcd(T^p - T, f) is split by equal-degree splitting with random shifts.  The
powers T^p mod f and (T + shift)^((p-1)/2) mod g are the hot path; they run
left to right on four-coefficient residues, one unrolled squaring (each
coefficient reduced once) and one multiply-by-linear per exponent bit.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

# isqrt(2^63): for p up to this bound, p * (p - 1) < 2^63, so a product of
# two reduced entries plus one more reduced entry fits in int64.
_INT64_SAFE_PRIME = 3_037_000_499

# Inner-dimension slab of the limb product (32 * 2^16 * 2^32 = 2^53) and
# column width of an elimination panel; a panel's pivot count never exceeds
# a slab, so each trailing update is a single slab.
_SLAB = 32
_PANEL = 24
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Slab sums are added up in int64 and reduced once per this many slabs:
# 2^9 sums below 2^53 on top of a reduced entry stay below 2^63 - 2^48.
_SLABS_PER_REDUCTION = 1 << 9


def field_dtype(p: int):
    """numpy dtype for arrays of elements of F_p: int64 up to isqrt(2^63),
    object (exact Python integers) above."""
    return np.int64 if p <= _INT64_SAFE_PRIME else object


def inverse_mod(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for two matrices, or two stacks of as many matrices,
    with entries in [0, p), in their dtype.

    int64 operands (p <= isqrt(2^63) < 2^32) go through float64 BLAS on the
    16-bit limbs of `a`, slab by slab (see the module docstring); object
    operands multiply exactly as Python integers."""
    if a.dtype == object or b.dtype == object:
        return (a @ b) % p
    hi = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
    lo = np.zeros_like(hi)
    for count, start in enumerate(range(0, a.shape[-1], _SLAB), 1):
        part = a[..., start:start + _SLAB]
        slab = b[..., start:start + _SLAB, :].astype(np.float64)
        hi += ((part >> _LIMB_BITS).astype(np.float64) @ slab).astype(np.int64)
        lo += ((part & _LIMB_MASK).astype(np.float64) @ slab).astype(np.int64)
        if count % _SLABS_PER_REDUCTION == 0:
            hi %= p
            lo %= p
    return ((hi % p << _LIMB_BITS) + lo) % p


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over F_p of an integer matrix (a 2-D array or a sequence
    of rows; an empty one has rank 0) by blocked row elimination."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    # rank(A) = rank(A^T); eliminating on the short side is cheaper.
    if arr.shape[0] > arr.shape[1]:
        arr = arr.T
    block = np.array(arr, dtype=field_dtype(p), order="C") % p
    rank = 0
    while block.shape[0] and block.shape[1]:
        pivots, block = _eliminate_panel(block, p)
        rank += pivots
    return rank


def _eliminate_panel(block: np.ndarray, p: int):
    """Eliminate the first panel of columns of `block`; returns the number
    of pivots k it holds and the trailing columns of the other rows, reduced
    against the k pivot rows.

    `work` holds the panel and, beside it, each row's multipliers on the
    original pivot rows found so far: a pivot row's own multiplier is 1, so
    subtracting f times a pivot row subtracts f times its multipliers."""
    n_rows = block.shape[0]
    width = min(_PANEL, block.shape[1])
    work = np.zeros((n_rows, 2 * width), dtype=block.dtype)
    work[:, :width] = block[:, :width]
    order = np.arange(n_rows)
    k = 0
    for col in range(width):
        nz = np.flatnonzero(work[k:, col])
        if nz.size == 0:
            continue
        pivot = k + nz[0]
        if pivot != k:
            work[[k, pivot]] = work[[pivot, k]]
            order[[k, pivot]] = order[[pivot, k]]
        work[k, width + k] = 1
        rows = k + 1 + np.flatnonzero(work[k + 1:, col])
        if rows.size:
            factors = work[rows, col] * inverse_mod(int(work[k, col]), p) % p
            work[rows] = (work[rows] - factors[:, None] * work[k]) % p
        k += 1
        if k == n_rows:
            break
    trailing = block[order[k:], width:]
    if k == 0 or trailing.size == 0:
        return k, trailing
    multipliers = work[k:, width:width + k]
    return k, (trailing + matmul_mod_p(multipliers, block[order[:k], width:], p)) % p


# ---------------------------------------------------------------------------
# Dense univariate polynomials over F_p, ascending coefficients.
# Degrees stay tiny (<= 4) so quadratic algorithms are fine.


def _pstrip(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = (out[i + j] + fi * gj) % p
    return _pstrip(out)


def _pmod(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    """f mod g for monic g."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        lead = f[-1] % p
        if lead:
            shift = len(f) - 1 - dg
            for i in range(dg):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
        f.pop()
    return _pstrip(f)


def _pdivmod(f: Sequence[int], g: Sequence[int], p: int):
    """(quotient, remainder) of f by monic g."""
    f = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        lead = f[-1] % p
        shift = len(f) - 1 - dg
        if lead:
            q[shift] = lead
            for i in range(dg):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
        f.pop()
    return _pstrip(q), _pstrip(f)


def _monic(f: Sequence[int], p: int) -> List[int]:
    f = _pstrip([c % p for c in f])
    if not f:
        return []
    inv = inverse_mod(f[-1], p)
    return [(c * inv) % p for c in f]


def _pgcd(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    f, g = _monic(f, p), _monic(g, p)
    while g:
        f, g = g, _monic(_pmod(f, g, p), p)
    return f


def _sqrmod4(a: Tuple[int, ...], g: Sequence[int], p: int) -> Tuple[int, ...]:
    """a^2 mod T^4 + g[3] T^3 + g[2] T^2 + g[1] T + g[0], in four coefficients.

    The square is formed in plain integers and each coefficient is reduced
    mod p once: T^6, T^5 and T^4 fold back onto g from the top down."""
    a0, a1, a2, a3 = a
    g0, g1, g2, g3 = g
    c6 = a3 * a3 % p
    c5 = (2 * a2 * a3 - c6 * g3) % p
    c4 = (2 * a1 * a3 + a2 * a2 - c6 * g2 - c5 * g3) % p
    return (
        (a0 * a0 - c4 * g0) % p,
        (2 * a0 * a1 - c5 * g0 - c4 * g1) % p,
        (2 * a0 * a2 + a1 * a1 - c6 * g0 - c5 * g1 - c4 * g2) % p,
        (2 * (a0 * a3 + a1 * a2) - c6 * g1 - c5 * g2 - c4 * g3) % p,
    )


def _mul_linear4(a: Tuple[int, ...], shift: int, g: Sequence[int], p: int) -> Tuple[int, ...]:
    """a * (T + shift) mod the quartic of `_sqrmod4`."""
    a0, a1, a2, a3 = a
    g0, g1, g2, g3 = g
    return (
        (shift * a0 - a3 * g0) % p,
        (a0 + shift * a1 - a3 * g1) % p,
        (a1 + shift * a2 - a3 * g2) % p,
        (a2 + shift * a3 - a3 * g3) % p,
    )


def _linear_powmod(shift: int, e: int, g: Sequence[int], p: int) -> List[int]:
    """(T + shift)^e mod a monic g of degree 2 to 4, stripped.

    Left-to-right binary powering: one squaring per bit of e and one
    multiply-by-(T + shift) per set bit after the leading one.  The powers
    are kept modulo the quartic g * T^(4 - deg g), a multiple of g, so the
    same four-coefficient kernels serve every degree; one final reduction
    mod g gives the result."""
    low = ([0] * (5 - len(g)) + list(g))[:4]
    r = (shift % p, 1, 0, 0)
    for bit in bin(e)[3:]:
        r = _sqrmod4(r, low, p)
        if bit == "1":
            r = _mul_linear4(r, shift, low, p)
    return _pmod(r, g, p)


def poly_roots(coeffs: Sequence[int], p: int, rng) -> List[int]:
    """Sorted distinct roots in F_p of a nonzero polynomial of degree <= 4.

    The root part is isolated as gcd(T^p - T, f) and then split by
    equal-degree splitting with random shifts; `rng` drives the shifts, so
    results are deterministic for a fixed seed.
    """
    f = _monic(coeffs, p)
    if not f:
        raise ValueError("the zero polynomial has every root")
    if len(f) > 5:
        raise ValueError("poly_roots handles degree at most 4")
    if len(f) <= 2:  # constant or linear: nothing to split, no draws from rng
        return [(-f[0]) % p] if len(f) == 2 else []
    xp = _linear_powmod(0, p, f, p)
    xp_minus_x = xp + [0] * max(0, 2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(_pstrip(xp_minus_x), f, p)
    return sorted(_split_linear(g, p, rng))


def _split_linear(g: List[int], p: int, rng) -> List[int]:
    """Roots of a monic product of distinct linear factors."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    half = (p - 1) // 2
    while True:
        shift = rng.randrange(p)
        h = _linear_powmod(shift, half, g, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _pgcd(_pstrip(h), g, p)
        if 0 < len(d) - 1 < deg:
            q, r = _pdivmod(g, d, p)
            if r:
                raise ArithmeticError("equal-degree split produced a non-divisor")
            return _split_linear(d, p, rng) + _split_linear(_monic(q, p), p, rng)
