"""Exact prime-field linear algebra and the roots of monic quartics.

For p up to isqrt(2^63) field elements live in int64 numpy arrays (a product
of two reduced entries fits in a signed 64-bit word); larger primes, which
only an explicit choice reaches, take object arrays of Python integers,
which stay exact at any size.  `field_dtype` makes that choice for every
array of field elements.

`matmul_mod_p` is the one matrix product, fused with a subtraction: it
computes (c - a b) mod p, into a given array or a new one.  On int64 it is
float64 BLAS on 16-bit limbs, in the style of FFLAS-FFPACK (Dumas, Giorgi
and Pernet, ISSAC 2004 and ACM TOMS 35(3), 2008).  The left factor is split
into its high and low 16-bit limbs, and each limb times the right factor is
one float64 product.  A limb is below 2^16 and an entry below p < 2^32, so
for an inner dimension of at most _SLAB a sum stays below
_SLAB * 2^16 * 2^32 = 2^53, where float64 is exact; the kernel refuses a
wider product.  The high-limb sum is reduced once, so shifted by 16 bits
it is below 2^48 and is subtracted from c, the low-limb sum (below 2^53,
so exact as it is cast back) is subtracted from that difference, which
stays above -2^54, in int64, and the result is reduced once.  On object
arrays the kernel is (c - a @ b) % p.

`rank_mod_p` eliminates by Schur complements, one algorithm for both
dtypes (the block recursion of FFLAS-FFPACK, and of Jeannerod, Pernet and
Storjohann, J. Symb. Comput. 56, 2013, which handles a rank-deficient
leading block within the step).  A step takes the strip of the first
_BLOCK rows (fewer at the edge) and runs Gauss-Jordan on [A11 | -I], A11
its leading square block, swapping rows only within A11, up to the first
column k without a pivot among the rows not yet pivoted (k is the order
of an invertible A11).  The right half is then -E, E the block's row
operations.  E is invertible, so E . strip has the row space of the
strip; it holds I_k over zeros in its first k columns, and the new block
is the Schur complement of that I_k: the rows below, less their first k
entries times Y[:k], with Y = E . strip from column k on, and under them
Y[k:], so that the next leading block starts on fresh rows.  Over F_p the
rank is exactly k plus the rank of the new block, and for an invertible
A11 the new block is A22 - A21 (A11^-1 A12).  Y is one kernel call.
The whole elimination works in one array, the reduced, possibly
transposed block that `_reduced_block` builds from the caller's rows in
one pass: each step writes its new block into the rows of the old one,
and the new block is the view from row k and column k on.  The rows below
are updated one slab at a time, one kernel call per slab, a slab being as
many rows as fit _SLAB_ENTRIES entries from column k on (and at least
one), so the kernel's two temporaries stay small at any width.  The
kernel writes each slab's result straight into the block, size - k rows
above the slab it reads, so the rows below move up into the rows the
strip leaves (none when A11 is invertible), and Y[k:] is written under
them, in the order a concatenation of the two would have.  That is
exact: a slab's new entries are its old ones less its own first k entries
times Y[:k], so it reads only its own rows and Y, and the rows it writes
are its own or lie above it, among rows already read (the previous
slab's, or the strip's, which Y holds), so no slab reads a row that
another has written.  The update writes from column k on; the first k
columns are read, never written.  At k = 0, column 0 is zero in A11: the
first row below that is nonzero there is swapped in, or else the column
is dropped.

Roots are found for one shape, a monic quartic f (a sampled quartic
surface on a vertical line), by Cantor-Zassenhaus (Math. Comp. 36, 1981),
working modulo f throughout: the root part g = gcd(T^p - T, f) is split by
equal-degree splitting with random shifts.  The Frobenius T^p mod f is the
hot path.  It runs left to right on four-coefficient residues packed into
one integer (Kronecker substitution), so a squaring is one integer
product; at a set bit the multiply by T is a shift of the square, and
T^4..T^7 fold back through their packed residues mod f before each
coefficient is reduced once.  The gcd runs in place on at most five
coefficients with one inverse, for the final monic normalisation.  A root
part of degree 2, the common case, is solved in closed form with a
Tonelli-Shanks square root on the builtin pow (Shanks, 1973), and the
shifts that splitting would have drawn are still drawn: a shift is kept
exactly when splitting by it would succeed, which one Legendre symbol
decides, so the random stream is the same.  A part g of degree 3 or 4 is
split by gcd(h - 1, g), h = (T + shift)^((p-1)/2) mod f (g divides f, so
h mod g would give the same gcd); its quadratic pieces take the closed form.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

# isqrt(2^63): for p up to this bound, p * (p - 1) < 2^63, so a product of
# two reduced entries plus one more reduced entry fits in int64.
_INT64_SAFE_PRIME = 3_037_000_499

# Widest inner dimension of an exact int64 limb product (32 * 2^16 * 2^32 = 2^53).
_SLAB = 32
# Order of the leading block A11 of each Schur step, at most _SLAB, so each
# update is one limb product: of 16, 24 and 32, 16 was measured fastest on
# the acceptance grid's matrices.
_BLOCK = 16
# Entries from column k on of the rows below the leading block that one
# fused product updates (max(1, _SLAB_ENTRIES // columns) rows), so that
# its two temporaries stay small at any width.  With each product written
# straight into the block, 64-row slabs made the allocator hand their
# temporaries back to the system and fault them in again, slab after slab,
# on some heaps (up to 1.8x the minor faults of L^4(30, 6^64)).  Of 64 rows
# and 2^14, 2^15 and 2^16 entries, 2^14 had the fewest minor faults and the
# lowest oracle_large peak RSS with 64 rows (2^15 was higher), was as fast
# on L^4(30, 6^64) and L^4(38, 25^9), and 3 % slower in the rank of
# L^4(29, 19^9).
_SLAB_ENTRIES = 1 << 14
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def field_dtype(p: int):
    """numpy dtype for arrays of elements of F_p: int64 up to isqrt(2^63),
    object (exact Python integers) above."""
    return np.int64 if p <= _INT64_SAFE_PRIME else object


def inverse_mod(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def matmul_mod_p(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """(c - a @ b) mod p for matrices with entries in [0, p), in their dtype,
    for an inner dimension of at least 1, written into `out` when it is
    given (an array of c's shape and dtype, which may share memory with any
    operand: every operand is read before `out` is written) and into a new
    array otherwise.

    int64 operands (p <= isqrt(2^63) < 2^32) go through one float64 BLAS
    product per 16-bit limb of `a`, exact for an inner dimension of at most
    _SLAB (a wider one raises ValueError), with two temporaries the size of
    the result, and are reduced twice: the high-limb sum before its shift
    and the difference at the end (see the module docstring).  `b` may also
    be given as its float64 cast, which a caller that multiplies many slabs
    by one right factor makes once.  Object operands multiply exactly as
    Python integers."""
    if a.dtype == object or b.dtype == object:
        if out is None:
            return (c - a @ b) % p
        out[...] = (c - a @ b) % p
        return out
    if a.shape[1] > _SLAB:
        raise ValueError(f"an int64 product has inner dimension at most {_SLAB}, got {a.shape[1]}")
    right = b if b.dtype == np.float64 else b.astype(np.float64)
    hi = ((a >> _LIMB_BITS).astype(np.float64) @ right).astype(np.int64)
    hi %= p
    hi <<= _LIMB_BITS
    np.subtract(c, hi, out=hi)
    lo = (a & _LIMB_MASK).astype(np.float64) @ right
    if out is None:
        out = np.empty(c.shape, dtype=np.int64)
    np.copyto(out, lo, casting="unsafe")
    np.subtract(hi, out, out=out)
    out %= p
    return out


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over F_p of an integer matrix (a 2-D array or a sequence
    of rows; an empty one has rank 0) by block elimination on Schur
    complements.  Entries may be integers of any size; a matrix of floats,
    of any other non-integer dtype or of objects that are not all integers
    raises ValueError.  The caller's matrix is never written.

    The one working copy is the reduced, possibly transposed block
    (`_reduced_block`); each step writes the new block into it, from the
    rows below its leading block, one slab of at most _SLAB_ENTRIES
    entries at a time, and from Y[k:] under them (see the module
    docstring)."""
    block = _reduced_block(matrix, p)
    rank = 0
    while block.shape[0] and block.shape[1]:
        size = min(_BLOCK, *block.shape)
        k, neg_e = _negated_inverse(block[:size, :size], p)
        if k == 0:  # column 0 is zero in the leading block
            below = np.flatnonzero(block[size:, 0])
            if below.size:
                row = size + below[0]
                block[[0, row]] = block[[row, 0]]
            else:
                block = block[:, 1:]
            continue
        rank += k
        if k == min(block.shape):  # nothing is left beside or below the pivots
            break
        strip = block[:size, k:]
        y = matmul_mod_p(np.zeros_like(strip), neg_e, strip, p)  # E . strip from column k on
        right = y[:k] if y.dtype == object else y[:k].astype(np.float64)  # cast once per step
        shift, nrows = size - k, len(block)  # rows of the strip with no pivot
        height = max(1, _SLAB_ENTRIES // y.shape[1])
        for lo in range(size, nrows, height):
            slab = block[lo:lo + height]
            matmul_mod_p(slab[:, k:], slab[:, :k], right, p,
                         out=block[lo - shift:lo - shift + len(slab), k:])
        block[nrows - shift:, k:] = y[k:]
        block = block[k:, k:]
    return rank


def _reduced_block(matrix, p: int) -> np.ndarray:
    """The matrix reduced mod p in the dtype `field_dtype(p)` chooses, as a
    new C-ordered array, transposed when it has more rows than columns;
    (0, 0) when it is empty.  The matrix is copied once, straight into the
    block, and reduced there: a 2-D integer array, or a sequence of
    equal-length 1-D integer arrays (the rows `k3_condition_rows`
    returns), which are stacked without an intermediate array.  Any other
    matrix (nested lists, unsigned or object entries) first goes through
    `np.asarray`, and object entries are checked to be integers."""
    dtype = field_dtype(p)
    if _is_integer_rows(matrix):
        nrows, ncols = len(matrix), len(matrix[0])
        if not nrows * ncols:
            return np.zeros((0, 0), dtype=dtype)
        tall = nrows > ncols  # rank(A) = rank(A^T); eliminating on the short side is cheaper
        block = np.empty((ncols, nrows) if tall else (nrows, ncols), dtype=dtype)
        np.stack(matrix, axis=int(tall), out=block)
        block %= p
        return block
    arr = np.asarray(matrix)
    if arr.size == 0:
        return np.zeros((0, 0), dtype=dtype)
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if arr.dtype.kind not in "biuO":
        raise ValueError(f"matrix entries must be integers, got dtype {arr.dtype}")
    if arr.shape[0] > arr.shape[1]:
        arr = arr.T
    if arr.dtype.kind in "bi":
        block = np.array(arr, dtype=dtype, order="C")
        block %= p
        return block
    # entries may pass int64: reduce them before any cast
    entries = arr.astype(object, copy=False)
    if arr.dtype.kind == "O":  # the cast would truncate a float: refuse it here
        try:
            entries = np.frompyfunc(operator.index, 1, 1)(entries)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be integers: {exc}") from None
    return np.remainder(entries, p, order="C").astype(dtype, copy=False)


def _is_integer_rows(matrix) -> bool:
    """Whether `matrix` is a nonempty list or tuple of 1-D signed-integer
    (or boolean) arrays of one length."""
    if not isinstance(matrix, (list, tuple)) or not matrix:
        return False
    first = matrix[0]
    return all(isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype.kind in "bi"
               and row.shape == first.shape for row in matrix)


def _negated_inverse(a11: np.ndarray, p: int) -> Tuple[int, np.ndarray]:
    """(k, -E) from Gauss-Jordan elimination on [A11 | -I], swapping rows
    only within the block: k is the first column with no pivot among the
    rows not yet pivoted (the order of A11 when it is invertible), and E
    the block's row operations, so that E A11 holds I_k in the first k
    columns of its first k rows and zeros below them."""
    size = a11.shape[0]
    work = np.zeros((size, 2 * size), dtype=a11.dtype)
    work[:, :size] = a11
    work[:, size:][np.diag_indices(size)] = p - 1
    for col in range(size):
        if not work.item(col, col):
            nz = np.flatnonzero(work[col + 1:, col])
            if nz.size == 0:
                return col, work[:, size:]
            pivot = col + 1 + nz[0]
            work[[col, pivot]] = work[[pivot, col]]
        row = work[col] * inverse_mod(work.item(col, col), p) % p
        work -= work[:, col, None] * row
        work[col] = row
        work %= p
    return size, work[:, size:]


# ---------------------------------------------------------------------------
# Dense univariate polynomials over F_p, ascending coefficients.
# Degrees stay tiny (<= 4) so quadratic algorithms are fine.


def _pstrip(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


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


def _pgcd(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    """Monic gcd by Euclid's algorithm, in place on two short lists.

    Each remainder is taken up to the factor lead(divisor)^k, which leaves
    the gcd unchanged and needs no inverse: the one inverse is the final
    normalisation."""
    f = _pstrip([c % p for c in f])
    g = _pstrip([c % p for c in g])
    while g:
        lead, dg = g[-1], len(g) - 1
        while len(f) > dg:  # f <- lead * f - top * T^shift * g, one degree down
            top = f.pop()
            if top:
                shift = len(f) - dg
                for i in range(shift):
                    f[i] = f[i] * lead % p
                for i in range(dg):
                    f[shift + i] = (f[shift + i] * lead - top * g[i]) % p
        f, g = g, _pstrip(f)
    inv = inverse_mod(f[-1], p)
    return [c * inv % p for c in f]


def _linear_powmod(shift: int, e: int, f: Sequence[int], p: int) -> List[int]:
    """(T + shift)^e mod the line's monic quartic f = [f0, f1, f2, f3, 1],
    its four residue coefficients, unstripped: the Frobenius T^p and the
    splitting powers (T + shift)^((p-1)/2) of root parts of degree 3 and 4.

    Left-to-right binary powering on a power packed into one integer, its
    coefficient of T^i in bits [i W, (i + 1) W) with W = `width` (Kronecker
    substitution): a step is one integer square, a shift and at most one
    more product for the factor T + shift at a set bit after the leading
    one; then the coefficients of T^4..T^7 fold back through their packed
    residues modulo f, and each coefficient is reduced mod p.  Every
    coefficient stays nonnegative, below 4 p^2 (1 + shift) before the fold
    and below 5 p times that after it, so below 2^W, and no slot carries
    into the next."""
    shift %= p
    width = (4 if shift else 3) * p.bit_length() + 6
    mask = (1 << width) - 1
    below4 = (1 << 4 * width) - 1
    w2, w3, w4, w5, w6, w7 = (k * width for k in range(2, 8))
    f0, f1, f2, f3 = f[:4]
    folds = []  # T^4..T^7 modulo f, packed
    v0, v1, v2, v3 = -f0 % p, -f1 % p, -f2 % p, -f3 % p
    for _ in range(4):
        folds.append(v0 | v1 << width | v2 << w2 | v3 << w3)
        v0, v1, v2, v3 = -v3 * f0 % p, (v0 - v3 * f1) % p, (v1 - v3 * f2) % p, (v2 - v3 * f3) % p
    q4, q5, q6, q7 = folds
    r = shift | 1 << width
    for bit in bin(e)[3:]:
        t = r * r
        if bit == "1":
            t = (t << width) + shift * t if shift else t << width
        t = ((t & below4) + (t >> w4 & mask) * q4 + (t >> w5 & mask) * q5
             + (t >> w6 & mask) * q6 + (t >> w7) * q7)
        r = ((t & mask) % p | (t >> width & mask) % p << width
             | (t >> w2 & mask) % p << w2 | (t >> w3) % p << w3)
    return [r & mask, r >> width & mask, r >> w2 & mask, r >> w3]


@lru_cache(maxsize=16)
def _sqrt_constants(p: int) -> Tuple[int, int]:
    """(s, c) for Tonelli-Shanks at p: p - 1 = q 2^s with q odd, and c = z^q
    for the least quadratic non-residue z (found by Euler's criterion, so
    no random draw is spent)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return s, pow(z, (p - 1) >> s, p)


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks (Shanks, 1973) on the builtin pow: one power
    w = a^((q - 1)/2) gives r = a w = a^((q + 1)/2) and t = r w = a^q, and
    while t != 1 the least i with t^(2^i) = 1 is found by squaring, which
    reaches the current 2-adic bound m exactly when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    m, c = _sqrt_constants(p)
    w = pow(a, ((p - 1) >> m) >> 1, p)
    r = a * w % p
    t = r * w % p
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        r, c, m = r * b % p, b * b % p, i
        t = t * c % p
    return r


def poly_roots(f: Sequence[int], p: int, rng) -> List[int]:
    """Sorted distinct roots in F_p of a monic quartic, ascending
    coefficients [f0, f1, f2, f3, 1]; any other shape raises ValueError.

    The root part is isolated as gcd(T^p - T, f) and then split by
    equal-degree splitting with random shifts, a quadratic in closed form
    with the same shifts drawn; `rng` drives the shifts, so results and the
    generator's state afterwards are deterministic for a fixed seed.
    """
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"poly_roots takes a monic quartic [f0, f1, f2, f3, 1], got {list(f)}")
    xp_minus_x = _linear_powmod(0, p, f, p)
    xp_minus_x[1] -= 1
    return sorted(_split_linear(_pgcd(xp_minus_x, f, p), f, p, rng))


def _split_linear(g: List[int], f: Sequence[int], p: int, rng) -> List[int]:
    """Roots of a monic product g of distinct linear factors dividing the
    line's quartic f.  A g of degree 3 or 4 splits by d = gcd(h - 1, g),
    h = (T + shift)^((p-1)/2) mod f, the gcd that h mod g would give.

    A quadratic is solved in closed form and then consumes the draws that
    equal-degree splitting would: a shift splits (T - r1)(T - r2) when
    exactly one of (r1 + shift)^((p-1)/2) and (r2 + shift)^((p-1)/2) is 1,
    so shifts are drawn until that holds.  With both factors nonzero, this
    is the product g(-shift) = (r1 + shift)(r2 + shift) being a
    non-residue, one power per draw."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    half = (p - 1) // 2
    if deg == 2:
        roots = _quadratic_roots(g, p)
        g0, g1 = g[0], g[1]
        while True:
            shift = rng.randrange(p)
            value = (shift * (shift - g1) + g0) % p  # g(-shift)
            if value:
                if pow(value, half, p) == p - 1:
                    return roots
            elif pow(2 * shift - g1, half, p) == 1:  # the other factor
                return roots
    while True:
        shift = rng.randrange(p)
        h = _linear_powmod(shift, half, f, p)
        h[0] -= 1
        d = _pgcd(h, g, p)
        if 0 < len(d) - 1 < deg:
            q, r = _pdivmod(g, d, p)
            if r:
                raise ArithmeticError("equal-degree split produced a non-divisor")
            return _split_linear(d, f, p, rng) + _split_linear(q, f, p, rng)  # q is monic: g and d are


def _quadratic_roots(g: Sequence[int], p: int) -> List[int]:
    """The two distinct roots (-g1 +- sqrt(g1^2 - 4 g0)) / 2 of a monic
    quadratic g that splits into distinct linear factors."""
    g0, g1 = g[0], g[1]
    root = sqrt_mod(g1 * g1 - 4 * g0, p)
    if not root:  # a non-residue or a double root: g is not such a product
        raise ArithmeticError("the quadratic root part has no two distinct roots")
    inv2 = (p + 1) // 2
    roots = [(-g1 + root) * inv2 % p, (-g1 - root) * inv2 % p]
    if any((r * (r + g1) + g0) % p for r in roots):
        raise ArithmeticError("closed-form roots do not solve the quadratic")
    return roots
