"""Truncated bivariate power series over F_p on coefficient grids, jet
tables, and the implicit-function solve, the oracle's one chart check.

A series of order N in (s, t) is one (N + 1) x (N + 1) grid whose entry
[a, b] is its s^a t^b coefficient; only the triangle a + b <= N carries
meaning, and nothing reads the entries above it.  Every array holds a run
of points at once, the point first.  There is one chart, at every point P:
the affine coordinates (x1, x2, x3) take the roles (s, t, z), s and t the
shifts of x1 and x2, and x3 is the series z = phi(s, t) = P_z + psi(s, t),
psi without constant term.  It needs F_z(P) != 0, which the quartic
sampler ensures by redrawing a point where z is a multiple root of F on its
vertical line.

`chart_jets` is where points become tables, the one jet table for the
quartic and the planar rows: row k of a coordinate x holds C(e, k)
x^(e - k), the s^k coefficient of (x + s)^e.  The kernels read tables,
never points.

`restrict` is the one kernel on grids: the monomials x^e restricted along
the chart, (P_s + s)^(e_s) (P_t + t)^(e_t) phi^(e_z).  It forms psi^k for
k <= N by truncated grid products (psi has no constant term, so no higher
power has a term of degree <= N), phi^e = sum_k C(e, k) P_z^(e - k) psi^k
from the jet table of P_z, and multiplies by the jets of P_s along a and
of P_t along b, one shift-and-add step per jet coefficient.
The condition rows are these grids for the degree-d columns.  A polynomial
F = sum_e c_e x^e along the chart is sum_e c_e restrict(x^e) over F's own
terms, and that is how `solve_implicit` reads its residual: with psi exact
below degree D, the degree-D part of F(P_s + s, P_t + t, P_z + psi) is
F_z(P) psi_D plus the same part with psi_D = 0, so
psi_D = -[sum_e c_e restrict(x^e)]_D / F_z(P), computed on the
(D + 1) x (D + 1) corner alone.  First it checks F(P) = 0 and F_z(P) != 0
at every point, at order 0 too, so no condition row is built at a point
that it has not checked, whoever drew it.

On int64 (p <= isqrt(2^63), see `field_dtype`) every step stays exact.
Every entry is reduced; a shift-and-add step adds one product of two
reduced entries to a reduced entry and reduces, which stays below
p (p - 1) < 2^63; and the coefficient sum over F's terms (35 for a
quartic) reduces each product c_e * entry before it adds, so the sum stays
below 35 p.  Object arrays hold Python integers and are exact at any size.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import List, Mapping, Tuple

import numpy as np

from .field import field_dtype, inverse_mod


class ChartSingularError(ValueError):
    """The local chart is singular: the solved-coordinate partial vanishes."""


def powers(x: int, top: int, p: int) -> List[int]:
    """The power table x^0, ..., x^top mod p."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x % p)
    return out


@lru_cache(maxsize=64)
def triangle(order: int) -> Tuple[Tuple[int, int], ...]:
    """Exponent pairs (i, j) with i + j <= order, in lexicographic order: the
    order of a point's condition rows and of the planar columns."""
    return tuple((i, j) for i in range(order + 1) for j in range(order + 1 - i))


@lru_cache(maxsize=64)
def _jet_pattern(top: int, kmax: int, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(C(e, k) mod p, max(e - k, 0)) for k = 0..kmax and e = 0..top: the
    binomials of the jet table and the power each one multiplies."""
    k, e = np.ogrid[:kmax + 1, :top + 1]
    binom = np.array([[comb(j, i) % p for j in range(top + 1)] for i in range(kmax + 1)],
                     dtype=field_dtype(p))
    shift = np.maximum(e - k, 0)
    binom.flags.writeable = shift.flags.writeable = False
    return binom, shift


def chart_jets(points, top: int, kmax: int, p: int) -> np.ndarray:
    """jets[n, role, k, e]: the s^k coefficient C(e, k) x^(e - k) of
    (x + s)^e mod p, zero if e < k, for k = 0..kmax, e = 0..top and x the
    coordinate `role` of points[n] (triples on the quartic, pairs in the
    plane), for the whole run at once: the power tables grow one column per
    step, and each entry is a reduced binomial times a reduced power,
    reduced."""
    dtype = field_dtype(p)
    x = np.array(points, dtype=dtype) % p
    table = np.ones(x.shape + (top + 1,), dtype=dtype)  # [n, role, e]: x^e
    for e in range(1, top + 1):
        table[..., e] = table[..., e - 1] * x % p
    binom, shift = _jet_pattern(top, kmax, p)
    return binom * table[..., shift] % p


def _times_psi(x: np.ndarray, psi: np.ndarray, low: int, p: int) -> np.ndarray:
    """x * psi truncated at total degree N, for grids [n, a, b], x without
    terms below degree `low` and psi without constant term: one
    shift-and-add step per term of psi that reaches a + b <= N, over the
    window that does."""
    order = psi.shape[1] - 1
    out = np.zeros_like(x)
    for i in range(order + 1 - low):
        for j in range(i == 0, order + 1 - low - i):
            w = order + 1 - i - j
            step = x[:, :w, :w] * psi[:, i, j, None, None]
            step += out[:, i:i + w, j:j + w]
            step %= p
            out[:, i:i + w, j:j + w] = step
    return out


def restrict(psi: np.ndarray, jets: np.ndarray, exps: np.ndarray, p: int) -> np.ndarray:
    """The monomials x^e restricted along the chart at each point, as grids.

    psi[n] is the (N + 1) x (N + 1) grid of point n's psi, jets[n] its jet
    tables (chart_jets) with rows 0..N at least and a column for every
    exponent, and exps[role, c] the exponents of monomial c, shared by the
    whole run.  Entry [n, c, a, b] of the result is the s^a t^b coefficient
    of (P_s + s)^(e_s) (P_t + t)^(e_t) (P_z + psi)^(e_z) for a + b <= N.
    """
    order = psi.shape[1] - 1
    phi = np.zeros((len(psi), jets.shape[3], order + 1, order + 1), dtype=psi.dtype)
    phi[:, :, 0, 0] = jets[:, 2, 0]  # phi[n, e, a, b]: psi^0 = 1 times the z jet's row 0
    for k in range(1, min(int(exps[2].max(initial=0)), order) + 1):
        power = _times_psi(power, psi, k - 1, p) if k > 1 else psi
        phi += jets[:, 2, k, :, None, None] * power[:, None]
        phi %= p
    grid = phi[:, exps[2]]  # [n, c, a, b]
    for role in (0, 1):  # times (P_s + s)^e_s along a, then (P_t + t)^e_t along b
        jet = jets[:, role][..., exps[role]]  # [n, i, c]
        out = grid * jet[:, 0, :, None, None] % p
        for i in range(1, order + 1):  # only a + b <= order is ever read
            w = order + 1 - i
            step = grid[:, :, :w, :w] * jet[:, i, :, None, None]
            step += out[:, :, i:, :w]
            step %= p
            out[:, :, i:, :w] = step
        grid = out.swapaxes(2, 3)  # the next factor runs along the other axis
    return grid


def solve_implicit(
    coeffs: Mapping[Tuple[int, int, int], int], jets: np.ndarray, order: int, p: int
) -> np.ndarray:
    """psi for each point of a run: grids [n, a, b] of the given order, zero
    at (0, 0) and above the triangle, with f(P_s + s, P_t + t, P_z + psi) = 0
    mod total degree > order.

    f is a trivariate polynomial keyed by exponents (e1, e2, e3) of
    (x1, x2, x3), jets[n] the jet table (chart_jets) of a zero P of f, of
    which it reads rows 0..max(order, 1) and the columns up to f's degree,
    and z = x3 is solved over s = x1 - P_1 and t = x2 - P_2.  Raises
    ChartSingularError when f_z vanishes at a point and ValueError when f
    does not vanish there, at order 0 too, where psi is all zero and is
    returned after these two checks; above order 0, psi_D is fixed degree by
    degree (see the module docstring); the full residual is checked at the end.
    """
    dtype = field_dtype(p)
    c = np.array([v % p for v in coeffs.values()], dtype=dtype)
    exps = np.array(list(coeffs), dtype=np.intp).T  # [role, term]
    jets = jets[..., :int(exps.max()) + 1]  # f's columns alone

    def along_f(values):  # sum_e c_e values[..., e], each product reduced first
        return (values * c % p).sum(axis=-1) % p

    def residual(psi):  # f along the chart, [n, a, b]
        return along_f(restrict(psi, jets, exps, p).transpose(0, 2, 3, 1))

    def at_point(z_row):  # sum_e c_e P_s^(e_s) P_t^(e_t) jet_z[z_row][e_z]
        values = jets[:, 2, z_row][:, exps[2]]
        for role in (0, 1):
            values = values * jets[:, role, 0][:, exps[role]] % p
        return along_f(values)

    fz = at_point(1)
    if not fz.all():
        raise ChartSingularError("z-partial vanishes at the expansion point")
    if at_point(0).any():
        raise ValueError("the polynomial does not vanish at the expansion point")

    psi = np.zeros((len(jets), order + 1, order + 1), dtype=dtype)
    if order == 0:  # the residual's one term is f(P), checked above
        return psi
    neg_inv = np.array([p - inverse_mod(int(v), p) for v in fz], dtype=dtype)[:, None]
    for degree in range(1, order + 1):
        a = np.arange(degree + 1)  # psi_D sits at (a, degree - a)
        corner = residual(psi[:, :degree + 1, :degree + 1])
        psi[:, a, degree - a] = corner[:, a, degree - a] * neg_inv % p

    # Sanity: the residual must vanish through the requested order.
    a = np.arange(order + 1)
    if residual(psi)[:, a[:, None] + a <= order].any():
        raise ArithmeticError("implicit solve did not converge to the requested order")
    return psi
