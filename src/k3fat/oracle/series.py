"""Truncated bivariate power series over F_p and implicit-function solving.

A series of order N is one dense triangular list: position k holds the
coefficient of s^i t^j for (i, j) = triangle(N)[k], i + j <= N, in
lexicographic order, and products are truncated at total degree N through
precomputed index triples (unit_pairs).  The implicit solve returns the
local series phi in this layout, and the condition rows read it unchanged.

The solve Taylor-shifts f once to h(s, t, w) = f(p1 + s, p2 + t, p3 + w)
and solves h(s, t, psi) = 0 degree by degree, which needs the w-partial of
h to be a unit at the origin; phi = p3 + psi.  Since psi has no constant
term, psi^k has no term below total degree k, so the shift in w stops at
w^max(order, 1): the higher powers of w never reach the truncated series,
and w^1 carries the partial that the chart needs.  The Taylor coefficients
of (x + s)^e come from binomial_shift, the one jet table shared with the
condition rows, and point values are read from power tables (`powers`).
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import List, Mapping, Tuple

from .field import inverse_mod


class ChartSingularError(ValueError):
    """The local chart is singular: the solved-coordinate partial vanishes."""


def powers(x: int, top: int, p: int) -> List[int]:
    """The power table x^0, ..., x^top mod p."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x % p)
    return out


def eval_poly3_scalar(coeffs: Mapping[Tuple[int, int, int], int], tables, p: int) -> int:
    """The value mod p of a trivariate polynomial at a point, read from the
    point's three power tables (`powers` of each coordinate, each reaching
    the largest exponent of its variable)."""
    t1, t2, t3 = tables
    acc = 0
    for (e1, e2, e3), c in coeffs.items():
        acc += c * t1[e1] * t2[e2] * t3[e3]
    return acc % p


def binomial_shift(x: int, top: int, kmax: int, p: int) -> List[List[int]]:
    """Rows k = 0..kmax of the jet table of x: entry e = 0..top of row k is
    the s^k coefficient C(e, k) x^(e - k) of (x + s)^e mod p, zero if e < k."""
    table = powers(x, top, p)
    return [
        [0] * min(k, top + 1) + [comb(e, k) * table[e - k] % p for e in range(k, top + 1)]
        for k in range(kmax + 1)
    ]


# ---------------------------------------------------------------------------
# Dense triangular coefficient lists.  The tables are built on first use of
# each order (one per fat-point multiplicity in use), never at import.


@lru_cache(maxsize=64)
def triangle(order: int) -> Tuple[Tuple[int, int], ...]:
    """Exponent pairs (i, j) with i + j <= order, in dense-list order."""
    return tuple((i, j) for i in range(order + 1) for j in range(order + 1 - i))


@lru_cache(maxsize=64)
def unit_pairs(order: int) -> Tuple[Tuple[int, int, int], ...]:
    """Index triples (a, b, c) with triangle[a] + triangle[b] = triangle[c],
    b != 0, of total degree <= order: the terms of x * y truncated at
    `order` when y has zero constant term."""
    pos = triangle(order)
    index = {ij: k for k, ij in enumerate(pos)}
    return tuple(
        (a, b, index[(i1 + i2, j1 + j2)])
        for a, (i1, j1) in enumerate(pos)
        for b, (i2, j2) in enumerate(pos)
        if b and i1 + i2 + j1 + j2 <= order
    )


def dense_mul(x, y, pairs, p: int) -> List[int]:
    """x * y mod p for dense lists, y with zero constant term (see unit_pairs)."""
    out = [0] * len(x)
    for a, b, c in pairs:
        out[c] += x[a] * y[b]
    return [v % p for v in out]


def _taylor_shift(coeffs, point, order: int, p: int) -> List[List[int]]:
    """h(s, t, w) = f(p1 + s, p2 + t, p3 + w) as dense lists h[k] of the
    coefficients of w^k, keeping the terms with i + j <= order and k <=
    max(order, 1): psi^k has no term below total degree k, so `_compose`
    never reads h[k] for k > order, and h[1] holds the chart's w-partial.

    The coefficient of s^i t^j w^k gathers C(e1, i) C(e2, j) C(e3, k)
    p1^(e1-i) p2^(e2-j) p3^(e3-k) over the terms c x^e1 y^e2 z^e3 of f."""
    size = len(triangle(order))
    top = [max(column) for column in zip(*coeffs)] if coeffs else [0, 0, 0]
    # sh[k][e]: coefficient of s^k in (point[c] + s)^e
    kmax = (min(top[0], order), min(top[1], order), min(top[2], max(order, 1)))
    sh1, sh2, sh3 = (binomial_shift(x, n, k, p) for x, n, k in zip(point, top, kmax))
    # Shift in (s, t) first, keeping the z-exponent, then shift in w.
    by_e3 = [[0] * size for _ in range(top[2] + 1)]
    for (e1, e2, e3), c in coeffs.items():
        acc = by_e3[e3]
        for i, j, position in _shift_terms(order, e1, e2):
            acc[position] += c * sh1[i][e1] * sh2[j][e2]
    h = [[0] * size for _ in range(kmax[2] + 1)]
    for e3, acc in enumerate(by_e3):
        acc = [v % p for v in acc]
        for k in range(min(e3, kmax[2]) + 1):
            w = sh3[k][e3]
            h[k] = [x + w * v for x, v in zip(h[k], acc)]
    return [[v % p for v in hk] for hk in h]


@lru_cache(maxsize=1024)
def _shift_terms(order: int, e1: int, e2: int) -> Tuple[Tuple[int, int, int], ...]:
    """(i, j, position of (i, j) in triangle(order)) for the terms s^i t^j
    of (x + s)^e1 (y + t)^e2 with i + j <= order."""
    return tuple(
        (i, j, position) for position, (i, j) in enumerate(triangle(order))
        if i <= e1 and j <= e2
    )


def _compose(h: List[List[int]], psi: List[int], pairs, p: int) -> List[int]:
    """h(s, t, psi(s, t)) by Horner's rule in w; psi(0, 0) = 0."""
    acc = h[-1]
    for hk in reversed(h[:-1]):
        acc = [(v + c) % p for v, c in zip(dense_mul(acc, psi, pairs, p), hk)]
    return acc


def solve_implicit(
    coeffs: Mapping[Tuple[int, int, int], int],
    p1: int,
    p2: int,
    p3: int,
    order: int,
    p: int,
) -> Tuple[int, ...]:
    """Series phi with f(p1 + s, p2 + t, phi) = 0 mod total degree > order,
    phi(0, 0) = p3, for a trivariate polynomial f vanishing at (p1, p2, p3)
    whose third-variable partial is nonzero there.  phi is returned as its
    dense coefficients in triangle(order) order, so phi[0] = p3.

    f is Taylor-shifted once to h(s, t, w) = f(p1 + s, p2 + t, p3 + w), and
    phi = p3 + psi is solved degree by degree: with psi exact below degree D,
    the degree-D part of h(s, t, psi) is h_w(0, 0, 0) * psi_D plus known
    terms, so psi_D = -(residual)_D / h_w(0, 0, 0).
    """
    h = _taylor_shift(coeffs, (p1, p2, p3), order, p)
    if len(h) < 2 or h[1][0] == 0:
        raise ChartSingularError("z-partial vanishes at the expansion point")
    if h[0][0] != 0:
        raise ValueError("the polynomial does not vanish at the expansion point")

    pos = triangle(order)
    pairs = unit_pairs(order)
    neg_inv = p - inverse_mod(h[1][0], p)
    psi = [0] * len(pos)
    for degree in range(1, order + 1):
        residual = _compose(h, psi, pairs, p)
        for k, (i, j) in enumerate(pos):
            if i + j == degree:
                psi[k] = residual[k] * neg_inv % p

    # Sanity: residual must vanish through the requested order.
    if any(_compose(h, psi, pairs, p)):
        raise ArithmeticError("implicit solve did not converge to the requested order")
    psi[0] = p3
    return tuple(psi)
