"""Truncated bivariate power series over F_p and implicit-function solving.

A Series2 is stored as a sparse map (i, j) -> coefficient of s^i t^j with
i + j <= order; all products are truncated at that total degree.  It is the
result type of the implicit solve and the reference arithmetic of the tests.

The hot paths work on dense triangular lists instead: position k of a list
of order N holds the coefficient of s^i t^j for (i, j) = triangle(N)[k], and
products run over precomputed index triples (unit_pairs).  The implicit
solve Taylor-shifts f once to h(s, t, w) = f(p1 + s, p2 + t, p3 + w) and
solves h(s, t, psi) = 0 degree by degree, which needs the w-partial of h to
be a unit at the origin; phi = p3 + psi.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Mapping, Tuple

from .field import inverse_mod


class ChartSingularError(ValueError):
    """The local chart is singular: the solved-coordinate partial vanishes."""


@dataclass(frozen=True)
class Series2:
    """Truncated bivariate power series over F_p."""

    p: int
    order: int
    coeffs: Tuple[Tuple[Tuple[int, int], int], ...]

    @staticmethod
    def from_dict(p: int, order: int, data: Mapping[Tuple[int, int], int]) -> "Series2":
        items = tuple(sorted(
            ((ij, c % p) for ij, c in data.items() if ij[0] + ij[1] <= order and c % p),
        ))
        return Series2(p, order, items)

    @staticmethod
    def constant(p: int, order: int, value: int) -> "Series2":
        return Series2.from_dict(p, order, {(0, 0): value})

    @staticmethod
    def linear(p: int, order: int, const: int, cs: int, ct: int) -> "Series2":
        return Series2.from_dict(p, order, {(0, 0): const, (1, 0): cs, (0, 1): ct})

    def as_dict(self) -> Dict[Tuple[int, int], int]:
        return dict(self.coeffs)

    def coefficient(self, i: int, j: int) -> int:
        return dict(self.coeffs).get((i, j), 0)

    def __add__(self, other: "Series2") -> "Series2":
        out = dict(self.coeffs)
        for ij, c in other.coeffs:
            out[ij] = (out.get(ij, 0) + c) % self.p
        return Series2.from_dict(self.p, min(self.order, other.order), out)

    def __sub__(self, other: "Series2") -> "Series2":
        out = dict(self.coeffs)
        for ij, c in other.coeffs:
            out[ij] = (out.get(ij, 0) - c) % self.p
        return Series2.from_dict(self.p, min(self.order, other.order), out)

    def __mul__(self, other: "Series2") -> "Series2":
        order = min(self.order, other.order)
        p = self.p
        out: Dict[Tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs:
            for (i2, j2), c2 in other.coeffs:
                i, j = i1 + i2, j1 + j2
                if i + j <= order:
                    key = (i, j)
                    out[key] = (out.get(key, 0) + c1 * c2) % p
        return Series2.from_dict(p, order, out)

    def scale(self, factor: int) -> "Series2":
        return Series2.from_dict(self.p, self.order,
                                 {ij: c * factor for ij, c in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def inverse(self) -> "Series2":
        """Multiplicative inverse; requires a unit constant term."""
        c0 = self.coefficient(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term is not a unit")
        inv = Series2.constant(self.p, self.order, inverse_mod(c0, self.p))
        two = Series2.constant(self.p, self.order, 2)
        prec = 1
        while prec <= self.order:
            prec *= 2
            inv = inv * (two - self * inv)
        return inv

    def pow(self, e: int) -> "Series2":
        result = Series2.constant(self.p, self.order, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def power_table(series: Series2, max_exp: int) -> list:
    """[series^0, ..., series^max_exp], each truncated at series.order."""
    table = [Series2.constant(series.p, series.order, 1)]
    for _ in range(max_exp):
        table.append(table[-1] * series)
    return table


def eval_poly3(
    coeffs: Mapping[Tuple[int, int, int], int],
    s1: Series2,
    s2: Series2,
    s3: Series2,
) -> Series2:
    """Evaluate a trivariate polynomial at three series arguments."""
    max1 = max((e[0] for e in coeffs), default=0)
    max2 = max((e[1] for e in coeffs), default=0)
    max3 = max((e[2] for e in coeffs), default=0)
    t1 = power_table(s1, max1)
    t2 = power_table(s2, max2)
    t3 = power_table(s3, max3)
    acc = Series2.constant(s1.p, s1.order, 0)
    for (e1, e2, e3), c in coeffs.items():
        if c % s1.p:
            acc = acc + (t1[e1] * t2[e2] * t3[e3]).scale(c)
    return acc


def eval_poly3_scalar(
    coeffs: Mapping[Tuple[int, int, int], int], x1: int, x2: int, x3: int, p: int
) -> int:
    acc = 0
    for (e1, e2, e3), c in coeffs.items():
        acc += c * pow(x1, e1, p) * pow(x2, e2, p) * pow(x3, e3, p)
    return acc % p


# ---------------------------------------------------------------------------
# Dense triangular coefficient lists: the coefficient of s^i t^j, i + j <=
# order, sits at the position k with triangle(order)[k] == (i, j).  The
# tables are built on first use of each order (one per fat-point
# multiplicity in use), never at import.


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


def dense_mul(x: List[int], y: List[int], pairs, p: int) -> List[int]:
    """x * y mod p for dense lists, y with zero constant term (see unit_pairs)."""
    out = [0] * len(x)
    for a, b, c in pairs:
        out[c] += x[a] * y[b]
    return [v % p for v in out]


def _taylor_shift(coeffs, point, order: int, p: int) -> List[List[int]]:
    """h(s, t, w) = f(p1 + s, p2 + t, p3 + w) as dense lists h[k] of the
    coefficients of w^k, keeping the terms with i + j <= order.

    The coefficient of s^i t^j w^k gathers C(e1, i) C(e2, j) C(e3, k)
    p1^(e1-i) p2^(e2-j) p3^(e3-k) over the terms c x^e1 y^e2 z^e3 of f."""
    index = {ij: k for k, ij in enumerate(triangle(order))}
    top = [max((e[c] for e in coeffs), default=0) for c in range(3)]
    # shifted[c][e][i]: coefficient of s^i in (point[c] + s)^e
    shifted = [
        [[comb(e, i) * pow(x, e - i, p) % p for i in range(e + 1)] for e in range(n + 1)]
        for x, n in zip(point, top)
    ]
    sh1, sh2, sh3 = shifted
    # Shift in (s, t) first, keeping the z-exponent, then shift in w.
    by_e3 = [[0] * len(index) for _ in range(top[2] + 1)]
    for (e1, e2, e3), c in coeffs.items():
        acc = by_e3[e3]
        for i, ci in enumerate(sh1[e1][:order + 1]):
            ci *= c
            for j, cj in enumerate(sh2[e2][:order + 1 - i]):
                acc[index[(i, j)]] += ci * cj
    h = [[0] * len(index) for _ in range(top[2] + 1)]
    for e3, acc in enumerate(by_e3):
        for row, v in enumerate(acc):
            v %= p
            if v:
                for k, ck in enumerate(sh3[e3]):
                    h[k][row] += v * ck
    return [[v % p for v in hk] for hk in h]


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
) -> Series2:
    """Series phi with f(p1 + s, p2 + t, phi) = 0 mod total degree > order,
    phi(0, 0) = p3, for a trivariate polynomial f vanishing at (p1, p2, p3)
    whose third-variable partial is nonzero there.

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
    return Series2.from_dict(p, order, dict(zip(pos, psi)))
