"""Sparse truncated bivariate series over F_p: the tests' reference arithmetic.

A Series2 is a sparse map (i, j) -> coefficient of s^i t^j with i + j <=
order; all products are truncated at that total degree.  The oracle itself
works on coefficient grids; the reference implementations in the tests
compute with this slower, independent arithmetic and hand their results
over as dense tuples in triangle order, converting with to_dense /
from_dense.  `ref_solve_implicit` is the reference implicit solve, Newton
iteration on Series2 at doubling precision, and `ref_series_at` the local
series of a sampled point that both reference row builders read.

`binomial_shift` is the oracle's former jet table, one list per
coordinate, kept verbatim: the reference for `chart_jets`, and the jets of
`ref_k3_condition_rows` and of the former solve below.

`triangle_solve_implicit` is the oracle's former solve, kept verbatim in
behaviour: dense triangular lists, one Taylor shift of f, and a
degree-by-degree solve that composes h(s, t, psi) by Horner's rule with the
pure-Python truncated product `dense_mul`.
"""
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Mapping, Tuple

from k3fat.oracle.field import inverse_mod
from k3fat.oracle.series import ChartSingularError, powers, triangle


def binomial_shift(x: int, top: int, kmax: int, p: int) -> List[List[int]]:
    """Rows k = 0..kmax of the jet table of x: entry e = 0..top of row k is
    the s^k coefficient C(e, k) x^(e - k) of (x + s)^e mod p, zero if e < k."""
    table = powers(x, top, p)
    return [
        [0] * min(k, top + 1) + [comb(e, k) * table[e - k] % p for e in range(k, top + 1)]
        for k in range(kmax + 1)
    ]


def positions(order: int):
    """Exponent pairs (i, j), i + j <= order, in lexicographic order: the
    layout of a dense coefficient tuple."""
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


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


def to_dense(series: Series2) -> Tuple[int, ...]:
    """The coefficients of `series` in positions(series.order) order."""
    return tuple(series.coefficient(i, j) for i, j in positions(series.order))


def from_dense(p: int, order: int, coeffs) -> Series2:
    """The Series2 of a dense coefficient tuple of the given order."""
    return Series2.from_dict(p, order, dict(zip(positions(order), coeffs)))


def power_table(series: Series2, max_exp: int) -> list:
    """[series^0, ..., series^max_exp], each truncated at series.order."""
    table = [Series2.constant(series.p, series.order, 1)]
    for _ in range(max_exp):
        table.append(table[-1] * series)
    return table


def eval_poly3(coeffs: Mapping[Tuple[int, int, int], int],
               s1: Series2, s2: Series2, s3: Series2) -> Series2:
    """Evaluate a trivariate polynomial at three series arguments."""
    tables = [power_table(s, max((e[k] for e in coeffs), default=0))
              for k, s in enumerate((s1, s2, s3))]
    acc = Series2.constant(s1.p, s1.order, 0)
    for (e1, e2, e3), c in coeffs.items():
        if c % s1.p:
            acc = acc + (tables[0][e1] * tables[1][e2] * tables[2][e3]).scale(c)
    return acc


def ref_eval_scalar(coeffs, x1, x2, x3, p):
    """The value mod p of a trivariate polynomial at a point."""
    return sum(c * pow(x1, e1, p) * pow(x2, e2, p) * pow(x3, e3, p)
               for (e1, e2, e3), c in coeffs.items()) % p


def ref_solve_implicit(coeffs, p1, p2, p3, order, p):
    """The dense coefficients of phi, phi(0, 0) = p3, with
    coeffs(p1 + s, p2 + t, phi) = 0 through total degree order."""
    fz: Dict = {}
    for (e1, e2, e3), c in coeffs.items():
        if e3 > 0:
            fz[(e1, e2, e3 - 1)] = (fz.get((e1, e2, e3 - 1), 0) + e3 * c) % p
    if ref_eval_scalar(fz, p1, p2, p3, p) == 0:
        raise ChartSingularError("z-partial vanishes")
    if ref_eval_scalar(coeffs, p1, p2, p3, p) != 0:
        raise ValueError("the polynomial does not vanish")
    phi = Series2.constant(p, 0, p3)
    prec = 0
    while prec < order:
        prec = min(2 * prec + 1, order)
        phi = Series2.from_dict(p, prec, phi.as_dict())
        u = Series2.linear(p, prec, p1, 1, 0)
        v = Series2.linear(p, prec, p2, 0, 1)
        f_val = eval_poly3(coeffs, u, v, phi)
        fz_val = eval_poly3(fz, u, v, phi)
        phi = phi - f_val * fz_val.inverse()
    return to_dense(phi)


def ref_series_at(instance, pt):
    """The local series x3 = phi(x1, x2) at a point of an instance, to order
    multiplicity - 1: the quartic set to x0 = 1, solved by ref_solve_implicit."""
    f = {tuple(exps): c for (_, *exps), c in instance.coefficients if c % instance.prime}
    return ref_solve_implicit(f, *pt, instance.multiplicity - 1, instance.prime)


# ---------------------------------------------------------------------------
# The former solve on dense triangular lists: position k of a list holds the
# coefficient of s^i t^j for (i, j) = triangle(order)[k].


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


def triangle_solve_implicit(coeffs, p1, p2, p3, order, p) -> Tuple[int, ...]:
    """Series phi with f(p1 + s, p2 + t, phi) = 0 mod total degree > order,
    phi(0, 0) = p3, as its dense coefficients in triangle(order) order.

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
