"""Two identities of the quartic condition rows, checked against polynomial
arithmetic that shares no code with them.

The rows are built by `k3_condition_rows` over every degree-d monomial (its
column basis swapped for `monomial_exponents(d)`), with a chunk budget of
two points, so the rows of an instance come from more than one chunk.  The
forms they are checked against are expanded here in pure Python, from the
quartic's coefficients and the point's coordinates alone:

(a) the rows annihilate x^beta F for every beta of degree d - 4: every
    condition vanishes on the multiples of F, which the standard-column
    basis rests on;
(b) at a point P of multiplicity 2d they annihilate T_P^d, with
    T_P = sum_i dF/dx_i(P) x_i the tangent plane at P.  By Euler's formula
    T_P(P) = 4 F(P) = 0, and T_P is the linear part of F at P, so T_P
    vanishes to order 2 along S at P and T_P^d to order 2d.  At
    multiplicity 2d + 1 the rows also read the order-2d coefficients, and
    on a general quartic the tangent section has a node at P, so T_P^d's
    do not all vanish: the rows do not annihilate it.

Below degree 4 there is no multiple of F, so (a) runs at d = 4, 5 and 8
and (b) at d = 2, 3, 5 and 8, at both default primes.
"""
from random import Random

import numpy as np
import pytest

from k3fat.oracle import DEFAULT_PRIME, DEFAULT_PRIME2, quartic
from k3fat.oracle.quartic import k3_condition_rows, monomial_exponents, sample_quartic_instance

PRIMES = (DEFAULT_PRIME, DEFAULT_PRIME2)


def all_monomial_rows(monkeypatch, d, instance):
    """The condition rows over every degree-d monomial, in
    monomial_exponents order, two points to a chunk, as Python integers."""
    exps = np.array(monomial_exponents(d), dtype=np.int64)
    m = instance.multiplicity
    monkeypatch.setattr(quartic, "column_exponents", lambda degree: exps)
    monkeypatch.setattr(quartic, "_CHUNK_ENTRIES", 2 * len(exps) * m * m)
    rows = np.array(k3_condition_rows(d, instance)).astype(object)
    assert rows.shape == (len(instance.points) * m * (m + 1) // 2, len(exps))
    return rows


def form_vector(form, d):
    """A form of degree d, {exponents: coefficient}, as its coefficient
    vector over monomial_exponents(d)."""
    return np.array([form.get(e, 0) for e in monomial_exponents(d)], dtype=object)


def times(f, g, p):
    """The product of two forms, {exponents: coefficient}, mod p."""
    out = {}
    for e, a in f.items():
        for h, b in g.items():
            key = tuple(i + j for i, j in zip(e, h))
            out[key] = (out.get(key, 0) + a * b) % p
    return out


def tangent_plane(coeffs, point, p):
    """T_P = sum_i dF/dx_i(P) x_i at P = (1, x1, x2, x3)."""
    coords = (1,) + tuple(point)
    plane = {}
    for i in range(4):
        value = 0
        for e, c in coeffs.items():
            if e[i]:
                term = c * e[i]
                for j, x in enumerate(coords):
                    term *= pow(x, e[j] - (j == i), p)
                value += term
        unit = tuple(int(j == i) for j in range(4))
        plane[unit] = value % p
    return plane


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("d", (4, 5, 8))
def test_rows_annihilate_the_multiples_of_the_quartic(monkeypatch, p, d):
    instance = sample_quartic_instance((d + 1, 5), p, Random(d))
    rows = all_monomial_rows(monkeypatch, d, instance)
    coeffs = dict(instance.coefficients)
    for beta in monomial_exponents(d - 4):
        multiple = form_vector(times({beta: 1}, coeffs, p), d)
        assert multiple.any()
        assert not (rows @ multiple % p).any(), beta


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("d", (2, 3, 5, 8))
def test_rows_at_multiplicity_2d_annihilate_the_tangent_section(monkeypatch, p, d):
    for m in (2 * d, 2 * d + 1):
        instance = sample_quartic_instance((m, 3), p, Random(m))
        rows = all_monomial_rows(monkeypatch, d, instance)
        coeffs = dict(instance.coefficients)
        per_point = m * (m + 1) // 2
        for n, point in enumerate(instance.points):
            plane = tangent_plane(coeffs, point, p)
            power = {(0, 0, 0, 0): 1}
            for _ in range(d):
                power = times(power, plane, p)
            values = rows[n * per_point:(n + 1) * per_point] @ form_vector(power, d) % p
            assert bool(values.any()) == (m == 2 * d + 1), (m, point)
