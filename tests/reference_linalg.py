"""
Dense matrix helpers that only the tests use: products, powers and the left
nullspace, for references and for checking relations between generator
matrices. Same conventions as ``cellular_hecke.linalg``: rows of
``Fraction``, row vectors, a matrix acts as v.a, a nullspace is
{v : v.a = 0}.
"""

from fractions import Fraction

from cellular_hecke.linalg import rref, transpose


def mat_zero(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_identity(n):
    out = mat_zero(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a, b):
    bt = transpose(b)
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt] for row in a
    ]


def mat_pow(a, k):
    out = mat_identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def left_nullspace(a):
    """Basis of {v : v.a = 0}, one vector per free row of ``a``, deterministic."""
    if not a:
        return []
    red, pivots = rref(transpose(a))
    basis = []
    for free in (j for j in range(len(a)) if j not in pivots):
        v = [Fraction(0)] * len(a)
        v[free] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -red[i][free]
        basis.append(v)
    return basis
