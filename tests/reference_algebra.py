"""
The tuple-keyed algebra kernel, kept as the reference for the coded kernel
of ``cellular_hecke.algebra``: terms keyed by (exponents, permutation)
pairs, permutation products by ``perm_mul``, the x_j^ell reductions built by
the same warm-up, every term written in normal form through ``_put``, and
the same grouped product loop. ``pairwise_product`` multiplies one pair of
terms at a time instead. ``tau_hat`` and ``pairing`` read the trace and the
bilinear form from full products, one element or pair at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile

from cellular_hecke.algebra import (
    AlgebraContext,
    Element,
    _acc,
    _exchange,
    star,
)
from cellular_hecke.combinatorics import (
    Perm,
    perm_identity,
    perm_mul,
    perm_reduced_word,
    perm_simple,
)

Exps = tuple[int, ...]
TermKey = tuple[Exps, Perm]
Terms = dict[TermKey, int | Fraction]


class ReferenceKernel:
    """The rewriting caches of one (ell, r, omega), keyed by tuples."""

    def __init__(self, ell: int, r: int, omega: tuple[int, ...]):
        self.ell, self.r, self.omega = ell, r, tuple(omega)
        self._push: dict[tuple[Perm, Exps], Terms] = {}
        self._xred: dict[Exps, Terms] = {}
        self._xl = self._warm_up()

    def _warm_up(self) -> list[Terms]:
        ell, r = self.ell, self.r
        poly = [1]
        for w in self.omega:
            poly = [0] + poly
            poly = [poly[k] - w * poly[k + 1] if k + 1 < len(poly) else poly[k]
                    for k in range(len(poly) - 1)] + [poly[-1]]
        ident = perm_identity(r)
        xl: list[Terms] = [{
            ((k,) + (0,) * (r - 1), ident): -poly[k]
            for k in range(ell) if poly[k]
        }]
        for j in range(2, r + 1):
            s = perm_simple(r, j - 1)
            cur: Terms = {}
            for (c, u), coef in xl[j - 2].items():
                us = perm_mul(u, s)
                for (c2, z), c3 in self.push_through(s, c).items():
                    _acc(cur, (c2, perm_mul(z, us)), coef * c3)
            for m in range(ell):
                e = [0] * r
                e[j - 2], e[j - 1] = ell - 1 - m, m
                _acc(cur, (tuple(e), s), 1)
            xl.append(cur)
        return xl

    def x_reduce(self, exps: Exps) -> Terms:
        """Normal form of x^exps, highest x-degree first."""
        got = self._xred.get(exps)
        if got is not None:
            return got
        over = next(j for j, a in enumerate(exps) if a >= self.ell)
        rest = list(exps)
        rest[over] -= self.ell
        out: Terms = {}
        for (c, u), coef in self._xl[over].items():
            self.put(out, tuple(p + q for p, q in zip(rest, c)), u, coef, 0)
        out = dict(sorted(out.items(), key=lambda t: -sum(t[0][0])))
        self._xred[exps] = out
        return out

    def push_through(self, w: Perm, exps: Exps) -> Terms:
        """Normal form of w . x^exps."""
        got = self._push.get((w, exps))
        if got is not None:
            return got
        cur: Terms = {(exps, perm_identity(self.r)): 1}
        for i in reversed(perm_reduced_word(w)):
            s = perm_simple(self.r, i)
            nxt: Terms = {}
            for (c, u), coef in cur.items():
                for alpha, beta, eps, icoef in _exchange[c[i - 1], c[i]]:
                    c2 = list(c)
                    c2[i - 1], c2[i] = alpha, beta
                    self.put(nxt, tuple(c2), perm_mul(s, u) if eps else u,
                             coef * icoef, 0)
            cur = nxt
        self._push[(w, exps)] = cur
        return cur

    def put(self, out: Terms, exps: Exps, perm: Perm, coef,
            floor: int) -> None:
        """Add coef * x^exps . perm to ``out`` in normal form, pruned below
        x-degree ``floor``."""
        if max(exps) < self.ell:
            _acc(out, (exps, perm), coef)
            return
        if floor and sum(exps) <= floor:
            return
        reduced = self.x_reduce(exps).items()
        if floor:
            reduced = takewhile(lambda t: sum(t[0][0]) >= floor, reduced)
        for (d, z), c2 in reduced:
            _acc(out, (d, perm_mul(z, perm)), coef * c2)

    def times_x(self, terms: Terms, b: Exps, floor: int) -> Terms:
        """(sum of ``terms``) . x^b, less the terms that cannot reach
        x-degree ``floor``."""
        hb: Terms = {}
        for (a, w), c1 in terms.items():
            need = floor - sum(a) if floor else 0
            if need > sum(b):
                continue
            for (c, u), c3 in self.push_through(w, b).items():
                if sum(c) >= need:
                    self.put(hb, tuple(p + q for p, q in zip(a, c)), u,
                             c1 * c3, floor)
        return hb

    def product(self, h: Terms, k: Terms) -> Terms:
        """h . k by the grouped loop: h . x^b once per x-part b of k."""
        by_x: dict[Exps, list] = {}
        for (b, v), coef in k.items():
            by_x.setdefault(b, []).append((v, coef))
        out: Terms = {}
        for b, right in by_x.items():
            for (d, z), c4 in self.times_x(h, b, 0).items():
                for v, c2 in right:
                    _acc(out, (d, perm_mul(z, v)), c4 * c2)
        return out

    def pairwise(self, h: Terms, k: Terms) -> Terms:
        """h . k with one push-through per (left term, right term) pair."""
        out: Terms = {}
        for (a, w), c1 in h.items():
            for (b, v), c2 in k.items():
                for (c, u), c3 in self.push_through(w, b).items():
                    self.put(out, tuple(p + q for p, q in zip(a, c)),
                             perm_mul(u, v), c1 * c2 * c3, 0)
        return out


_KERNELS: dict[tuple, ReferenceKernel] = {}


def kernel(ctx: AlgebraContext) -> ReferenceKernel:
    """The reference kernel of ``ctx``'s parameters, built once."""
    params = (ctx.ell, ctx.r, ctx.omega)
    if params not in _KERNELS:
        _KERNELS[params] = ReferenceKernel(*params)
    return _KERNELS[params]


def to_vector(ctx: AlgebraContext, h: Element) -> list[Fraction]:
    """``h`` as a dense row over the monomial keys, every entry a Fraction."""
    vec = [Fraction(0)] * ctx.dimension()
    for key, coef in h.terms.items():
        vec[key] = Fraction(coef)
    return vec


def decode(h: Element) -> Terms:
    """The terms of ``h`` keyed by (exponents, permutation)."""
    return {h.ctx.monomial(key): c for key, c in h.terms.items()}


def encode(ctx: AlgebraContext, terms: Terms) -> Element:
    return Element(ctx, {ctx.key(a, w): c for (a, w), c in terms.items()})


def reference_product(h: Element, k: Element) -> Terms:
    return kernel(h.ctx).product(decode(h), decode(k))


def pairwise_product(h: Element, k: Element) -> Element:
    """
    Reference product, one push-through per (left term, right term) pair;
    ``Element.__mul__`` pushes each distinct right x-part once instead.
    """
    return encode(h.ctx, kernel(h.ctx).pairwise(decode(h), decode(k)))


def tau_hat(h: Element) -> Fraction:
    """
    The trace tau: the coefficient of x_1^{ell-1}...x_r^{ell-1} . 1 in
    normal form, read from the full element.
    """
    ctx = h.ctx
    top = ctx.key((ctx.ell - 1,) * ctx.r, perm_identity(ctx.r))
    return Fraction(h.terms.get(top, 0))


def pairing(h1: Element, h2: Element) -> Fraction:
    """
    The symmetric bilinear form tau(h1 . star(h2)), one pair at a time from
    the full product. ``verify pairing`` reads a row of them from
    ``algebra.trace_functional(h1)``.
    """
    h1._check(h2)
    return tau_hat(h1 * star(h2))
