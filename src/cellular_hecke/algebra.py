"""
Exact arithmetic in the degenerate cyclotomic Hecke algebra of type
G(ell, 1, r) over the rationals.

The algebra is generated by s_1..s_{r-1} (symmetric group relations),
pairwise commuting x_1..x_r with the mixed relations

    s_i x_j = x_j s_i            (j != i, i+1)
    s_i x_{i+1} = x_i s_i + 1
    s_i x_i = x_{i+1} s_i - 1

and the cyclotomic relation (x_1 - omega_1)...(x_1 - omega_ell) = 0 with
integral parameters omega. Every element is kept in normal form on the basis

    x_1^{a_1} ... x_r^{a_r} . w        0 <= a_i <= ell-1,  w in S_r,

of size ell^r * r!. Every product of elements runs through one loop,
``Element.__mul__``, built on the identity k = sum_b x^b . Y_b, where Y_b
is the group-algebra part of k's terms with x-part b; by linearity h . k =
sum_b (h . x^b) . Y_b. For each distinct b the loop's step
(``AlgebraContext._times_x``) pushes x^b to the left through each of h's
permutations with the mixed relations (``_push_through``) and writes every
resulting term through ``AlgebraContext._put``, so like terms of h . x^b
combine once; then the loop relabels that normal form by each permutation
of Y_b, because a permutation on the right only relabels terms
(``right_translate`` is that product). A seed is a polynomial in x times a
Young sum of permutations, so many of its terms share an x-part. ``_put``
is the one place the normal form is enforced: every rewrite writes its
terms through it, and it sends an overflowing x-part to ``_x_reduce``,
which rewrites powers x_j^ell through cached expansions. The x_j^ell cache
is populated once at context construction (warm-up), which builds x_j^ell
from x_{j-1}^ell with the same push-through step; elements are immutable
values and every operation is deterministic. The remaining per-context
lookup caches fill in lazily and idempotently.

Every permutation product z . v in the kernel (the relabel by Y_b, the
reduction's z . perm, the exchange step's s . u, ``right_translate`` and
the warm-up) goes through one index map per left permutation z:
``combinatorics.perm_then(z)``, an ``operator.itemgetter`` over the
positions ``perm_mul(z, (0, ..., r-1))``, so ``perm_mul`` stays the one
definition. The maps are cached on the context by z, at most r! of them
(a full r! x r! product table grows to hundreds of thousands of entries at
r = 6). ``Element.__mul__`` looks a map up once per term of h . x^b,
outside its loop over Y_b, and the exchange step once per s.

With integral omega every structure constant is an integer, so coefficients
are Python ``int``: the exchange table, the warm-up, every rewriting cache
and every product of integral elements. A coefficient is a ``Fraction`` only
when a caller scales by a non-integral rational, and then Python's numeric
tower mixes the two exactly (``1 == Fraction(1)`` with equal hashes, so
equality of elements does not see the type). Integral factors always give
``int`` coefficients; in a mixed product, an integral coefficient may be
held as an ``int`` or as an integral ``Fraction``, depending on where
``Fraction`` contributions to it cancel, with the same value and hash.
Nothing is ever a float: a non-integral omega raises ValueError, and a
non-rational scalar or an ``Element`` coefficient that is not an int or a
Fraction raises TypeError. The linear algebra boundary converts:
``AlgebraContext.to_vector``, ``tau_hat`` and ``trace_of_product`` return
``Fraction`` values.

The trace tau (``tau_hat``) reads the coefficient of the top monomial
x_1^{ell-1}...x_r^{ell-1} . 1. Since a permutation v on the right only
relabels,

    tau(h . x^b . v) = coefficient of (x_1^{ell-1}...x_r^{ell-1}, v^{-1})
                       in h . x^b.

Only terms of h . x^b at the top x-degree r(ell-1) reach that coefficient,
and no rewrite raises the x-degree |a| = a_1 + ... + a_r: an exchange step
keeps it or lowers it by 1, and reducing x_j^ell lowers it strictly. So a
term whose x-degree is already below the floor r(ell-1) can be dropped as
soon as it appears: a left term x^a . w when |a| + |b| is below it, a term
x^c . u of w . x^b when |a| + |c| is, and a term of the reduction of an
overflowing x^(a+c) when its own degree is. ``AlgebraContext._times_x``
is the per-b step of every product, with floor 0 in ``Element.__mul__`` and
floor r(ell-1) in ``trace_of_product`` (tau(h . k) without forming h . k)
and ``trace_functional`` (the functional k -> tau(h . k) on the whole basis,
from one pruned h . x^b per x-monomial b). pairing(h, k) = tau(h . star(k))
is that functional summed over the terms of star(k).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import product, takewhile
from numbers import Rational
from operator import add

from .combinatorics import (
    Perm,
    all_perms,
    perm_identity,
    perm_inverse,
    perm_is_valid,
    perm_reduced_word,
    perm_simple,
    perm_then,
)

Exps = tuple[int, ...]
TermKey = tuple[Exps, Perm]
Coef = int | Fraction

# s.x^p.y^q -> sum coef * x^alpha y^beta s^eps, for adjacent variables x, y.
# Independent of the position of the reflection and of the context.
_EXCHANGE: dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]] = {}


def _exchange(p: int, q: int) -> tuple[tuple[int, int, int, int], ...]:
    """Expansion of s.x_i^p.x_{i+1}^q as (alpha, beta, eps, coef) terms."""
    got = _EXCHANGE.get((p, q))
    if got is not None:
        return got
    acc: dict[tuple[int, int, int], int] = {}
    if p == 0 and q == 0:
        _acc(acc, (0, 0, 1), 1)
    elif p > 0:
        # s.x = y.s - 1
        for a, b, e, c in _exchange(p - 1, q):
            _acc(acc, (a, b + 1, e), c)
        _acc(acc, (p - 1, q, 0), -1)
    else:
        # s.y = x.s + 1
        for a, b, e, c in _exchange(0, q - 1):
            _acc(acc, (a + 1, b, e), c)
        _acc(acc, (0, q - 1, 0), 1)
    out = tuple(sorted((a, b, e, c) for (a, b, e), c in acc.items()))
    _EXCHANGE[(p, q)] = out
    return out


class _ThenMaps(dict):
    """z -> ``perm_then(z)``, compiled on first use: at most r! entries."""

    def __missing__(self, z: Perm) -> Callable[[Perm], Perm]:
        then = self[z] = perm_then(z)
        return then


class AlgebraContext:
    """
    Fixed (ell, r, omega) with all rewriting caches. Constructing the context
    performs the warm-up (normal forms of x_j^ell for every j).
    """

    def __init__(self, ell: int, r: int, omega: tuple[int, ...]):
        if ell < 1 or r < 1:
            raise ValueError("need ell >= 1 and r >= 1")
        given = tuple(omega)
        omega = tuple(int(w) for w in given)
        if omega != given:
            raise ValueError(f"omega must be integral: {given}")
        if len(omega) != ell:
            raise ValueError("omega must have length ell")
        self.ell = ell
        self.r = r
        self.omega = omega
        self._push: dict[tuple[Perm, Exps], dict[TermKey, Coef]] = {}
        self._xred: dict[Exps, dict[TermKey, Coef]] = {}
        self._then: dict[Perm, Callable[[Perm], Perm]] = _ThenMaps()
        self._basis: list[TermKey] | None = None
        self._basis_index: dict[TermKey, int] | None = None
        self._xl = self._warm_up()

    # -- construction of elements -------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.from_permutation(perm_identity(self.r))

    def from_permutation(self, w: Perm) -> "Element":
        if not perm_is_valid(w) or len(w) != self.r:
            raise ValueError(f"not a permutation of 1..{self.r}: {w}")
        return Element(self, {((0,) * self.r, tuple(w)): 1})

    def from_x_monomial(self, exps: tuple[int, ...]) -> "Element":
        """x_1^{a_1}...x_r^{a_r}, reduced if any a_i >= ell."""
        exps = tuple(int(a) for a in exps)
        if len(exps) != self.r or any(a < 0 for a in exps):
            raise ValueError(f"bad exponent vector {exps}")
        out: dict[TermKey, Coef] = {}
        self._put(out, exps, perm_identity(self.r), 1, 0)
        return Element(self, out)

    def generator_s(self, i: int) -> "Element":
        return self.from_permutation(perm_simple(self.r, i))

    def generator_x(self, k: int) -> "Element":
        if not 1 <= k <= self.r:
            raise ValueError(f"x_{k} out of range")
        exps = [0] * self.r
        exps[k - 1] = 1
        return self.from_x_monomial(tuple(exps))

    # -- normal-form basis ----------------------------------------------------

    def dimension(self) -> int:
        n = 1
        for i in range(1, self.r + 1):
            n *= i
        return n * self.ell ** self.r

    def basis(self) -> list[TermKey]:
        """All (exponents, permutation) keys, in a fixed order."""
        if self._basis is None:
            exps = sorted(product(range(self.ell), repeat=self.r))
            perms = all_perms(self.r)
            self._basis = [(e, w) for e in exps for w in perms]
            self._basis_index = {key: i for i, key in enumerate(self._basis)}
        return self._basis

    def basis_index(self) -> dict[TermKey, int]:
        self.basis()
        return self._basis_index

    def to_vector(self, h: "Element") -> list[Fraction]:
        idx = self.basis_index()
        vec = [Fraction(0)] * len(idx)
        for key, coef in h.terms.items():
            vec[idx[key]] = Fraction(coef)
        return vec

    # -- rewriting machinery --------------------------------------------------

    def _warm_up(self) -> list[dict[TermKey, Coef]]:
        ell, r = self.ell, self.r
        # monic expansion of (X - omega_1)...(X - omega_ell)
        poly = [1]
        for w in self.omega:
            poly = [0] + poly
            poly = [poly[k] - w * poly[k + 1] if k + 1 < len(poly) else poly[k]
                    for k in range(len(poly) - 1)] + [poly[-1]]
        # x_1^ell = -sum_{k<ell} poly[k] x_1^k
        ident = perm_identity(r)
        then = self._then
        xl: list[dict[TermKey, Coef]] = [{
            ((k,) + (0,) * (r - 1), ident): -poly[k]
            for k in range(ell) if poly[k]
        }]
        # x_j^ell = s.x_{j-1}^ell.s + sum_m x_{j-1}^{ell-1-m} x_j^m s, with
        # s = s_{j-1}. x_{j-1}^ell involves x_1..x_{j-1} only, so s.x^c never
        # overflows and _push_through needs no _x_reduce (nor _xl) here.
        for j in range(2, r + 1):
            s = perm_simple(r, j - 1)
            cur: dict[TermKey, Coef] = {}
            for (c, u), coef in xl[j - 2].items():
                us = then[u](s)
                for (c2, z), c3 in self._push_through(s, c).items():
                    _acc(cur, (c2, then[z](us)), coef * c3)
            for m in range(ell):
                e = [0] * r
                e[j - 2], e[j - 1] = ell - 1 - m, m
                _acc(cur, (tuple(e), s), 1)
            xl.append(cur)
        return xl

    def _x_reduce(self, exps: Exps) -> dict[TermKey, Coef]:
        """Normal form of the commutative monomial x^exps."""
        got = self._xred.get(exps)
        if got is not None:
            return got
        over = next(j for j, a in enumerate(exps) if a >= self.ell)
        rest = list(exps)
        rest[over] -= self.ell
        out: dict[TermKey, Coef] = {}
        for (c, u), coef in self._xl[over].items():
            self._put(out, tuple(map(add, rest, c)), u, coef, 0)
        # highest x-degree first, so a floor cuts the list at one place
        out = dict(sorted(out.items(), key=lambda t: -sum(t[0][0])))
        self._xred[exps] = out
        return out

    def _push_through(self, w: Perm, exps: Exps) -> dict[TermKey, Coef]:
        """Normal form of w . x^exps (x's pushed to the left of the perm)."""
        key = (w, exps)
        got = self._push.get(key)
        if got is not None:
            return got
        cur: dict[TermKey, Coef] = {(exps, perm_identity(self.r)): 1}
        for i in reversed(perm_reduced_word(w)):
            s_then = self._then[perm_simple(self.r, i)]
            nxt: dict[TermKey, Coef] = {}
            for (c, u), coef in cur.items():
                for alpha, beta, eps, icoef in _exchange(c[i - 1], c[i]):
                    c2 = list(c)
                    c2[i - 1], c2[i] = alpha, beta
                    self._put(nxt, tuple(c2), s_then(u) if eps else u,
                              coef * icoef, 0)
            cur = nxt
        self._push[key] = cur
        return cur

    def _times_x(self, terms: dict[TermKey, Coef], b: Exps,
                 floor: int) -> dict[TermKey, Coef]:
        """
        Normal form of (sum of ``terms``) . x^b, less terms that cannot reach
        x-degree ``floor``: rewriting never raises the x-degree, so a left
        term x^a . w with |a| + |b| < floor, a pushed term x^c . u of
        w . x^b with |a| + |c| < floor, and a term of the reduction of
        x^(a+c) below ``floor`` are dropped. Every term of degree at least
        ``floor`` is exact; floor 0 keeps them all.
        """
        hb: dict[TermKey, Coef] = {}
        room = sum(b)
        for (a, w), c1 in terms.items():
            need = floor - sum(a) if floor else 0
            if need > room:
                continue
            pushed = self._push_through(w, b).items()
            if need > 0:
                pushed = [t for t in pushed if sum(t[0][0]) >= need]
            for (c, u), c3 in pushed:
                self._put(hb, tuple(map(add, a, c)), u, c1 * c3, floor)
        return hb

    def _put(self, out: dict[TermKey, Coef], exps: Exps, perm: Perm,
             coef: Coef, floor: int) -> None:
        """
        Add coef * x^exps . perm to ``out``, reducing overflowing powers and
        dropping reduced terms of x-degree below ``floor`` (none at floor 0).
        The reduction lowers the degree, so at |exps| <= floor all drop.
        """
        if max(exps) < self.ell:
            _acc(out, (exps, perm), coef)
        else:
            if floor and sum(exps) <= floor:
                return
            reduced = self._x_reduce(exps).items()
            if floor:
                # _x_reduce lists its terms by degree, highest first
                reduced = takewhile(lambda t: sum(t[0][0]) >= floor, reduced)
            then = self._then
            for (d, z), c2 in reduced:
                _acc(out, (d, then[z](perm)), coef * c2)

    def __repr__(self) -> str:
        return f"AlgebraContext(ell={self.ell}, r={self.r}, omega={self.omega})"


def _by_x(k: "Element") -> dict[Exps, list[tuple[Perm, Coef]]]:
    """k's terms grouped by x-part: b -> [(v, coef) of each x^b . v]."""
    by_x: dict[Exps, list[tuple[Perm, Coef]]] = {}
    for (b, v), coef in k.terms.items():
        by_x.setdefault(b, []).append((v, coef))
    return by_x


def _acc(d: dict, key, val) -> None:
    cur = d.get(key, 0) + val
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


class Element:
    """
    A finite rational combination of normal-form monomials. Immutable by
    convention; all arithmetic returns fresh elements.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict[TermKey, Coef]):
        for coef in terms.values():
            if not isinstance(coef, (int, Fraction)):
                raise TypeError(f"coefficient {coef!r} is not an int or a "
                                f"Fraction")
        self.ctx = ctx
        self.terms = terms

    def _check(self, other: "Element") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("elements belong to different algebra contexts")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            _acc(out, key, coef)
        return Element(self.ctx, out)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            _acc(out, key, -coef)
        return Element(self.ctx, out)

    def __neg__(self) -> "Element":
        return Element(self.ctx, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            # self . other = sum_b (self . x^b) . Y_b with Y_b = sum_v c2 v:
            # build hb = self . x^b once per distinct b, then relabel by each v
            ctx = self.ctx
            then = ctx._then
            out: dict[TermKey, Coef] = {}
            for b, right in _by_x(other).items():
                hb = ctx._times_x(self.terms, b, 0)
                for (d, z), c4 in hb.items():
                    zv = then[z]
                    for v, c2 in right:
                        _acc(out, (d, zv(v)), c4 * c2)
            return Element(ctx, out)
        if not isinstance(other, Rational):
            return NotImplemented
        coef = other.numerator if other.denominator == 1 else Fraction(other)
        if coef == 0:
            return self.ctx.zero()
        return Element(self.ctx, {k: coef * c for k, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; Element*Element handled by __mul__
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, w), c in sorted(self.terms.items()):
            xs = ".".join(f"x{i+1}^{e}" for i, e in enumerate(a) if e)
            bits.append(f"{c}*{xs or '1'}*{w}")
        return " + ".join(bits)


def star(h: Element) -> Element:
    """
    The anti-automorphism fixing every s_i and every x_k: reverses products,
    sends x^a . w to w^{-1} . x^a (then renormalizes).
    """
    ctx = h.ctx
    out: dict[TermKey, Coef] = {}
    for (a, w), coef in h.terms.items():
        for key, c2 in ctx._push_through(perm_inverse(w), a).items():
            _acc(out, key, coef * c2)
    return Element(ctx, out)


def right_translate(h: Element, v: Perm) -> Element:
    """
    The product h . v by a permutation v on the right: x^a . w . v is the
    normal-form monomial x^a . (wv), so the terms are only relabeled.
    """
    then = h.ctx._then
    return Element(
        h.ctx, {(a, then[w](v)): c for (a, w), c in h.terms.items()}
    )


def tau_hat(h: Element) -> Fraction:
    """Coefficient of x_1^{ell-1}...x_r^{ell-1} . 1 in normal form."""
    ctx = h.ctx
    top = ((ctx.ell - 1,) * ctx.r, perm_identity(ctx.r))
    return Fraction(h.terms.get(top, 0))


def trace_functional(h: Element) -> dict[TermKey, Coef]:
    """
    The functional k -> tau(h . k) on the monomial basis, as its nonzero
    values: at x^b . v it is the coefficient of (top, v^{-1}) in h . x^b,
    read from the terms of h . x^b that can reach the top x-degree.
    """
    ctx = h.ctx
    top = (ctx.ell - 1,) * ctx.r
    out: dict[TermKey, Coef] = {}
    for b in product(range(ctx.ell), repeat=ctx.r):
        for (d, z), coef in ctx._times_x(h.terms, b, sum(top)).items():
            if d == top:
                out[(b, perm_inverse(z))] = coef
    return out


def trace_of_product(h: Element, k: Element) -> Fraction:
    """
    tau(h . k) without forming h . k: for each x-part b of k, the terms of
    h . x^b that can reach the top x-degree, read at (top, v^{-1}) for each
    term x^b . v of k.
    """
    h._check(k)
    ctx = h.ctx
    top = (ctx.ell - 1,) * ctx.r
    total: Coef = 0
    for b, right in _by_x(k).items():
        hb = ctx._times_x(h.terms, b, sum(top))
        for v, coef in right:
            total += coef * hb.get((top, perm_inverse(v)), 0)
    return Fraction(total)


def pairing(h1: Element, h2: Element) -> Fraction:
    """
    The symmetric bilinear form tau_hat(h1 . star(h2)), one pair at a time.
    ``verify pairing`` reads the same values from ``trace_functional(h1)``.
    """
    h1._check(h2)
    return tau_hat(h1 * star(h2))


def defining_relations(ctx: AlgebraContext) -> list[tuple[str, Element]]:
    """
    Every defining relation as a (name, element) pair; all elements must be
    zero after normalization.
    """
    r, ell = ctx.r, ctx.ell
    one = ctx.one()
    s = {i: ctx.generator_s(i) for i in range(1, r)}
    x = {k: ctx.generator_x(k) for k in range(1, r + 1)}
    rels: list[tuple[str, Element]] = []
    for i in range(1, r):
        rels.append((f"s{i}^2 = 1", s[i] * s[i] - one))
    for i in range(1, r - 1):
        rels.append(
            (f"braid s{i} s{i+1}",
             s[i] * s[i + 1] * s[i] - s[i + 1] * s[i] * s[i + 1])
        )
    for i in range(1, r):
        for j in range(i + 2, r):
            rels.append((f"s{i} s{j} commute", s[i] * s[j] - s[j] * s[i]))
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            rels.append((f"x{i} x{j} commute", x[i] * x[j] - x[j] * x[i]))
    for i in range(1, r):
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                rels.append((f"s{i} x{j} commute", s[i] * x[j] - x[j] * s[i]))
    for i in range(1, r):
        rels.append(
            (f"x{i} s{i} - s{i} x{i+1} = -1",
             x[i] * s[i] - s[i] * x[i + 1] + one)
        )
        rels.append(
            (f"s{i} x{i} - x{i+1} s{i} = -1",
             s[i] * x[i] - x[i + 1] * s[i] + one)
        )
    f = one
    for w in ctx.omega:
        f = f * (x[1] - one * w)
    rels.append((f"cyclotomic degree {ell}", f))
    return rels


# verify_basis samples this many basis pairs and triples with this seed
_PAIR_SAMPLE = 300
_TRIPLE_SAMPLE = 200
_SAMPLE_SEED = 0


def verify_basis(ctx: AlgebraContext) -> bool:
    """
    Confirm the normal-form basis: size ell^r * r!, closure of sampled basis
    products under the normal form, and associativity on sampled triples.
    """
    import random

    basis = ctx.basis()
    if len(basis) != ctx.dimension():
        return False
    rng = random.Random(_SAMPLE_SEED)
    n = len(basis)

    def elem(i: int) -> Element:
        return Element(ctx, {basis[i]: 1})

    for _ in range(_PAIR_SAMPLE):
        i, j = rng.randrange(n), rng.randrange(n)
        prod = elem(i) * elem(j)
        for (a, w) in prod.terms:
            if len(a) != ctx.r or any(not 0 <= e < ctx.ell for e in a):
                return False
            if not perm_is_valid(w):
                return False
    for _ in range(_TRIPLE_SAMPLE):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if (elem(i) * elem(j)) * elem(k) != elem(i) * (elem(j) * elem(k)):
            return False
    return True
