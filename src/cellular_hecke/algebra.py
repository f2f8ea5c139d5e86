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

of size ell^r * r!.

A basis monomial is keyed by its position in that basis, an ``int``. The
exponent vectors are coded 0..ell^r - 1 in the sorted order of
``product(range(ell), repeat=r)`` (a_1 is the leading base-ell digit) and
the permutations 0..r! - 1 in ``all_perms(r)`` order (the identity is 0);
x^a . w has key code(a) * r! + code(w), so the order of keys is the
lexicographic order of the (a, w) pairs. ``AlgebraContext.key`` codes a
monomial, ``AlgebraContext.monomial`` decodes a key, and ``basis()`` is
the range of keys. ``Element.terms`` maps keys to coefficients, and the
linear algebra boundary (the change of basis of ``FamilyRealization`` and
its ``expand``) uses a key as its column.

Every product of elements runs through one loop, ``Element.__mul__``,
built on the identity k = sum_b x^b . Y_b, where Y_b is the group-algebra
part of k's terms with x-part b; by linearity h . k = sum_b (h . x^b) . Y_b.
For each distinct b the loop's step (``AlgebraContext._times_x``) pushes
x^b to the left through each of h's permutations with the mixed relations
(``_push``) and adds the exponents of each pushed term to those of the
left term, so like terms of h . x^b combine once; then the loop relabels
that normal form by each permutation of Y_b, because a permutation on the
right only relabels terms (``right_translate`` is that product).

Every kernel cache is a ``_Table``: a dict whose fill function builds an
entry from its key alone (reading other entries on the way) the first
time the key is read, so callers only subscript it, and each table fills
lazily and idempotently, once per key. The kernel runs on codes through
these tables, each given by its key, its entry and its fill function:

- ``_exchange`` (module level, shared by every context), by (p, q):
  s_i . x_i^p x_{i+1}^q as (alpha, beta, eps, coef) terms of
  x_i^alpha x_{i+1}^beta s_i^eps; ``_exchange_entry``.
- ``_first``, by code(z): the first letter of z's reduced word.
- ``_rows``, by code(z): z . v is ``_rows[z][v]``, a tuple of r! codes;
  ``_row``. ``Element.__mul__`` looks a row up once per term of h . x^b,
  outside its loop over Y_b. A row is a tuple of ints, so the garbage
  collector stops scanning it, and the reduction lists that hold it,
  after one pass.
- ``_xred``, by an exponent tuple e with some e_j >= ell: x^e as a
  reduction list of (code(d) * r!, ``_rows[z]``, coef) terms of x^d . z,
  highest x-degree first; ``_xred_entry``. Times u on the right, such a
  term has key code(d) * r! + ``_rows[z][u]``. A list holds the row
  objects of ``_rows`` and the ints of ``_xn`` (code(d) * r! by code(d)),
  no copy of either.
- ``_sums``, by code(a) * ell^r + code(c): x^a . x^c, as the key of
  x^(a+c) . 1 when every exponent of a + c is below ell, else the
  ``_xred`` list of a + c, shared by every (a, c) with that sum;
  ``_sums_entry``.
- ``_push``, by code(w) * ell^r + code(b): w . x^b as (code(c), code(u),
  coef) terms of x^c . u, one exchange step from the entry of a
  one-shorter permutation; ``_push_entry``.

``_deg`` is the x-degree |a| = a_1 + ... + a_r of each exponent code. The
tables keep only coded results. The reduction of x_j^ell is built once at
context construction (warm-up), from x_{j-1}^ell by one product in
``Element.__mul__`` and a relabel. Elements are immutable values.

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
Fraction raises TypeError. ``trace_of_product`` returns a ``Fraction``. A
family's change of basis, its inverse, the cell-module actions and Gram
forms stay in ``int`` as well, until a division inside ``linalg`` makes a
``Fraction``.

The trace tau reads the coefficient of the top monomial
x_1^{ell-1}...x_r^{ell-1} . 1. Since a permutation v on the right only
relabels,

    tau(h . x^b . v) = coefficient of (x_1^{ell-1}...x_r^{ell-1}, v^{-1})
                       in h . x^b.

Only terms of h . x^b at the top x-degree r(ell-1) reach that coefficient,
and no rewrite raises the x-degree: an exchange step keeps it or lowers it
by 1, and reducing x_j^ell lowers it strictly. So a term whose x-degree is
already below the floor r(ell-1) can be dropped as soon as it appears: a
left term x^a . w when |a| + |b| is below it, a term x^c . u of w . x^b
when |a| + |c| is, and a term of the reduction of an overflowing x^(a+c)
when its own degree is (a reduction list is sorted by degree, highest
first, so the floor cuts it at one place). Every floor test reads ``_deg``.
``AlgebraContext._times_x`` is the per-b step of every product, with floor
0 in ``Element.__mul__`` and floor r(ell-1) in ``trace_of_product``
(tau(h . k) without forming h . k) and ``trace_functional`` (the functional
k -> tau(h . k) on the whole basis, from one pruned h . x^b per x-monomial
b). The pairing tau(h . star(k)) is that functional summed over the terms
of star(k); ``verify pairing`` sums it over one index of every k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from numbers import Rational
from operator import add

from .combinatorics import (
    Perm,
    all_perms,
    perm_identity,
    perm_inverse,
    perm_is_valid,
    perm_mul,
    perm_reduced_word,
    perm_simple,
)

Exps = tuple[int, ...]
Coef = int | Fraction
# (code of x-part, code of permutation, coef): one term x^c . u
Coded = list[tuple[int, int, Coef]]
# (code(d) * r!, row of z, coef): one term x^d . z of a reduction list
Reduced = list[tuple[int, tuple[int, ...], Coef]]
# (alpha, beta, eps, coef): one term x_i^alpha x_{i+1}^beta s_i^eps
Exchange = tuple[tuple[int, int, int, int], ...]


class _Table(dict):
    """A dict that fills each missing key with ``fill(key)`` on first use."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


def _exchange_entry(pq: tuple[int, int]) -> Exchange:
    """Expansion of s.x_i^p.x_{i+1}^q as (alpha, beta, eps, coef) terms."""
    p, q = pq
    acc: dict[tuple[int, int, int], int] = {}
    if p == 0 and q == 0:
        _acc(acc, (0, 0, 1), 1)
    elif p > 0:
        # s.x = y.s - 1
        for a, b, e, c in _exchange[p - 1, q]:
            _acc(acc, (a, b + 1, e), c)
        _acc(acc, (p - 1, q, 0), -1)
    else:
        # s.y = x.s + 1
        for a, b, e, c in _exchange[0, q - 1]:
            _acc(acc, (a + 1, b, e), c)
        _acc(acc, (0, q - 1, 0), 1)
    return tuple(sorted((a, b, e, c) for (a, b, e), c in acc.items()))


# s.x^p.y^q -> sum coef * x^alpha y^beta s^eps, for adjacent variables x, y,
# by (p, q). Independent of the position of the reflection and of the context.
_exchange: dict[tuple[int, int], Exchange] = _Table(_exchange_entry)


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
        self._perms = all_perms(r)
        self._perm_code = {w: i for i, w in enumerate(self._perms)}
        self._inverse = [self._perm_code[perm_inverse(w)] for w in self._perms]
        self._exps = list(product(range(ell), repeat=r))
        self._exps_code = {a: i for i, a in enumerate(self._exps)}
        self._deg = [sum(a) for a in self._exps]
        # the code of s_i at i - 1
        self._simple = [self._perm_code[perm_simple(r, i)]
                        for i in range(1, r)]
        self._first = _Table(lambda w: perm_reduced_word(self._perms[w])[0])
        self._rows: dict[int, tuple[int, ...]] = _Table(self._row)
        n = len(self._perms)
        self._xn = [d * n for d in range(len(self._exps))]
        self._xred: dict[Exps, Reduced] = _Table(self._xred_entry)
        self._sums: dict[int, int | Reduced] = _Table(self._sums_entry)
        self._push: dict[int, Coded] = _Table(self._push_entry)
        self._xl = self._warm_up()

    # -- monomial keys ----------------------------------------------------

    def key(self, exps: Exps, w: Perm) -> int:
        """The key of the basis monomial x^exps . w."""
        return (self._exps_code[tuple(exps)] * len(self._perms)
                + self._perm_code[tuple(w)])

    def monomial(self, key: int) -> tuple[Exps, Perm]:
        """The (exponents, permutation) of the basis monomial with this key."""
        a, w = divmod(key, len(self._perms))
        return self._exps[a], self._perms[w]

    # -- construction of elements -------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.from_permutation(perm_identity(self.r))

    def from_permutation(self, w: Perm) -> "Element":
        if not perm_is_valid(w) or len(w) != self.r:
            raise ValueError(f"not a permutation of 1..{self.r}: {w}")
        return Element(self, {self._perm_code[tuple(w)]: 1})

    def from_x_monomial(self, exps: tuple[int, ...]) -> "Element":
        """x_1^{a_1}...x_r^{a_r}, reduced if any a_i >= ell."""
        exps = tuple(int(a) for a in exps)
        if len(exps) != self.r or any(a < 0 for a in exps):
            raise ValueError(f"bad exponent vector {exps}")
        if max(exps) < self.ell:
            return Element(self, {self.key(exps, perm_identity(self.r)): 1})
        # the identity has code 0, so row[0] is the code of z
        return Element(self,
                       {dn + row[0]: c for dn, row, c in self._xred[exps]})

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
        return len(self._exps) * len(self._perms)

    def basis(self) -> range:
        """All monomial keys, in basis order."""
        return range(self.dimension())

    # -- rewriting machinery --------------------------------------------------

    def _row(self, z: int) -> tuple[int, ...]:
        """
        ``_rows`` at z: the code of z . v for each v in S_r. The rows of the
        identity and of each simple reflection come from ``perm_mul``; any
        other z is s_i . z' with i the first letter of its reduced word, so
        z . v = s_i . (z' . v) reads s_i's row at z''s row.
        """
        if z == 0 or z in self._simple:
            u, code = self._perms[z], self._perm_code
            return tuple([code[perm_mul(u, v)] for v in self._perms])
        si = self._rows[self._simple[self._first[z] - 1]]
        return tuple([si[x] for x in self._rows[si[z]]])

    def _warm_up(self) -> list[dict[int, Coef]]:
        ell, r, n = self.ell, self.r, len(self._perms)
        # monic expansion of (X - omega_1)...(X - omega_ell)
        poly = [1]
        for w in self.omega:
            poly = [0] + poly
            poly = [poly[k] - w * poly[k + 1] if k + 1 < len(poly) else poly[k]
                    for k in range(len(poly) - 1)] + [poly[-1]]
        # x_1^ell = -sum_{k<ell} poly[k] x_1^k; x_1^k has code k * ell^(r-1)
        xl: list[dict[int, Coef]] = [{
            k * ell ** (r - 1) * n: -poly[k] for k in range(ell) if poly[k]
        }]
        # x_j^ell = s.x_{j-1}^ell.s + sum_m x_{j-1}^{ell-1-m} x_j^m s, with
        # s = s_{j-1}. x_{j-1}^ell involves x_1..x_{j-1} only, so the product
        # s.x_{j-1}^ell never overflows and needs no _xred (nor _xl).
        for j in range(2, r + 1):
            s = perm_simple(r, j - 1)
            tail: dict[int, Coef] = {}
            for m in range(ell):
                e = [0] * r
                e[j - 2], e[j - 1] = ell - 1 - m, m
                tail[self.key(e, s)] = 1
            head = self.from_permutation(s) * Element(self, xl[j - 2])
            xl.append((right_translate(head, s) + Element(self, tail)).terms)
        return xl

    def _xred_entry(self, exps: Exps) -> Reduced:
        """``_xred`` at exps: the normal form of x^exps, some a_j >= ell."""
        n, rows, xn = len(self._perms), self._rows, self._xn
        over = next(j for j, a in enumerate(exps) if a >= self.ell)
        rest = list(exps)
        rest[over] -= self.ell
        out: dict[int, Coef] = {}
        for key, coef in self._xl[over].items():
            c, u = divmod(key, n)
            e = tuple(map(add, rest, self._exps[c]))
            if max(e) < self.ell:
                _acc(out, xn[self._exps_code[e]] + u, coef)
            else:
                for dn, row, c2 in self._xred[e]:
                    _acc(out, dn + row[u], coef * c2)
        # highest x-degree first, so a floor cuts the list at one place
        deg = self._deg
        terms = sorted(out.items(), key=lambda t: -deg[t[0] // n])
        return [(xn[k // n], rows[k % n], coef) for k, coef in terms]

    def _push_entry(self, key: int) -> Coded:
        """
        ``_push`` at code(w) * ell^r + code(b): the normal form of w . x^b
        (x's pushed to the left of the perm), by one exchange step from the
        entry of a one-shorter permutation: with i the first letter of w's
        reduced word, w = s_i . w' and w . x^b is s_i . (w' . x^b). In each
        term x^c . u of w' . x^b, s_i passes the x-part as
        s_i . x_i^p x_{i+1}^q = sum x_i^alpha x_{i+1}^beta s_i^eps and
        s_i^eps then multiplies u on the left. The identity's entry is
        x^b . 1; the recursion is at most l(w) deep.
        """
        m = len(self._exps)
        w, b = divmod(key, m)
        if w == 0:
            return [(b, 0, 1)]
        i = self._first[w]
        si = self._rows[self._simple[i - 1]]
        # x_i and x_{i+1} are the base-ell digits of weight ell^(r-i) and
        # ell^(r-i-1) of an exponent code; the exponents stay below ell.
        # Terms accumulate on the key code(c) * r! + code(u).
        n = len(self._perms)
        low = self.ell ** (self.r - i - 1)
        high = low * self.ell
        exps = self._exps
        acc: dict[int, Coef] = {}
        for c, u, coef in self._push[si[w] * m + b]:
            p, q = exps[c][i - 1], exps[c][i]
            rest = c - p * high - q * low
            for alpha, beta, eps, icoef in _exchange[p, q]:
                k = ((rest + alpha * high + beta * low) * n
                     + (si[u] if eps else u))
                _acc(acc, k, coef * icoef)
        return [(*divmod(k, n), coef) for k, coef in acc.items()]

    def _sums_entry(self, key: int) -> int | Reduced:
        """
        ``_sums`` at code(a) * ell^r + code(c): x^(a+c) . 1 as a key, or
        its reduction list.
        """
        a, c = divmod(key, len(self._exps))
        e = tuple(map(add, self._exps[a], self._exps[c]))
        if max(e) < self.ell:
            return self._xn[self._exps_code[e]]
        return self._xred[e]

    def _times_x(self, terms: dict[int, Coef], b: int,
                 floor: int) -> dict[int, Coef]:
        """
        Normal form of (sum of ``terms``) . x^b, less terms that cannot reach
        x-degree ``floor``: rewriting never raises the x-degree, so a left
        term x^a . w with |a| + |b| < floor, a pushed term x^c . u of
        w . x^b with |a| + |c| < floor, and a term of the reduction of
        x^(a+c) below ``floor`` are dropped. Every term of degree at least
        ``floor`` is exact; floor 0 keeps them all. Terms whose coefficients
        cancel stay in the result with coefficient 0.
        """
        n, m = len(self._perms), len(self._exps)
        deg, push, sums = self._deg, self._push, self._sums
        hb: dict[int, Coef] = {}
        room = deg[b]
        for key, c1 in terms.items():
            a, w = divmod(key, n)
            need = floor - deg[a]
            if need > room:
                continue
            am = a * m
            for c, u, c3 in push[w * m + b]:
                if deg[c] < need:
                    continue
                s = sums[am + c]
                coef = c1 * c3
                if type(s) is int:
                    k = s + u
                    hb[k] = hb.get(k, 0) + coef
                    continue
                # the reduction list runs from the highest degree down
                for dn, row, c2 in s:
                    if floor and deg[dn // n] < floor:
                        break
                    k = dn + row[u]
                    hb[k] = hb.get(k, 0) + coef * c2
        return hb

    def __repr__(self) -> str:
        return f"AlgebraContext(ell={self.ell}, r={self.r}, omega={self.omega})"


def _by_x(k: "Element") -> dict[int, list[tuple[int, Coef]]]:
    """k's terms grouped by x-part: b -> [(v, coef) of each x^b . v]."""
    n = len(k.ctx._perms)
    by_x: dict[int, list[tuple[int, Coef]]] = {}
    for key, coef in k.terms.items():
        b, v = divmod(key, n)
        by_x.setdefault(b, []).append((v, coef))
    return by_x


def _acc(d: dict, key, val) -> None:
    cur = d.get(key, 0) + val
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


_COEF_TYPES = frozenset((int, Fraction))


class Element:
    """
    A finite rational combination of normal-form monomials, keyed by
    ``AlgebraContext.key``. Immutable by convention; all arithmetic returns
    fresh elements.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict[int, Coef]):
        # one pass over the types in C; the slower test only to reject one,
        # or to accept a subclass such as bool
        if not _COEF_TYPES.issuperset(map(type, terms.values())):
            for coef in terms.values():
                if not isinstance(coef, (int, Fraction)):
                    raise TypeError(f"coefficient {coef!r} is not an int or "
                                    f"a Fraction")
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
            n, rows = len(ctx._perms), ctx._rows
            out: dict[int, Coef] = {}
            for b, right in _by_x(other).items():
                for key, c4 in ctx._times_x(self.terms, b, 0).items():
                    if not c4:
                        continue
                    z = key % n
                    row, d = rows[z], key - z
                    for v, c2 in right:
                        k = d + row[v]
                        out[k] = out.get(k, 0) + c4 * c2
            return Element(ctx, {k: c for k, c in out.items() if c})
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
        for key, c in sorted(self.terms.items()):
            a, w = self.ctx.monomial(key)
            xs = ".".join(f"x{i+1}^{e}" for i, e in enumerate(a) if e)
            bits.append(f"{c}*{xs or '1'}*{w}")
        return " + ".join(bits)


def star(h: Element) -> Element:
    """
    The anti-automorphism fixing every s_i and every x_k: reverses products,
    sends x^a . w to w^{-1} . x^a (then renormalizes).
    """
    ctx = h.ctx
    n, m, inverse = len(ctx._perms), len(ctx._exps), ctx._inverse
    out: dict[int, Coef] = {}
    for key, coef in h.terms.items():
        a, w = divmod(key, n)
        for c, u, c2 in ctx._push[inverse[w] * m + a]:
            _acc(out, c * n + u, coef * c2)
    return Element(ctx, out)


def right_translate(h: Element, v: Perm) -> Element:
    """
    The product h . v by a permutation v on the right: x^a . w . v is the
    normal-form monomial x^a . (wv), so the terms are only relabeled.
    """
    ctx = h.ctx
    n, rows, v = len(ctx._perms), ctx._rows, ctx._perm_code[tuple(v)]
    return Element(ctx, {key - key % n + rows[key % n][v]: c
                         for key, c in h.terms.items()})


def trace_functional(h: Element) -> dict[int, Coef]:
    """
    The functional k -> tau(h . k) on the monomial basis, as its nonzero
    values by key: at x^b . v it is the coefficient of (top, v^{-1}) in
    h . x^b, read from the terms of h . x^b that can reach the top x-degree.
    """
    ctx = h.ctx
    n, inverse = len(ctx._perms), ctx._inverse
    top = len(ctx._exps) - 1
    out: dict[int, Coef] = {}
    for b in range(len(ctx._exps)):
        for key, coef in ctx._times_x(h.terms, b, ctx._deg[top]).items():
            d, z = divmod(key, n)
            if d == top and coef:
                out[b * n + inverse[z]] = coef
    return out


def trace_of_product(h: Element, k: Element) -> Fraction:
    """
    tau(h . k) without forming h . k: for each x-part b of k, the terms of
    h . x^b that can reach the top x-degree, read at (top, v^{-1}) for each
    term x^b . v of k.
    """
    h._check(k)
    ctx = h.ctx
    inverse = ctx._inverse
    top = len(ctx._exps) - 1
    at_top = top * len(ctx._perms)
    total: Coef = 0
    for b, right in _by_x(k).items():
        hb = ctx._times_x(h.terms, b, ctx._deg[top])
        for v, coef in right:
            total += coef * hb.get(at_top + inverse[v], 0)
    return Fraction(total)


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

# Largest algebra dimension ell^r * r! that the normal-form checks
# (``verify_basis``, ``defining_relations``, the trace suite) accept.
# (2,6), 46,080, passes in about 4 s; (7,4), 57,624, and (2,7), 645,120, run
# past 90 s, the first at 2 GiB. The cost grows faster with ell than with
# the dimension: (3,5), 29,160, is admitted and takes about 85 s.
MAX_NORMAL_FORM_DIM = 50_000


def check_normal_form_size(ell: int, r: int) -> None:
    """Raise ValueError when H(ell, r) is above ``MAX_NORMAL_FORM_DIM``."""
    n = ell ** r * factorial(r)
    if n > MAX_NORMAL_FORM_DIM:
        raise ValueError(
            f"ell={ell}, r={r}: the algebra has dimension {n}, above the "
            f"limit {MAX_NORMAL_FORM_DIM} for the normal-form checks")


def verify_basis(ctx: AlgebraContext) -> bool:
    """
    Confirm the normal-form basis: ell^r * r! distinct monomials, closure of
    sampled basis products under the normal form, and associativity on
    sampled triples.

    Closure means that every key of a product decodes to exponents below
    ell and a permutation of 1..r. ``monomial(key)`` is
    ``(_exps[key // r!], _perms[key % r!])``, so every key in
    ``range(dimension())`` decodes to one entry of each table, and the
    decode predicate is the same test on every key. It is tested once on
    every entry of ``_exps`` and ``_perms``, and each product key only for
    its type and range.
    """
    import random

    basis = ctx.basis()
    n = len(basis)
    if n != ctx.dimension() or len(set(map(ctx.monomial, basis))) != n:
        return False
    if any(len(a) != ctx.r or any(not 0 <= e < ctx.ell for e in a)
           for a in ctx._exps):
        return False
    if not all(map(perm_is_valid, ctx._perms)):
        return False
    rng = random.Random(_SAMPLE_SEED)

    def elem(i: int) -> Element:
        return Element(ctx, {basis[i]: 1})

    for _ in range(_PAIR_SAMPLE):
        i, j = rng.randrange(n), rng.randrange(n)
        for key in (elem(i) * elem(j)).terms:
            if type(key) is not int or not 0 <= key < n:
                return False
    for _ in range(_TRIPLE_SAMPLE):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if (elem(i) * elem(j)) * elem(k) != elem(i) * (elem(j) * elem(k)):
            return False
    return True
