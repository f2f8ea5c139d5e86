import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cellular_hecke.algebra import (
    _EXCHANGE,
    AlgebraContext,
    Element,
    defining_relations,
    pairing,
    right_translate,
    star,
    tau_hat,
    trace_functional,
    trace_of_product,
    verify_basis,
)
from cellular_hecke.cellular import (
    cell_seed,
    family_m,
    family_m_xi,
    family_n,
    family_n_xi,
    realization,
)
from cellular_hecke.combinatorics import (
    all_perms,
    enumerate_multipartitions,
    perm_identity,
    perm_inverse,
    perm_mul,
)

CONTEXTS = [(1, 4, (0,)), (2, 2, (0, 1)), (2, 3, (0, 1)), (3, 2, (0, 1, 5)),
            (2, 4, (0, 1)), (4, 2, (0, 1, 2, 5)), (3, 3, (0, 1, 5))]


@pytest.fixture(scope="module")
def ctx22():
    return AlgebraContext(2, 2, (0, 1))


@pytest.mark.parametrize("ell,r,omega", CONTEXTS)
def test_defining_relations_normalize_to_zero(ell, r, omega):
    ctx = AlgebraContext(ell, r, omega)
    for name, el in defining_relations(ctx):
        assert el.is_zero(), name


@pytest.mark.parametrize("ell,r,omega", CONTEXTS)
def test_basis_count_and_closure(ell, r, omega):
    ctx = AlgebraContext(ell, r, omega)
    assert ctx.dimension() == ell ** r * __import__("math").factorial(r)
    assert verify_basis(ctx)


def test_mixed_relation_examples(ctx22):
    one = ctx22.one()
    s1, x1, x2 = ctx22.generator_s(1), ctx22.generator_x(1), ctx22.generator_x(2)
    assert s1 * s1 == one
    assert s1 * x1 == x2 * s1 - one
    # omega = (0, 1): (x1)(x1 - 1) = 0, so x1^2 = x1
    assert x1 * x1 == x1


def test_star_fixes_generators(ctx22):
    assert star(ctx22.generator_s(1)) == ctx22.generator_s(1)
    assert star(ctx22.generator_x(1)) == ctx22.generator_x(1)
    assert star(ctx22.generator_x(2)) == ctx22.generator_x(2)


def test_star_reverses_words():
    ctx = AlgebraContext(2, 3, (0, 1))
    s1, s2 = ctx.generator_s(1), ctx.generator_s(2)
    assert star(s1 * s2) == s2 * s1


@pytest.mark.parametrize("ell,r,omega", [(2, 2, (0, 1)), (2, 3, (0, 1)), (3, 2, (0, 1, 5))])
def test_star_involutive_antiautomorphism(ell, r, omega):
    ctx = AlgebraContext(ell, r, omega)
    basis = ctx.basis()
    rng = random.Random(7)
    for _ in range(60):
        a = Element(ctx, {basis[rng.randrange(len(basis))]: Fraction(1)})
        b = Element(ctx, {basis[rng.randrange(len(basis))]: Fraction(1)})
        assert star(star(a)) == a
        assert star(a * b) == star(b) * star(a)


def test_trace_form_properties():
    ctx = AlgebraContext(2, 3, (0, 1))
    basis = ctx.basis()
    rng = random.Random(11)
    for _ in range(80):
        a = Element(ctx, {basis[rng.randrange(len(basis))]: Fraction(1)})
        b = Element(ctx, {basis[rng.randrange(len(basis))]: Fraction(1)})
        assert tau_hat(a * b) == tau_hat(b * a)
        assert tau_hat(star(a)) == tau_hat(a)


def test_tau_examples(ctx22):
    top = ctx22.from_x_monomial((1, 1))
    assert tau_hat(top) == 1
    assert tau_hat(ctx22.from_permutation((2, 1))) == 0
    assert pairing(ctx22.one(), top) == 1
    assert pairing(top, ctx22.one()) == 1


def test_linear_ops(ctx22):
    h = ctx22.generator_x(1) + ctx22.generator_s(1) * Fraction(2, 3)
    assert (h + h * -1).is_zero()
    assert ctx22.from_permutation(perm_identity(2)) == ctx22.one()
    assert (h - h).is_zero()
    assert (-h) + h == ctx22.zero()


def test_overflowing_monomial_reduces(ctx22):
    # x1^2 = x1 at omega = (0, 1); never stored with exponent 2
    h = ctx22.from_x_monomial((2, 0))
    assert h == ctx22.generator_x(1)
    for (a, _w) in h.terms:
        assert all(e < ctx22.ell for e in a)


@pytest.mark.parametrize("ell,r,omega", [(3, 3, (0, 1, 5)), (2, 4, (0, 1))])
def test_multi_overflow_monomial_matches_stepwise_product(ell, r, omega):
    # from_x_monomial reduces several overflowing powers at once, recursively;
    # multiplying by one x_k at a time never overflows by more than one power.
    # Separate contexts keep the two paths from sharing reduction caches.
    direct = AlgebraContext(ell, r, omega)
    stepwise = AlgebraContext(ell, r, omega)
    xs = [stepwise.generator_x(k) for k in range(1, r + 1)]
    vectors = [e for e in product(range(2 * ell + 1), repeat=r)
               if sum(a >= ell for a in e) >= 2 and sum(e) <= 3 * ell + 1]
    assert len(vectors) == {3: 91, 2: 158}[ell]
    for exps in vectors:
        expected = stepwise.one()
        for x, a in zip(xs, exps):
            for _ in range(a):
                expected = expected * x
        assert direct.from_x_monomial(exps).terms == expected.terms, exps


def test_context_mismatch_rejected():
    a = AlgebraContext(2, 2, (0, 1))
    b = AlgebraContext(2, 2, (0, 1))
    with pytest.raises(ValueError):
        a.one() * b.one()


def test_structure_constants_symmetric_in_omega():
    a = AlgebraContext(2, 2, (0, 1))
    b = AlgebraContext(2, 2, (1, 0))
    for key_a in a.basis():
        for key_b in a.basis():
            pa = Element(a, {key_a: 1}) * Element(a, {key_b: 1})
            pb = Element(b, {key_a: 1}) * Element(b, {key_b: 1})
            assert pa.terms == pb.terms


# sha256 over the sorted terms of every basis-pair product; a change to the
# product kernel that moves any structure constant changes it
STRUCTURE_CONSTANTS_SHA256 = (
    "7d4a9ee6b54b61acc2053822376dfe283572ccf8e790fa65e0608aa446657993")


def test_structure_constants_golden():
    digest = hashlib.sha256()
    for ell, r, omega in [(2, 3, (0, 1)), (3, 2, (0, 2, -1))]:
        ctx = AlgebraContext(ell, r, omega)
        units = [Element(ctx, {key: 1}) for key in ctx.basis()]
        for a in units:
            for b in units:
                terms = sorted((a * b).terms.items())
                digest.update(repr(terms).encode() + b"\n")
    assert digest.hexdigest() == STRUCTURE_CONSTANTS_SHA256


def test_star_agrees_with_inverse_on_group_part():
    ctx = AlgebraContext(1, 3, (0,))
    for w in [(2, 1, 3), (2, 3, 1), (3, 2, 1)]:
        assert star(ctx.from_permutation(w)) == ctx.from_permutation(perm_inverse(w))


def test_non_integral_omega_rejected():
    with pytest.raises(ValueError, match="integral"):
        AlgebraContext(2, 2, (0.5, 1))
    with pytest.raises(ValueError, match="integral"):
        AlgebraContext(2, 2, (Fraction(1, 2), 1))
    assert AlgebraContext(2, 2, (Fraction(2), 1.0)).omega == (2, 1)


def test_non_rational_scalar_rejected(ctx22):
    s1 = ctx22.generator_s(1)
    with pytest.raises(TypeError):
        s1 * 0.1
    with pytest.raises(TypeError):
        0.5 * s1
    with pytest.raises(TypeError):
        s1 * complex(1, 0)
    assert s1 * Fraction(4, 2) == s1 + s1
    assert type((s1 * Fraction(4, 2)).terms[((0, 0), (2, 1))]) is int


def test_float_coefficient_rejected(ctx22):
    key = ((0, 0), (2, 1))
    with pytest.raises(TypeError, match="0.5"):
        Element(ctx22, {key: 0.5}) * ctx22.generator_x(1)
    with pytest.raises(TypeError):
        Element(ctx22, {key: 1, ((1, 0), (1, 2)): 2.0})
    assert Element(ctx22, {key: 1}) == ctx22.generator_s(1)
    assert Element(ctx22, {key: Fraction(1, 2)}) * 2 == ctx22.generator_s(1)


def _all_int(terms) -> bool:
    return all(type(c) is int for c in terms.values())


@pytest.mark.parametrize("ell,r,omega,c,xi", [
    (3, 3, (0, 1, 2), (0, 1, 1), (2, 3, 1)),
    (2, 4, (1, 0), (1, 0), (2, 1)),
])
def test_coefficients_stay_int_until_the_linalg_boundary(ell, r, omega, c, xi):
    ctx = AlgebraContext(ell, r, omega)
    basis = ctx.basis()
    rng = random.Random(5)
    prods = []
    for _ in range(40):
        a = Element(ctx, {basis[rng.randrange(len(basis))]: 1})
        b = Element(ctx, {basis[rng.randrange(len(basis))]: -2})
        prods.append(a * b * ctx.generator_x(r))
    assert ctx._xred and ctx._push
    assert all(type(v) is int for terms in _EXCHANGE.values()
               for term in terms for v in term)
    assert all(_all_int(t) for t in ctx._xl)
    assert all(_all_int(t) for t in ctx._push.values())
    assert all(_all_int(t) for t in ctx._xred.values())
    assert all(_all_int(h.terms) for h in prods)
    for fam in (family_m(c), family_n(c), family_m_xi(xi), family_n_xi(xi)):
        for lam in enumerate_multipartitions(ell, r):
            assert _all_int(cell_seed(ctx, fam, lam).terms), (fam, lam)
    for h in prods[:5]:
        assert all(type(v) is Fraction for v in ctx.to_vector(h))
        assert type(tau_hat(h)) is Fraction
    assert type(tau_hat(ctx.zero())) is Fraction


def _as_fractions(h: Element) -> Element:
    return Element(h.ctx, {k: Fraction(v) for k, v in h.terms.items()})


_RING_CONTEXTS = {(2, 2): AlgebraContext(2, 2, (1, 0)),
                  (2, 3): AlgebraContext(2, 3, (0, 1)),
                  (3, 2): AlgebraContext(3, 2, (0, 2, -1))}


def _mixed_element(draw, ctx: AlgebraContext) -> Element:
    """Up to five basis terms, integral coefficients int, the rest Fraction."""
    basis = ctx.basis()
    terms = {}
    for i in draw(st.lists(st.integers(0, len(basis) - 1), max_size=5,
                           unique=True)):
        q = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if q:
            terms[basis[i]] = q.numerator if q.denominator == 1 else q
    return Element(ctx, terms)


@st.composite
def _rational_element_triples(draw):
    ctx = _RING_CONTEXTS[draw(st.sampled_from(sorted(_RING_CONTEXTS)))]
    return tuple(_mixed_element(draw, ctx) for _ in range(3))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_rational_element_triples())
def test_mixed_int_fraction_ring_matches_fractions(triple):
    # integral coefficients are stored as int, the rest as Fraction; the
    # same elements with every coefficient a Fraction must multiply and
    # associate identically
    a, b, c = triple
    fa, fb, fc = (_as_fractions(h) for h in triple)
    assert a * b == fa * fb
    assert (a * b) * c == a * (b * c) == (fa * fb) * fc
    assert a * Fraction(2, 3) == fa * Fraction(2, 3)
    assert a.ctx.to_vector(a * b) == a.ctx.to_vector(fa * fb)


def test_perm_mul_matches_reference_definition():
    def reference(u, v):
        return tuple(v[u[i] - 1] for i in range(len(u)))

    perms = all_perms(4)
    assert len(perms) == 24
    for u in perms:
        for v in perms:
            assert perm_mul(u, v) == reference(u, v)


@st.composite
def _element_and_permutation(draw):
    ctx = _RING_CONTEXTS[draw(st.sampled_from(sorted(_RING_CONTEXTS)))]
    return _mixed_element(draw, ctx), draw(st.sampled_from(all_perms(ctx.r)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_element_and_permutation())
def test_right_translate_is_the_product_by_a_permutation(pair):
    h, v = pair
    assert right_translate(h, v) == h * h.ctx.from_permutation(v)


def pairwise_product(h: Element, k: Element) -> Element:
    """
    Reference product, one push-through per (left term, right term) pair;
    ``Element.__mul__`` pushes each distinct right x-part once instead.
    """
    # (x^a w)(x^b v) = x^a (w x^b) v: push x^b through w, then put
    # every term of x^a x^c u v straight into the one output dict
    ctx = h.ctx
    out = {}
    for (a, w), c1 in h.terms.items():
        for (b, v), c2 in k.terms.items():
            c12 = c1 * c2
            for (c, u), c3 in ctx._push_through(w, b).items():
                ctx._put(out, tuple(p + q for p, q in zip(a, c)),
                         perm_mul(u, v), c12 * c3, 0)
    return Element(ctx, out)


def _shared_x_element(draw, ctx: AlgebraContext) -> Element:
    """A sum of x^b . v over at most three x-parts b, mixed int/Fraction."""
    xs = draw(st.lists(st.sampled_from(sorted(product(range(ctx.ell),
                                                      repeat=ctx.r))),
                       min_size=1, max_size=3, unique=True))
    terms = {}
    for b in xs:
        for v in draw(st.lists(st.sampled_from(all_perms(ctx.r)), max_size=4,
                               unique=True)):
            q = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            if q:
                terms[(b, v)] = q.numerator if q.denominator == 1 else q
    return Element(ctx, terms)


@st.composite
def _shared_x_pairs(draw):
    ctx = _RING_CONTEXTS[draw(st.sampled_from(sorted(_RING_CONTEXTS)))]
    left = draw(st.sampled_from([_shared_x_element, _mixed_element]))
    return left(draw, ctx), _shared_x_element(draw, ctx)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_shared_x_pairs())
def test_grouped_product_matches_pairwise_reference(pair):
    h, k = pair
    assert (h * k).terms == pairwise_product(h, k).terms
    assert (k * h).terms == pairwise_product(k, h).terms


def test_cell_seed_products_match_pairwise_reference():
    for ell, r, omega, c, xi in [(2, 3, (0, 1), (0, 1), (2, 1)),
                                 (3, 2, (0, 2, -1), (1, 0, 1), (3, 1, 2))]:
        ctx = AlgebraContext(ell, r, omega)
        seeds = [cell_seed(ctx, fam, lam)
                 for fam in (family_m(c), family_n(c), family_m_xi(xi),
                             family_n_xi(xi))
                 for lam in enumerate_multipartitions(ell, r)]
        # the seeds are built with products too: check that their terms
        # still share x-parts, so the grouping is exercised
        assert sum(len({b for b, _ in s.terms}) for s in seeds) \
            < sum(len(s.terms) for s in seeds)
        for a in seeds:
            for b in seeds:
                prod = a * b
                assert prod.terms == pairwise_product(a, b).terms
                assert _all_int(prod.terms)


# the ring contexts, plus one with ell >= 3 and r >= 3, where x_j^ell
# reduction meets the top x-degree r(ell - 1) of the trace
_TRACE_CONTEXTS = {**_RING_CONTEXTS, (3, 3): AlgebraContext(3, 3, (0, 1, 2))}


@st.composite
def _trace_elements(draw):
    ctx = _TRACE_CONTEXTS[draw(st.sampled_from(sorted(_TRACE_CONTEXTS)))]
    make = draw(st.sampled_from([_shared_x_element, _mixed_element]))
    return make(draw, ctx)


@st.composite
def _trace_pairs(draw):
    ctx = _TRACE_CONTEXTS[draw(st.sampled_from(sorted(_TRACE_CONTEXTS)))]
    left = draw(st.sampled_from([_shared_x_element, _mixed_element]))
    right = draw(st.sampled_from([_shared_x_element, _mixed_element]))
    return left(draw, ctx), right(draw, ctx)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_trace_pairs())
def test_trace_of_product_is_tau_of_the_product(pair):
    h, k = pair
    got = trace_of_product(h, k)
    assert type(got) is Fraction
    assert got == tau_hat(h * k)
    assert trace_of_product(k, h) == tau_hat(k * h)


def test_trace_of_product_on_random_basis_pairs_e3r3():
    # single monomials at (3,3), so each value comes from one left term and
    # one push; about one pair in six has a nonzero trace
    ctx = _TRACE_CONTEXTS[(3, 3)]
    rng = random.Random(0)
    basis = ctx.basis()
    nonzero = 0
    for _ in range(400):
        h = Element(ctx, {basis[rng.randrange(len(basis))]: 1})
        k = Element(ctx, {basis[rng.randrange(len(basis))]: 1})
        want = tau_hat(h * k)
        assert trace_of_product(h, k) == want
        nonzero += want != 0
    assert nonzero > 40


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_trace_elements())
def test_trace_functional_is_tau_of_the_product(h):
    # every basis monomial, the zero values included
    ctx = h.ctx
    phi = trace_functional(h)
    assert 0 not in phi.values()
    assert set(phi) <= set(ctx.basis())
    for key in ctx.basis():
        assert phi.get(key, 0) == tau_hat(h * Element(ctx, {key: 1})), key


def _functional_pairing(phi, h2: Element) -> Fraction:
    """pairing(h1, h2) read from phi = trace_functional(h1)."""
    return Fraction(sum(c * phi.get(key, 0)
                        for key, c in star(h2).terms.items()))


@pytest.mark.parametrize("ell,r,omega,c", [
    (2, 2, (1, 0), (0, 1)),
    (2, 3, (1, 0), (0, 1)),
    (2, 3, (1, 0), (1, 1)),
    (3, 2, (0, 1, 2), (0, 1, 1)),
])
def test_functional_pairing_matches_pairing_on_every_pair(ell, r, omega, c):
    ctx = AlgebraContext(ell, r, omega)
    elems_m = realization(ctx, family_m(c)).elements
    elems_n = realization(ctx, family_n(c)).elements
    for h1 in elems_m:
        phi = trace_functional(h1)
        for h2 in elems_n:
            assert _functional_pairing(phi, h2) == pairing(h1, h2)


def test_functional_pairing_matches_pairing_on_random_pairs_e2r4():
    ctx = AlgebraContext(2, 4, (1, 0))
    elems_m = realization(ctx, family_m((0, 1))).elements
    elems_n = realization(ctx, family_n((0, 1))).elements
    rng = random.Random(0)
    for _ in range(300):
        h1 = elems_m[rng.randrange(len(elems_m))]
        h2 = elems_n[rng.randrange(len(elems_n))]
        assert _functional_pairing(trace_functional(h1), h2) \
            == pairing(h1, h2)
