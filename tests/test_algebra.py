import random
from fractions import Fraction
from itertools import product

import pytest

from cellular_hecke.algebra import (
    AlgebraContext,
    Element,
    defining_relations,
    pairing,
    star,
    tau_hat,
    verify_basis,
)
from cellular_hecke.combinatorics import perm_identity, perm_inverse
from cellular_hecke.serialization import element_from_obj, element_to_obj

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
    assert verify_basis(ctx, pair_sample=100, triple_sample=50)


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
            pa = a._mono_mul(key_a[0], key_a[1], key_b[0], key_b[1])
            pb = b._mono_mul(key_a[0], key_a[1], key_b[0], key_b[1])
            assert pa == pb


def test_element_json_round_trip(ctx22):
    h = ctx22.generator_s(1) * ctx22.generator_x(2) - ctx22.one() * Fraction(3, 7)
    again = element_from_obj(ctx22, element_to_obj(h))
    assert again == h


def test_star_agrees_with_inverse_on_group_part():
    ctx = AlgebraContext(1, 3, (0,))
    for w in [(2, 1, 3), (2, 3, 1), (3, 2, 1)]:
        assert star(ctx.from_permutation(w)) == ctx.from_permutation(perm_inverse(w))
