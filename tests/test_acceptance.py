"""
Acceptance suite: one test per criterion, exact rational arithmetic, no
tolerances anywhere. Run with ``pytest tests/test_acceptance.py -v -s`` to
see one PASS line per criterion (failures surface as ordinary pytest
failures with the counterexample in the assertion message).
"""

import math
import random
import time
from fractions import Fraction

from cellular_hecke.algebra import (
    AlgebraContext,
    Element,
    defining_relations,
    star,
)
from cellular_hecke.cellular import (
    cell_module,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    intertwiner_dim,
    realization,
    simple_module,
)
from cellular_hecke.combinatorics import (
    conjugate,
    enumerate_multipartitions,
    perm_inverse,
    rsk_insert,
    standard_tableaux,
    tableau_conjugate,
    tableau_dominance_ge,
    w_lambda,
)
from cellular_hecke.crystal import nonzero_labels
from cellular_hecke.label_maps import (
    XiContext,
    A_of_lambda,
    eta,
    gamma_word,
    generalized_mullineux,
    is_standard,
    lambda_of_A,
    match_simples,
    mullineux_xi,
    r_map,
    xi_context,
)
from cellular_hecke.linalg import rank
from reference_algebra import pairing, tau_hat
from reference_cellular import cellular_element, family_n_xi, z_element

ALL_C2 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def report(number: int, text: str, started: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({time.time() - started:.1f}s) - {text}")


def gram_nonzero_labels(ctx, fam):
    return {
        lam for lam in enumerate_multipartitions(ctx.ell, ctx.r)
        if rank(cell_module(ctx, fam, lam).gram) > 0
    }


def test_criterion_1_algebra_soundness():
    started = time.time()
    for ell, r, omega in [(1, 4, (0,)), (2, 2, (0, 1)),
                          (2, 3, (0, 1)), (3, 2, (0, 1, 5))]:
        ctx = AlgebraContext(ell, r, omega)
        for name, el in defining_relations(ctx):
            assert el.is_zero(), (ell, r, name)
        basis = ctx.basis()
        assert len(basis) == ell ** r * math.factorial(r)
        rng = random.Random(2024)
        for _ in range(200):
            a, b, c = (
                Element(ctx, {basis[rng.randrange(len(basis))]: Fraction(1)})
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
    report(1, "relations vanish, associativity on 200 random triples per "
              "context, basis counts confirmed", started)


def test_criterion_2_trace_and_pairing():
    started = time.time()
    ctx = AlgebraContext(2, 3, (0, 1))
    labels = enumerate_multipartitions(2, 3)
    for lam in labels:
        winv = ctx.from_permutation(perm_inverse(w_lambda(lam)))
        for c in ALL_C2:
            val = tau_hat(z_element(ctx, c, lam) * winv)
            assert val == 1, (lam, c, val)
    cells = [
        (lam, s, t)
        for lam in labels
        for s in standard_tableaux(lam)
        for t in standard_tableaux(lam)
    ]
    assert len(cells) == 48
    for c in ALL_C2:
        fm, fn = family_m(c), family_n(c)
        elems_m = [cellular_element(ctx, fm, s, t) for (_, s, t) in cells]
        elems_n = [cellular_element(ctx, fn, u, v) for (_, u, v) in cells]
        for i, (_, s, t) in enumerate(cells):
            for j, (_, u, v) in enumerate(cells):
                val = pairing(elems_m[i], elems_n[j])
                up, vp = tableau_conjugate(u), tableau_conjugate(v)
                if (up, vp) == (s, t):
                    assert val == 1, (c, i, j, val)
                elif not (tableau_dominance_ge(up, s)
                          and tableau_dominance_ge(vp, t)):
                    assert val == 0, (c, i, j, val)
    report(2, "tau(z w^-1) = 1 for all 10 labels x 4 twists; 48x48 pairing "
              "matrix unitriangular for every twist", started)


def test_criterion_3_cellularity():
    started = time.time()
    for r in (2, 3):
        ctx = AlgebraContext(2, r, (0, 1))
        fams = [family_m((0, 1)), family_n((0, 1)),
                family_m_xi((2, 1)), family_n_xi((2, 1))]
        gens = [ctx.generator_s(i) for i in range(1, r)] + \
               [ctx.generator_x(k) for k in range(1, r + 1)]
        for fam in fams:
            real = realization(ctx, fam)  # raises if not invertible
            assert len(real.cells) == ctx.dimension()
            for li, lam in enumerate(real.labels):
                tabs = real.tableaux[li]
                for si in range(len(tabs)):
                    for ti in range(len(tabs)):
                        assert star(real.element(li, si, ti)) \
                            == real.element(li, ti, si), (fam.label(), lam)
                for gen in gens:
                    ref = None
                    for si in range(len(tabs)):
                        mat = [
                            [real.expand(real.element(li, si, ti) * gen,
                                         real.cells)
                             [real.cell_index[(li, si, ui)]]
                             for ui in range(len(tabs))]
                            for ti in range(len(tabs))
                        ]
                        if ref is None:
                            ref = mat
                        else:
                            assert mat == ref, (fam.label(), lam, si)
    report(3, "all four families at (2,2) and (2,3): change of basis "
              "invertible, star-symmetric, left-index independent", started)


def test_criterion_4_semisimple_sanity():
    started = time.time()
    ctx = AlgebraContext(2, 3, (0, 5))
    fam = family_m((0, 0))
    total = 0
    for lam in enumerate_multipartitions(2, 3):
        mod = cell_module(ctx, fam, lam)
        assert rank(mod.gram) == mod.dim, lam
        total += mod.dim ** 2
    assert total == 48 == ctx.dimension()
    report(4, "omega=(0,5): every Gram nonsingular, sum of squares = 48",
           started)


def test_criterion_5_main1_classification():
    started = time.time()
    for omega in [(0, 1), (0, 0)]:
        for r in (1, 2, 3):
            ctx = AlgebraContext(2, r, omega)
            via_crystal = nonzero_labels(omega, r)
            via_gram = gram_nonzero_labels(ctx, family_m((0, 0)))
            assert via_crystal == via_gram, (omega, r)
    report(5, "crystal component labels equal Gram-rank labels at "
              "omega=(0,1),(0,0), r=1..3 (reading order pinned)", started)


def test_criterion_6_main1_isomorphism():
    started = time.time()
    checked = 0
    for r in (1, 2, 3):
        ctx = AlgebraContext(2, r, (0, 1))
        fam0 = family_m((0, 0))
        for c in [(0, 1), (1, 1)]:
            fam_c = family_m(c)
            for lam in enumerate_multipartitions(2, r):
                mod0 = cell_module(ctx, fam0, lam)
                d0 = rank(mod0.gram)
                if d0 == 0:
                    continue
                mu = eta(lam, c)
                mod_c = cell_module(ctx, fam_c, mu)
                dc = rank(mod_c.gram)
                assert dc == d0, (r, c, lam, mu, d0, dc)
                assert intertwiner_dim(
                    simple_module(mod0), simple_module(mod_c)) == 1, \
                    (r, c, lam, mu)
                checked += 1
    report(6, f"untwisted simple = eta-image simple (dims equal, "
              f"intertwiner dimension 1) on {checked} label/twist pairs",
           started)


def test_criterion_7_main2():
    started = time.time()
    # combinatorial half: the worked example, byte for byte
    xctx = XiContext((3, 2, 2), (2, 1, 3), 1)
    cols_a = ((3, 1), (4, 3, 1), (3, 1))
    assert gamma_word(cols_a) == (3, 1, 4, 3, 1, 3, 1)
    assert rsk_insert(gamma_word(cols_a)) == ((1, 1, 1), (3, 3, 3), (4,))
    assert lambda_of_A(cols_a, xctx) == ((1,), (1, 1), (1,))
    assert is_standard(cols_a, xctx)
    assert lambda_of_A(r_map(cols_a, xctx), xctx.with_xi((1, 2, 3))) \
        == ((1, 1), (1,), (1,))
    cols_b = ((3, 1), (4, 3, 2), (2, 1))
    assert not is_standard(cols_b, xctx)
    # module half
    certified = 0
    for r in (1, 2, 3):
        ctx = AlgebraContext(2, r, (1, 0))
        fam_xi, fam_1 = family_m_xi((2, 1)), family_m_xi((1, 2))
        xc = xi_context((1, 0), (2, 1), size=r)
        for lam in enumerate_multipartitions(2, r):
            cols = A_of_lambda(lam, xc)
            mod_xi = cell_module(ctx, fam_xi, lam)
            if not is_standard(cols, xc):
                assert rank(mod_xi.gram) == 0, (r, lam)
                continue
            mu = lambda_of_A(r_map(cols, xc), xc.with_xi((1, 2)))
            mod_1 = cell_module(ctx, fam_1, mu)
            assert rank(mod_xi.gram) > 0 and rank(mod_1.gram) > 0, (r, lam)
            assert intertwiner_dim(
                simple_module(mod_xi), simple_module(mod_1)) == 1, \
                (r, lam, mu)
            certified += 1
    report(7, f"worked example reproduced exactly; relabeling isomorphism "
              f"certified on {certified} standard tableaux (r <= 3)", started)


def test_criterion_8_duality():
    started = time.time()
    ctx = AlgebraContext(2, 2, (0, 1))
    for c in ALL_C2:
        for lam in enumerate_multipartitions(2, 2):
            dual = contragredient(cell_module(ctx, family_m(c), lam))
            tilde = cell_module(ctx, family_n(c), conjugate(lam))
            assert intertwiner_dim(dual, tilde) >= 1, (c, lam)
    report(8, "dual cell modules intertwine with the opposite family at the "
              "dual label, all labels and twists at (2,2)", started)


def test_criterion_9_oracle_agreement():
    started = time.time()
    # criteria-6 configurations: match tables equal the eta map
    for r in (1, 2, 3):
        ctx = AlgebraContext(2, r, (0, 1))
        for c in [(0, 1), (1, 1)]:
            table = dict(match_simples(ctx, family_m((0, 0)), family_m(c)))
            for lam, mu in table.items():
                assert mu == eta(lam, c), (r, c, lam, mu)
    # criteria-7 configurations: match tables equal the relabeling map
    for r in (1, 2, 3):
        ctx = AlgebraContext(2, r, (1, 0))
        xc = xi_context((1, 0), (2, 1), size=r)
        table = dict(match_simples(ctx, family_m_xi((2, 1)),
                                   family_m_xi((1, 2))))
        for lam, mu in table.items():
            assert mu == mullineux_xi(lam, xc), (r, lam, mu)
    # generalized composite against the trivial-vs-sign match table
    for r in (1, 2):
        ctx = AlgebraContext(2, r, (1, 0))
        table = dict(match_simples(ctx, family_m((0, 0)), family_n((0, 0))))
        closed = {
            lam: generalized_mullineux(lam, (1, 0))
            for lam in enumerate_multipartitions(2, r)
            if generalized_mullineux(lam, (1, 0)) is not None
        }
        assert table == closed, (r, table, closed)
    report(9, "match_simples coincides with eta, the relabeling map, and "
              "the generalized composite on all configured cases", started)
