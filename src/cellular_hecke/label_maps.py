"""
Closed-form correspondences between the simple-module labels of the
different cellular families, plus the brute-force matcher that certifies
them with exact intertwiners.

- ``eta``: transpose the components singled out by the twist sequence
  (matches untwisted labels with twisted ones).
- column-strict tableaux and the row-insertion relabeling map ``r_map``
  (matches labels across permuted parameter orders).
- ``generalized_mullineux``: the composite of the two, relating the
  trivial-type and sign-type parameterizations.
- ``match_simples``: intertwiner-certified bijection between the nonzero
  simple labels of any two families; the ground truth the closed forms are
  tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraContext
from .cellular import BasisFamily, intertwiner_dim, simple_of
from .combinatorics import (
    Multipartition,
    Perm,
    conjugate_partition,
    enumerate_multipartitions,
    mp_size,
    perm_is_valid,
    rsk_insert,
    trim,
)

Columns = tuple[tuple[int, ...], ...]


def eta(lam: Multipartition, c: tuple[int, ...]) -> Multipartition:
    """Transpose component i exactly when c_i = 1; no reordering."""
    if len(c) != len(lam):
        raise ValueError("twist sequence length mismatch")
    return tuple(
        conjugate_partition(p) if ci else p for p, ci in zip(lam, c)
    )


@dataclass(frozen=True)
class XiContext:
    """
    Weakly decreasing parameters with a column permutation. Column j of a
    tableau has height ``heights[j] = n_{(j)xi}`` where n_i = omega_i - lo + 1
    for the chosen base point.
    """
    omega: tuple[int, ...]
    xi: Perm
    lo: int

    def __post_init__(self):
        if any(self.omega[i] < self.omega[i + 1]
               for i in range(len(self.omega) - 1)):
            raise ValueError("omega must be weakly decreasing")
        if not perm_is_valid(self.xi) or len(self.xi) != len(self.omega):
            raise ValueError("xi must be a permutation of the components")
        if self.lo > min(self.omega):
            raise ValueError("base point above the smallest parameter")

    @property
    def ell(self) -> int:
        return len(self.omega)

    @property
    def base_counts(self) -> tuple[int, ...]:
        return tuple(w - self.lo + 1 for w in self.omega)

    @property
    def heights(self) -> tuple[int, ...]:
        n = self.base_counts
        return tuple(n[self.xi[j] - 1] for j in range(self.ell))

    def with_xi(self, xi: Perm) -> "XiContext":
        return XiContext(self.omega, tuple(xi), self.lo)


def xi_context(omega: tuple[int, ...], xi: Perm, size: int) -> XiContext:
    """
    Context with enough room for labels of total size ``size``: the base
    point is lo = min(omega) - size.
    """
    return XiContext(tuple(omega), tuple(xi), min(omega) - size)


def check_column_strict(cols: Columns) -> None:
    for j, col in enumerate(cols):
        if any(col[i] <= col[i + 1] for i in range(len(col) - 1)):
            raise ValueError(f"column {j} is not strictly decreasing: {col}")


def base_tableau(ctx: XiContext) -> Columns:
    """Column j filled h, h-1, ..., 1 top down (h the column height)."""
    return tuple(
        tuple(range(h, 0, -1)) for h in ctx.heights
    )


def lambda_of_A(cols: Columns, ctx: XiContext) -> Multipartition:
    """Entrywise difference against the base tableau, one partition per column."""
    check_column_strict(cols)
    base = base_tableau(ctx)
    if tuple(len(c) for c in cols) != tuple(len(b) for b in base):
        raise ValueError("column heights do not match the context")
    out = []
    for col, ref in zip(cols, base):
        part = tuple(a - b for a, b in zip(col, ref))
        if any(p < 0 for p in part):
            raise ValueError(f"column {col} drops below the base tableau")
        out.append(trim(part))
    return tuple(out)


def A_of_lambda(lam: Multipartition, ctx: XiContext) -> Columns:
    """Inverse of ``lambda_of_A``: add the parts onto the base tableau."""
    base = base_tableau(ctx)
    if len(lam) != ctx.ell:
        raise ValueError("label has the wrong number of components")
    cols = []
    for p, ref in zip(lam, base):
        if len(p) > len(ref):
            raise ValueError(
                f"component {p} has more parts than the column height {len(ref)}"
            )
        padded = tuple(p) + (0,) * (len(ref) - len(p))
        cols.append(tuple(a + b for a, b in zip(padded, ref)))
    out = tuple(cols)
    check_column_strict(out)
    return out


def gamma_word(cols: Columns) -> tuple[int, ...]:
    """Entries read top to bottom along the columns, left to right."""
    return tuple(e for col in cols for e in col)


def is_standard(cols: Columns, ctx: XiContext) -> bool:
    """The insertion tableau of the reading word has the dual-heights shape."""
    check_column_strict(cols)
    shape = tuple(len(row) for row in rsk_insert(gamma_word(cols)))
    return shape == conjugate_partition(ctx.base_counts)


def r_map(cols: Columns, ctx: XiContext) -> Columns:
    """
    Relabeling map: column i of the output, read top down, is column i of
    the insertion tableau of the reading word, read bottom up. Defined on
    standard tableaux only; lands among the identity-ordered ones.
    """
    if not is_standard(cols, ctx):
        raise ValueError("r_map is only defined on standard tableaux")
    p = rsk_insert(gamma_word(cols))
    width = len(p[0]) if p else 0
    out = tuple(
        tuple(row[i] for row in reversed(p) if len(row) > i)
        for i in range(width)
    )
    return out


def mullineux_xi(lam: Multipartition, ctx: XiContext) -> Multipartition | None:
    """
    Label correspondence from the xi-ordered family to the identity-ordered
    one; None when the label carries no simple module there.
    """
    cols = A_of_lambda(lam, ctx)
    if not is_standard(cols, ctx):
        return None
    return lambda_of_A(r_map(cols, ctx), ctx.with_xi(tuple(range(1, ctx.ell + 1))))


def generalized_mullineux(lam: Multipartition,
                          omega: tuple[int, ...]) -> Multipartition | None:
    """
    Composite correspondence between the trivial-type and sign-type simple
    labels: transpose every component, then apply the relabeling map for
    the order-reversing parameter permutation. Certified against
    match_simples, not assumed.
    """
    ell = len(lam)
    if len(omega) != ell:
        raise ValueError("omega length mismatch")
    step1 = eta(lam, (1,) * ell)
    longest = tuple(range(ell, 0, -1))
    ctx = xi_context(tuple(omega), longest, size=max(mp_size(lam), 1))
    return mullineux_xi(step1, ctx)


def match_simples(ctx: AlgebraContext, family_a: BasisFamily,
                  family_b: BasisFamily) -> list[tuple[Multipartition, Multipartition]]:
    """
    For every label with a nonzero simple in family_a, the unique label with
    an isomorphic simple in family_b, certified by an exact intertwiner.
    Simples of one algebra biject, so anything but a bijection raises.
    """
    labels = enumerate_multipartitions(ctx.ell, ctx.r)
    simples = []
    for family in (family_a, family_b):
        pairs = ((lam, simple_of(ctx, family, lam)) for lam in labels)
        simples.append({lam: mod for lam, mod in pairs if mod is not None})
    simples_a, simples_b = simples
    if len(simples_a) != len(simples_b):
        raise RuntimeError(
            f"families have {len(simples_a)} vs {len(simples_b)} simples"
        )
    table = []
    for lam, mod_a in simples_a.items():
        hits = [
            mu for mu, mod_b in simples_b.items()
            if intertwiner_dim(mod_a, mod_b) >= 1
        ]
        if len(hits) != 1:
            raise RuntimeError(
                f"label {lam}: expected exactly one match, found {hits}"
            )
        table.append((lam, hits[0]))
    return table

