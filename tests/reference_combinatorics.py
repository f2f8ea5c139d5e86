"""
Tableau and multipartition helpers that only the tests use: strict
dominance, the standardness check, the right action of a permutation on a
tableau's entries and the residue sequence. Same conventions as
``cellular_hecke.combinatorics``.
"""

from cellular_hecke.combinatorics import (
    Multipartition,
    Perm,
    Tableau,
    dominance_ge,
)


def dominance_gt(lam: Multipartition, mu: Multipartition) -> bool:
    return lam != mu and dominance_ge(lam, mu)


def is_standard_tableau(t: Tableau) -> bool:
    entries = sorted(e for comp in t for row in comp for e in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    for comp in t:
        for i, row in enumerate(comp):
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                return False
            if i + 1 < len(comp):
                below = comp[i + 1]
                if any(row[j] >= below[j] for j in range(len(below))):
                    return False
    return True


def tableau_apply(t: Tableau, w: Perm) -> Tableau:
    """Right action of ``w`` on the entries of ``t``."""
    return tuple(
        tuple(tuple(w[e - 1] for e in row) for row in comp) for comp in t
    )


def residue_sequence(t: Tableau, omega: tuple[int, ...]) -> tuple[int, ...]:
    """Residue of the box holding each of 1..r in turn."""
    residue = {e: omega[ci] + cj - ri for ci, comp in enumerate(t)
               for ri, row in enumerate(comp) for cj, e in enumerate(row)}
    return tuple(residue[i] for i in range(1, len(residue) + 1))
