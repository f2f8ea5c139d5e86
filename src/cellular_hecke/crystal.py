"""
Crystal on multipartitions: the good-box rule (Misra-Miwa; Kleshchev).

A vertex is a multipartition, and component i has the parameter omega_i, so
its box in row a and column b (from 0) has residue omega_i + b - a. The
lowering operator f_j adds one box of residue j, in the component selected
by the usual signature rule: each component gives '+' when it has an
addable box of residue j and '-' when it has a removable one; each '-'
cancels the nearest open '+'; f_j adds the box of the first '+' left
standing. The component of the empty label is reached by lowering alone.

The components are read last to first (component ell first). That reading
order is the one whose reachable labels agree with the Gram-rank computation
on the algebra side, and the agreement is an executed test, not an
assumption: at ell = 2 for omega = (0,1) and (0,0) at r <= 3, for (-1,1)
and (1,-1) at r = 2, 3 and for (1,0), (0,0) and (0,1) at r = 4, and at
ell = 3 for omega = (0,0,1) and (0,1,5) at r <= 3 and for (2,0,0) at r = 2.
Read first to last, the labels already disagree at (r, omega) = (2, (0,1)).

This is the crystal on ell-tuples of 01-sequences, each component with its
ones at the positions p = omega_i + lam_a - a of its rows a, where f_j moves
a one from j to j + 1 (the test reference keeps that model). The two agree:

- moving a one from j to j + 1 adds one box of residue j to the row of that
  one, and moving a one back from j + 1 to j removes one;
- a partition has at most one addable or removable box of each residue, so
  each component gives at most one sign per color, as a pair of bits does;
- the reference's default window never binds it: at depth d the highest
  one sits at max(omega) + d, below the window's top, and each component
  has more ones than a label of d boxes has rows.
"""

from __future__ import annotations

from .combinatorics import Multipartition, Partition, trim


def _addable(part: Partition) -> dict[int, int]:
    """The addable boxes of ``part``: content (column minus row) to row."""
    rows = part + (0,)
    return {x - a: a for a, x in enumerate(rows) if a == 0 or rows[a - 1] > x}


def _removable(part: Partition) -> list[int]:
    """Contents (column minus row) of the removable boxes of ``part``."""
    rows = part + (0,)
    return [x - 1 - a for a, x in enumerate(part) if rows[a + 1] < x]


def _colors(lam: Multipartition, omega: tuple[int, ...]) -> set[int]:
    """Residues of the addable boxes: the only colors f_j can act on."""
    return {w + d for w, part in zip(omega, lam) for d in _addable(part)}


def crystal_f(lam: Multipartition, omega: tuple[int, ...],
              j: int) -> Multipartition | None:
    """
    Lowering operator of color j; None when undefined. The component is the
    first '+' that survives cancellation, reading the components last to
    first, and it gains its addable box of residue j.
    """
    plus_stack: list[int] = []
    for i in range(len(lam) - 1, -1, -1):
        if j - omega[i] in _addable(lam[i]):
            plus_stack.append(i)
        elif j - omega[i] in _removable(lam[i]) and plus_stack:
            plus_stack.pop()
    if not plus_stack:
        return None
    i = plus_stack[0]
    a = _addable(lam[i])[j - omega[i]]
    part = lam[i] + (0,)
    part = part[:a] + (part[a] + 1,) + part[a + 1:]
    return lam[:i] + (trim(part),) + lam[i + 1:]


def component_of_empty(omega: tuple[int, ...],
                       r_max: int) -> dict[Multipartition, int]:
    """
    Breadth-first closure of the empty label under all lowering operators,
    up to depth ``r_max``; maps each vertex to its depth, its number of boxes.
    """
    start = ((),) * len(omega)
    seen: dict[Multipartition, int] = {start: 0}
    frontier = [start]
    for depth in range(1, r_max + 1):
        nxt = []
        for lam in frontier:
            for j in _colors(lam, omega):
                mu = crystal_f(lam, omega, j)
                if mu is not None and mu not in seen:
                    seen[mu] = depth
                    nxt.append(mu)
        frontier = nxt
    return seen


def crystal_edges(vertices: dict[Multipartition, int], omega: tuple[int, ...]
                  ) -> list[tuple[Multipartition, int, Multipartition]]:
    """All colored edges of the lowering graph within the given vertex set."""
    out = []
    for lam in vertices:
        for j in _colors(lam, omega):
            mu = crystal_f(lam, omega, j)
            if mu is not None and mu in vertices:
                out.append((lam, j, mu))
    return out


def nonzero_labels(omega: tuple[int, ...], r: int) -> set[Multipartition]:
    """
    Labels of the nonvanishing untwisted simple modules: the depth-r
    vertices of the empty-label component.
    """
    seen = component_of_empty(omega, r)
    return {lam for lam, depth in seen.items() if depth == r}
