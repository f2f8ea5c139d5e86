"""
Crystal on tuples of 01-sequences over a finite integer window.

A vertex is an ell-tuple of bit strings indexed by the window; component i
carries a fixed number of ones. The lowering operator f_j moves a single
one from position j to j+1 in the component selected by the usual signature
rule: each component contributes '+' when its bits at (j, j+1) read (1, 0),
'-' for (0, 1); opposite adjacent pairs cancel; f_j acts on the component
of the first surviving '+'. The component of the empty label is reached by
lowering alone.

The components are read last to first (component ell first). That reading
order is the one whose reachable labels agree with the Gram-rank computation
on the algebra side, and the agreement is an executed test, not an
assumption: at ell = 2 for omega = (0,1) and (0,0) at r <= 3 and for (1,0),
(0,0) and (0,1) at r = 4, and at ell = 3 for omega = (0,0,1) and (0,1,5)
at r <= 3. Read first to last, the labels already disagree at
(r, omega) = (2, (0,1)).

Every vertex is untwisted: component i carries n_i = omega_i - lo + 1 ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Multipartition, is_partition


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty window")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def positions(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class ZeroOneTuple:
    window: Window
    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for comp in self.bits:
            if len(comp) != self.window.size:
                raise ValueError("component length does not match window")
            if any(b not in (0, 1) for b in comp):
                raise ValueError("bits must be 0 or 1")

    @property
    def ell(self) -> int:
        return len(self.bits)

    def ones(self, i: int) -> tuple[int, ...]:
        """Window positions of the ones in component i (ascending)."""
        lo = self.window.lo
        return tuple(lo + k for k, b in enumerate(self.bits[i]) if b)


def crystal_f(v: ZeroOneTuple, j: int) -> ZeroOneTuple | None:
    """
    Lowering operator of color j; None when undefined. The component is the
    first '+' that survives cancellation, reading the components last to
    first, and its one moves from j to j + 1.
    """
    if not v.window.lo <= j < v.window.hi:
        raise ValueError(f"color {j} outside window")
    k = j - v.window.lo
    plus_stack: list[int] = []
    for i in range(v.ell - 1, -1, -1):
        a, b = v.bits[i][k], v.bits[i][k + 1]
        if (a, b) == (1, 0):
            plus_stack.append(i)
        elif (a, b) == (0, 1) and plus_stack:
            plus_stack.pop()
    if not plus_stack:
        return None
    i = plus_stack[0]
    bits = list(v.bits)
    bits[i] = bits[i][:k] + (0, 1) + bits[i][k + 2:]
    return ZeroOneTuple(v.window, tuple(bits))


def ones_counts(omega: tuple[int, ...], window: Window) -> tuple[int, ...]:
    """Number of ones each component carries: n_i = omega_i - lo + 1."""
    n = tuple(w - window.lo + 1 for w in omega)
    if any(k < 1 for k in n):
        raise ValueError("window starts above some parameter")
    if any(k > window.size for k in n):
        raise ValueError("window too small for the parameters")
    return n


def empty_label(omega: tuple[int, ...], window: Window) -> ZeroOneTuple:
    """
    The vertex mapping to the empty multipartition: each component has its
    ones at the lowest window positions.
    """
    counts = ones_counts(omega, window)
    bits = tuple(
        tuple(1 if k < cnt else 0 for k in range(window.size))
        for cnt in counts
    )
    return ZeroOneTuple(window, bits)


def gamma(v: ZeroOneTuple) -> Multipartition:
    """
    Multipartition of a vertex: per component, the one-positions in
    descending order minus those of the empty-label vertex (the staircase
    lo + m - 1, ..., lo for m ones), trailing zeros dropped.
    """
    lo = v.window.lo
    out = []
    for i in range(v.ell):
        pos = v.ones(i)
        m = len(pos)
        part = tuple(p - (lo + m - 1 - k)
                     for k, p in enumerate(reversed(pos)))
        while part and part[-1] == 0:
            part = part[:-1]
        if not is_partition(part):
            raise ValueError(
                f"component {i} does not normalize to a partition: {part}"
            )
        out.append(part)
    return tuple(out)


def default_window(omega: tuple[int, ...], r: int) -> Window:
    """
    lo = min(omega) - r, so every component can host r rows (the label
    classification needs that much room), and hi = max(omega) + r + 1
    enlarged until the window holds at least twice the largest ones count.
    """
    lo = min(omega) - max(r, 1)
    hi = max(omega) + r + 1
    max_n = max(omega) - lo + 1
    hi = max(hi, lo + 2 * max_n - 1)
    return Window(lo, hi)


def component_of_empty(omega: tuple[int, ...],
                       r_max: int) -> dict[ZeroOneTuple, int]:
    """
    Breadth-first closure of the empty-label vertex under all lowering
    operators, up to depth ``r_max``, in ``default_window(omega, r_max)``;
    maps each vertex to its depth.
    """
    window = default_window(omega, r_max)
    start = empty_label(omega, window)
    seen: dict[ZeroOneTuple, int] = {start: 0}
    frontier = [start]
    for depth in range(1, r_max + 1):
        nxt = []
        for v in frontier:
            for j in range(window.lo, window.hi):
                w = crystal_f(v, j)
                if w is not None and w not in seen:
                    seen[w] = depth
                    nxt.append(w)
        frontier = nxt
    return seen


def crystal_edges(vertices: dict[ZeroOneTuple, int]
                  ) -> list[tuple[ZeroOneTuple, int, ZeroOneTuple]]:
    """All colored edges of the lowering graph within the given vertex set."""
    out = []
    for v in vertices:
        for j in range(v.window.lo, v.window.hi):
            w = crystal_f(v, j)
            if w is not None and w in vertices:
                out.append((v, j, w))
    return out


def nonzero_labels(omega: tuple[int, ...], r: int) -> set[Multipartition]:
    """
    Labels of the nonvanishing untwisted simple modules: images of the
    depth-r vertices of the empty-label component under gamma.
    """
    seen = component_of_empty(omega, r)
    return {gamma(v) for v, depth in seen.items() if depth == r}
