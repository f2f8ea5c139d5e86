"""
Reference models of the crystal, which only the tests use.

``crystal_e`` is the raising operator on multipartitions: e_j removes one
box of residue j from the component of the last '-' that survives the
signature cancellation of ``cellular_hecke.crystal``, reading the components
last to first. It undoes ``crystal_f``.

The rest is the same crystal on tuples of 01-sequences over a finite
integer window, the model ``cellular_hecke.crystal`` is checked against,
read as labels through ``gamma``. A vertex is an ell-tuple of bit strings
indexed by the window; component i carries n_i = omega_i - lo + 1 ones.
The lowering operator f_j moves a single one from position j to j+1 in the
component selected by the signature rule: each component contributes '+'
when its bits at (j, j+1) read (1, 0), '-' for (0, 1); opposite adjacent
pairs cancel; f_j acts on the component of the first surviving '+'.
"""

from collections import namedtuple

from cellular_hecke.combinatorics import is_partition, trim


def _sign(part, d):
    """'+' for an addable box of content d, '-' for a removable one."""
    rows = part + (0,)
    if any(x - a == d and (a == 0 or rows[a - 1] > x)
           for a, x in enumerate(rows)):
        return "+"
    if any(x - 1 - a == d and rows[a + 1] < x for a, x in enumerate(part)):
        return "-"
    return None


def crystal_e(lam, omega, j):
    """Raising operator of color j on a multipartition; None when undefined."""
    plus = 0
    last_minus = None
    for i in range(len(lam) - 1, -1, -1):
        sign = _sign(lam[i], j - omega[i])
        if sign == "+":
            plus += 1
        elif sign == "-":
            if plus:
                plus -= 1
            else:
                last_minus = i
    if last_minus is None:
        return None
    i = last_minus
    part = lam[i]
    a = next(a for a, x in enumerate(part) if x - 1 - a == j - omega[i])
    part = trim(part[:a] + (part[a] - 1,) + part[a + 1:])
    return lam[:i] + (part,) + lam[i + 1:]


class Window(namedtuple("Window", "lo hi")):
    __slots__ = ()

    @property
    def size(self):
        return self.hi - self.lo + 1


class ZeroOneTuple(namedtuple("ZeroOneTuple", "window bits")):
    __slots__ = ()

    @property
    def ell(self):
        return len(self.bits)

    def ones(self, i):
        """Window positions of the ones in component i (ascending)."""
        lo = self.window.lo
        return tuple(lo + k for k, b in enumerate(self.bits[i]) if b)


def bit_f(v, j):
    """Lowering operator of color j on a bit tuple; None when undefined."""
    if not v.window.lo <= j < v.window.hi:
        raise ValueError(f"color {j} outside window")
    k = j - v.window.lo
    plus_stack = []
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


def ones_counts(omega, window):
    """Number of ones each component carries: n_i = omega_i - lo + 1."""
    n = tuple(w - window.lo + 1 for w in omega)
    if any(k < 1 for k in n):
        raise ValueError("window starts above some parameter")
    if any(k > window.size for k in n):
        raise ValueError("window too small for the parameters")
    return n


def empty_label(omega, window):
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


def gamma(v):
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


def default_window(omega, r):
    """
    lo = min(omega) - r, so every component can host r rows, and
    hi = max(omega) + r + 1 enlarged until the window holds at least twice
    the largest ones count.
    """
    lo = min(omega) - max(r, 1)
    hi = max(omega) + r + 1
    max_n = max(omega) - lo + 1
    hi = max(hi, lo + 2 * max_n - 1)
    return Window(lo, hi)


def bit_component_of_empty(omega, r_max, window=None):
    """
    Breadth-first closure of the empty-label vertex under all lowering
    operators, up to depth ``r_max``, in ``window`` (by default
    ``default_window(omega, r_max)``); maps each vertex to its depth.
    """
    window = window or default_window(omega, r_max)
    start = empty_label(omega, window)
    seen = {start: 0}
    frontier = [start]
    for depth in range(1, r_max + 1):
        nxt = []
        for v in frontier:
            for j in range(window.lo, window.hi):
                w = bit_f(v, j)
                if w is not None and w not in seen:
                    seen[w] = depth
                    nxt.append(w)
        frontier = nxt
    return seen


def bit_edges(vertices):
    """All colored edges of the lowering graph within the given vertex set."""
    out = []
    for v in vertices:
        for j in range(v.window.lo, v.window.hi):
            w = bit_f(v, j)
            if w is not None and w in vertices:
                out.append((v, j, w))
    return out
