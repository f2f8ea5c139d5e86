"""
The raising operators of the crystal, which only the tests use: e_j moves a
single one from position j+1 back to j in the component of the last '-'
that survives the signature cancellation of ``cellular_hecke.crystal``,
reading the components last to first. It undoes ``crystal_f``.
"""

from cellular_hecke.crystal import ZeroOneTuple


def crystal_e(v: ZeroOneTuple, j: int) -> ZeroOneTuple | None:
    """Raising operator of color j; None when undefined."""
    if not v.window.lo <= j < v.window.hi:
        raise ValueError(f"color {j} outside window")
    k = j - v.window.lo
    plus = 0
    last_minus = None
    for i in range(v.ell - 1, -1, -1):
        a, b = v.bits[i][k], v.bits[i][k + 1]
        if (a, b) == (1, 0):
            plus += 1
        elif (a, b) == (0, 1):
            if plus:
                plus -= 1
            else:
                last_minus = i
    if last_minus is None:
        return None
    bits = list(v.bits)
    bits[last_minus] = bits[last_minus][:k] + (1, 0) + bits[last_minus][k + 2:]
    return ZeroOneTuple(v.window, tuple(bits))
