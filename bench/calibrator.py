"""
CPU-speed probe for ``bench/run.py``.

    python3 bench/calibrator.py CPU

Pins itself to CPU, raises its own niceness to 19 and repeats one fixed chunk
of exact arithmetic (Fractions and a dict, like the program's hot loops) until
it is killed or its parent exits. After each chunk it writes two native
doubles to stdout: the ``time.monotonic()`` at which the chunk ended and the
CPU seconds the chunk took.

``run.py`` runs the measured program on the same CPU at normal priority, so
this probe gets about 1.5% of that CPU, a few milliseconds every tenth of a
second or so, and its chunk times sample the speed the CPU runs at while the
program runs. On a shared host that speed moves by a third within minutes.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from fractions import Fraction

N = 6   # one chunk takes about 1.5 ms on a 2.1 GHz Xeon


def chunk() -> None:
    """Gauss-Jordan inverse of a fixed integer matrix over the rationals,
    then a sum of its entries into a dict keyed by small tuples."""
    a = [[Fraction((i * 7 + j * 13 + i * j) % 11 - 5 + (i == j))
          for j in range(N)] + [Fraction(int(i == j)) for j in range(N)]
         for i in range(N)]
    for c in range(N):
        p = next(r for r in range(c, N) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(N):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(N):
        for j in range(2 * N):
            key = (i * j % 17, (i + j) % 5)
            acc[key] = acc.get(key, 0) + a[i][j]


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.nice(19)
    parent = os.getppid()
    while os.getppid() == parent:
        c0 = time.thread_time()
        chunk()
        c1 = time.thread_time()
        os.write(1, struct.pack("dd", time.monotonic(), c1 - c0))


if __name__ == "__main__":
    main()
