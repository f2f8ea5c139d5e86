"""
Benchmark of the cellular-hecke command-line tool.

    python3 bench/run.py --workload simples-e3r3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The real CLI (``python3 -m cellular_hecke.cli``
from ``src/``) runs as child processes, one at a time and with ``--threads``
left at its default of 1. Every invocation's stdout is checked against the
digest recorded at the commit that defined this benchmark and against
independent oracles. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with tracing off. Every time is
given in reference seconds: the measured time scaled by the speed of the CPU
it ran on, relative to ``REF_CHUNK_S``. On a shared host a CPU's speed moves
by a third within minutes, and CPU time moves with it, so raw times of the
same code spread past any useful bound. ``bench/calibrator.py`` samples that
speed: it runs at niceness 19 on the one CPU this process and every child
are pinned to, and times a fixed chunk of exact arithmetic a few times a
second. A child's time is multiplied by ``REF_CHUNK_S`` over the mean chunk
time seen while the child ran (at least ``MIN_CHUNKS`` chunks, the nearest
ones when the child was short). The raw times and the speed go to stderr.

- ``wall_s``, ``cpu_s``: wall time, and user plus system CPU time of the
  children, of one pass over the workload's invocations; median over the
  passes of the run. Passes repeat while another one fits in ``--seconds``,
  with at least ``MIN_PASSES`` unless they would not fit in ``RUN_LIMIT_S``.
- ``setup_s``: fresh interpreter, ``import cellular_hecke.cli`` and the
  ``AlgebraContext`` warm-up at the workload's config; median of
  ``SETUP_SAMPLES`` child processes.
- ``peak_rss_mib``: largest resident set of any invocation's process.
- ``ok_frac``: invocations that exited 0 with correct output, over
  invocations attempted (one minus the failed fraction; it is never 0 on a
  working program, so a relative bound applies to it).

``--trace 1`` runs one untraced pass, then the same invocations twice in
``bench/tracer.py``, which calls ``cli.main`` in-process with every layer's
entry points wrapped. It checks that the traced stdout bytes equal the
untraced ones and that every exact count repeats between the two traced runs,
and reports the per-layer metrics (raw times, the mean of the two traced
runs) plus ``trace.overhead_frac``. The layer shares of the traced wall time
go to stderr.

``--seed`` only permutes the order of a workload's invocations: the work the
program does is fixed by the configs, not by random input.

An invocation fails on a nonzero exit, on a failed output check, or when it
runs past ``INVOCATION_TIMEOUT_S`` or the end of the run's ``RUN_LIMIT_S``.
No pass starts that is not expected to end within ``RUN_LIMIT_S``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import signal
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CALIBRATOR = Path(__file__).resolve().parent / "calibrator.py"

SETUP_SAMPLES = 25
REF_CHUNK_S = 0.002            # calibrator chunk CPU time at reference speed
MIN_CHUNKS = 5                 # calibrator chunks behind each speed estimate
MIN_PASSES = 1
INVOCATION_TIMEOUT_S = 120.0   # about 4x the slowest invocation at the seed
RUN_LIMIT_S = 170.0            # a run must end within 180 s


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    sha256: str                 # stdout digest at the defining commit
    check: Callable[[bytes], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    ell: int
    r: int
    omega: tuple[int, ...]
    invocations: tuple[Invocation, ...]


# -- output oracles: each returns None when the output is right, else why ----


def _rows(out: bytes) -> list[dict]:
    return [json.loads(line) for line in out.decode().splitlines() if line]


def check_simples_e3r3(out: bytes) -> str | None:
    """Nonzero simples match the crystal, cell dims square-sum to ell^r r!,
    and each block is the content multiset of its label."""
    from cellular_hecke.combinatorics import content_multiset
    from cellular_hecke.crystal import nonzero_labels
    from cellular_hecke.serialization import mp_from_lists
    ell, r, omega = 3, 3, (0, 1, 2)
    rows = _rows(out)
    labels = {mp_from_lists(row["lambda"]): row for row in rows}
    nonzero = {lam for lam, row in labels.items() if row["dim_simple"] > 0}
    if nonzero != nonzero_labels(omega, r):
        return "labels with dim_simple > 0 differ from the crystal labels"
    if sum(row["dim_cell"] ** 2 for row in rows) != ell ** r * math.factorial(r):
        return "cell dimensions do not square-sum to ell^r * r!"
    for lam, row in labels.items():
        if row["block"] != list(content_multiset(lam, omega)):
            return f"block of {row['lambda']} is not its content multiset"
    return None


def check_all_pass(out: bytes) -> str | None:
    lines = out.decode().splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        return "verify printed a line that is not PASS"
    return None


def check_match_mullineux_e2r3(out: bytes) -> str | None:
    """The certified table agrees with the closed-form generalized Mullineux
    map wherever the closed form is defined."""
    from cellular_hecke.label_maps import generalized_mullineux
    from cellular_hecke.serialization import mp_from_lists
    for row in _rows(out):
        lam, mu = mp_from_lists(row["from"]), mp_from_lists(row["to"])
        closed = generalized_mullineux(lam, (1, 0))
        if closed is not None and closed != mu:
            return f"match maps {row['from']} to {row['to']}, closed form differs"
    return None


WORKLOADS = {
    w.name: w for w in (
        # ROADMAP headline config: one 162x162 change of basis. About two
        # thirds of the time is the dense inverse, the rest products inside
        # cell_module. omega = 0,1,2 gives the change of basis far more fill
        # than 2,1,0 (3,348 vs 1,200 nonzeros), so a factorization change
        # shows its full effect here.
        Workload("simples-e3r3", 3, 3, (0, 1, 2), (
            Invocation(("simples", "--ell", "3", "--r", "3",
                        "--omega", "0,1,2", "--family", "m"),
                       "95ff41b34aa5deca11c3b51556336739"
                       "421af7c411107c83bad5b3cd2328200e",
                       check_simples_e3r3),
        )),
        # Every layer, small: 18 realizations of 11 distinct families (each
        # verify suite builds its own context), 2,304 pairings, 120
        # intertwiner solves, the crystal and the label maps. Fixed cost per
        # realization and cache sharing across suites show here.
        Workload("referee-e2r3", 2, 3, (1, 0), (
            Invocation(("verify", "all", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1", "--xi", "2,1"),
                       "8d77473728062a5580ca8cb56387139a"
                       "4c53a98dbfe22fdae71918a57187ea2f",
                       check_all_pass),
            Invocation(("match", "--ell", "2", "--r", "3", "--omega", "1,0",
                        "--familyA", "m", "--familyB", "n"),
                       "5942a5e388a853e56dcad7a2e3307dce"
                       "bbebe1d6c5a9db019bb89c855e7e1968",
                       check_match_mullineux_e2r3),
        )),
        # The largest algebra (dim 3,840) and no linear algebra at all:
        # Element products with cold rewriting caches. A linalg-only change
        # must leave it unchanged.
        Workload("algebra-e2r5", 2, 5, (1, 0), (
            Invocation(("verify", "relations", "trace", "--ell", "2",
                        "--r", "5", "--omega", "1,0", "--c", "0,1"),
                       "0792d02e5c4392731e2879675f157e92"
                       "b147cc7f6dc607f359c1caa2385f3980",
                       check_all_pass),
        )),
    )
}


# -- child processes ----------------------------------------------------------


@dataclass
class Child:
    code: int | None            # None when killed at its timeout
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    rss_mib: float
    window: tuple[float, float]  # time.monotonic() at spawn and at reap


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CELLULAR_HECKE_CACHE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # same set order in every run, traced or not
    return env


def run_child(args: list[str], timeout: float) -> Child:
    """Run ``python3 *args`` to completion; wall time is spawn to reap.

    stdout and stderr go to anonymous in-memory files, so no thread is needed
    to drain pipes; ``wait4`` gives the child's own CPU time and peak RSS.
    """
    argv = [sys.executable, *args]
    out_fd = os.memfd_create("stdout")
    err_fd = os.memfd_create("stderr")
    try:
        actions = [(os.POSIX_SPAWN_DUP2, out_fd, 1),
                   (os.POSIX_SPAWN_DUP2, err_fd, 2)]
        killed = False
        pid = 0

        def on_alarm(signum, frame):
            nonlocal killed
            try:
                os.kill(pid, signal.SIGKILL)
                killed = True
            except ProcessLookupError:  # reaped just before the alarm
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            since = time.monotonic()
            pid = os.posix_spawn(argv[0], argv, child_env(),
                                 file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                signal.setitimer(signal.ITIMER_REAL, 0)
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
            until = time.monotonic()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        code = None if killed else os.waitstatus_to_exitcode(status)
        return Child(code, _read_all(out_fd), _read_all(err_fd), until - since,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     (since, until))
    finally:
        os.close(out_fd)
        os.close(err_fd)


def _read_all(fd: int) -> bytes:
    chunks, offset = [], 0
    while chunk := os.pread(fd, 1 << 16, offset):
        chunks.append(chunk)
        offset += len(chunk)
    return b"".join(chunks)


class SpeedProbe:
    """Pins this process, and so every child it spawns, to one CPU and runs
    ``bench/calibrator.py`` there for as long as the ``with`` block lasts."""

    def __enter__(self) -> SpeedProbe:
        self.affinity = os.sched_getaffinity(0)
        cpu = min(self.affinity)
        os.sched_setaffinity(0, {cpu})
        self.fd = os.memfd_create("calibrator")
        argv = [sys.executable, str(CALIBRATOR), str(cpu)]
        try:
            self.pid = os.posix_spawn(
                argv[0], argv, child_env(),
                file_actions=[(os.POSIX_SPAWN_DUP2, self.fd, 1)])
        except BaseException:
            self._restore()
            raise
        self.ends: list[float] = []
        self.times: list[float] = []
        return self

    def __exit__(self, *exc) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            data = _read_all(self.fd)
            whole = data[:len(data) // 16 * 16]
            for end, cpu_s in struct.iter_unpack("dd", whole):
                self.ends.append(end)
                self.times.append(cpu_s)
        finally:
            self._restore()

    def _restore(self) -> None:
        os.sched_setaffinity(0, self.affinity)
        os.close(self.fd)

    def speed(self, window: tuple[float, float]) -> float | None:
        """CPU speed over a window, as ``REF_CHUNK_S`` over the mean time of
        the chunks that ended in it, widened to the nearest ``MIN_CHUNKS``
        chunks if fewer did; None if the probe made too few chunks at all.
        Call after the ``with`` block."""
        i = bisect.bisect_left(self.ends, window[0])
        j = bisect.bisect_right(self.ends, window[1])
        while j - i < MIN_CHUNKS and (i > 0 or j < len(self.ends)):
            i, j = max(i - 1, 0), min(j + 1, len(self.ends))
        if j - i < MIN_CHUNKS:
            return None
        return REF_CHUNK_S * (j - i) / sum(self.times[i:j])


@dataclass
class Tally:
    deadline: float
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def timeout(self) -> float:
        return min(INVOCATION_TIMEOUT_S, self.deadline - time.perf_counter())

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)


def invoke(inv: Invocation, tally: Tally) -> Child:
    """One untraced CLI invocation, checked; failures go to the tally."""
    child = run_child(["-m", "cellular_hecke.cli", *inv.argv], tally.timeout())
    tally.attempted += 1
    name = " ".join(inv.argv)
    if child.code is None:
        tally.fail(f"{name}: timed out after {child.wall_s:.1f} s")
    elif child.code != 0:
        tally.fail(f"{name}: exit {child.code}: "
                   f"{child.err.decode(errors='replace')[-500:]}")
    elif hashlib.sha256(child.out).hexdigest() != inv.sha256:
        tally.fail(f"{name}: stdout differs from the recorded digest")
    else:
        try:
            why = inv.check(child.out)
        except Exception as exc:  # a broken program may break its oracle too
            why = f"output check raised {exc!r}"
        if why is not None:
            tally.fail(f"{name}: {why}")
    return child


def run_pass(workload: Workload, rng: random.Random,
             tally: Tally) -> list[tuple[Invocation, Child]]:
    order = list(workload.invocations)
    rng.shuffle(order)
    done = []
    for inv in order:
        child = invoke(inv, tally)
        done.append((inv, child))
        if child.code is None:
            break
    return done


# -- the two kinds of run -----------------------------------------------------


def measure(workload: Workload, rng: random.Random, seconds: float,
            tally: Tally) -> dict[str, tuple[float, str]]:
    """End-to-end metrics with tracing off, in reference seconds."""
    setup_code = (
        "import cellular_hecke.cli\n"
        "from cellular_hecke import AlgebraContext\n"
        f"AlgebraContext({workload.ell}, {workload.r}, {workload.omega})\n"
    )
    setup: list[Child] = []
    passes: list[list[Child]] = []
    rss = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            child = run_child(["-c", setup_code], tally.timeout())
            if child.code != 0:
                tally.notes.append("set-up failed: "
                                   + child.err.decode(errors="replace")[-500:])
                return {}
            setup.append(child)
        start = time.perf_counter()
        while True:
            done = run_pass(workload, rng, tally)
            rss.extend(child.rss_mib for _, child in done)
            if len(done) < len(workload.invocations):
                break
            passes.append([child for _, child in done])
            if tally.failed:
                break
            now = time.perf_counter()
            typical = statistics.median(sum(c.wall_s for c in p)
                                        for p in passes)
            if now + typical > tally.deadline:   # slow program: no time-out
                break
            if len(passes) >= MIN_PASSES and now - start + typical > seconds:
                break
    if not passes:
        return {}
    speed = {id(c): probe.speed(c.window)
             for c in [*setup, *(c for p in passes for c in p)]}
    if None in speed.values():
        tally.fail("the CPU-speed probe made too few samples")
        return {}

    def per_pass(value: Callable[[Child], float]) -> float:
        """Median over the passes of ``value`` summed over a pass."""
        return statistics.median(sum(map(value, p)) for p in passes)

    print(f"{workload.name}: {len(passes)} passes; raw medians wall "
          f"{per_pass(lambda c: c.wall_s):.3f} s, "
          f"cpu {per_pass(lambda c: c.cpu_s):.3f} s, "
          f"setup {statistics.median(c.wall_s for c in setup):.4f} s; "
          f"CPU speed {per_pass(lambda c: speed[id(c)]) / len(passes[0]):.3f} "
          "of reference", file=sys.stderr)
    return {
        "wall_s": (per_pass(lambda c: c.wall_s * speed[id(c)]), "s"),
        "cpu_s": (per_pass(lambda c: c.cpu_s * speed[id(c)]), "s"),
        "setup_s": (statistics.median(c.wall_s * speed[id(c)] for c in setup),
                    "s"),
        "peak_rss_mib": (max(rss), "MiB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }


def exact(metrics: dict) -> dict:
    """The metrics that must repeat identically: everything but times."""
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"}


def trace(workload: Workload, rng: random.Random,
          tally: Tally) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from two traced in-process runs."""
    done = run_pass(workload, rng, tally)
    if tally.failed:
        return {}
    untraced_wall = sum(child.wall_s for _, child in done)
    order = [list(inv.argv) for inv, _ in done]
    untraced = [(list(inv.argv), child.code,
                 hashlib.sha256(child.out).hexdigest()) for inv, child in done]
    runs = []
    for _ in range(2):
        child = run_child([str(TRACER), json.dumps(order)], tally.timeout())
        tally.attempted += len(order)
        if child.code != 0:
            why = "timed out" if child.code is None else f"exit {child.code}"
            tally.fail(f"traced run {why}: "
                       f"{child.err.decode(errors='replace')[-500:]}")
            return {}
        report = json.loads(child.out.decode().splitlines()[-1])
        got = [(i["argv"], i["code"], i["sha256"])
               for i in report["invocations"]]
        if got != untraced:
            tally.fail("traced stdout differs from the untraced stdout")
        runs.append((report, child.wall_s - report["post_s"]))
    (first, wall_a), (second, wall_b) = runs
    if exact(first["metrics"]) != exact(second["metrics"]):
        tally.fail("exact counts differ between the two traced runs")
    out = {}
    for key, m in first["metrics"].items():
        value = m["value"]
        if m["unit"] == "s":
            value = (value + second["metrics"][key]["value"]) / 2
        out[key] = (value, m["unit"])
    out["trace.overhead_frac"] = ((wall_a + wall_b) / 2 / untraced_wall - 1,
                                  "frac")
    return out


def print_shares(name: str, metrics: dict[str, tuple[float, str]]) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"{name}: share of traced wall time {wall:.2f} s", file=sys.stderr)
    times = sorted(((v, k) for k, (v, u) in metrics.items()
                    if u == "s" and k != "trace.wall_s"), reverse=True)
    for value, key in times:
        print(f"  {key:28s} {value:9.3f} s {value / wall:7.1%}",
              file=sys.stderr)


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool) -> dict:
    rng = random.Random(seed)
    tally = Tally(deadline=time.perf_counter() + RUN_LIMIT_S)
    if traced:
        metrics = trace(workload, rng, tally)
        if metrics:
            print_shares(workload.name, metrics)
    else:
        metrics = measure(workload, rng, seconds, tally)
    for note in tally.notes:
        print(f"{workload.name}: {note}", file=sys.stderr)
    return {
        "correct": bool(metrics) and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    # SIGTERM gets the same clean-up as a normal exit: children killed and
    # reaped, the CPU-speed probe stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "cellular_hecke" / "cli.py").is_file():
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))   # the output oracles use the package
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        for key, m in result["metrics"].items():
            print(f"{name:14s} {key:34s} {m['value']:12.4f} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
