"""
Smoke test for the benchmark's tracer: ``bench/tracer.py`` wraps the
package's entry points by name, so renaming or reshaping one of them must
fail here rather than in the next benchmark run.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cellular_hecke import cellular, linalg
from cellular_hecke.algebra import AlgebraContext
from cellular_hecke.cli import main

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["gram", "--ell", "2", "--r", "2", "--omega", "0,1",
        "--family", "m", "--lambda", "[[1],[1]]"]


def test_tracer_runs_and_matches_untraced_stdout(capsysbinary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), json.dumps([ARGV])],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout)

    assert main(list(ARGV)) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert report["invocations"] == [
        {"argv": ARGV, "code": 0, "sha256": digest}]

    metrics = report["metrics"]
    assert metrics["cellular.expand_calls"]["value"] > 0
    assert metrics["linalg.cob_inv_nnz"]["value"] > 0


def test_inverse_is_wrapped_where_the_realization_reads_it():
    # the tracer's linalg.inverse span patches every module binding the same
    # function, and cob_inv_nnz / cob_inv_max_bits read the realization's
    # dense view of the inverse, change_of_basis_inv, built on read from its
    # sparse rows; its entries are int when integral and Fraction otherwise
    assert cellular.inverse is linalg.inverse
    ctx = AlgebraContext(2, 2, (0, 1))
    real = cellular.realization(ctx, cellular.family_m((0, 1)))
    inv = real.change_of_basis_inv
    n = ctx.dimension()
    assert isinstance(inv, list) and len(inv) == n
    assert all(isinstance(row, list) and len(row) == n for row in inv)
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for row in inv for x in row)
