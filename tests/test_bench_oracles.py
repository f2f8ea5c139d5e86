"""
The benchmark's output checks, run in-process: ``bench/run.py`` is loaded by
path, and every invocation of every workload goes through ``cli.main`` with
its stdout held to the invocation's oracle and recorded digest. The oracles
import package names (``nonzero_labels``, ``content_multiset``,
``generalized_mullineux``, ...), so a change to one of them must fail here
rather than in the next benchmark run.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cellular_hecke.cli import main

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


INVOCATIONS = [
    pytest.param(inv, id=f"{name}-{k}")
    for name, workload in _load_bench().WORKLOADS.items()
    for k, inv in enumerate(workload.invocations)
]


@pytest.mark.parametrize("inv", INVOCATIONS)
def test_workload_output_passes_its_oracle(capsysbinary, inv):
    assert main(list(inv.argv)) == 0
    out = capsysbinary.readouterr().out
    assert inv.check(out) is None
    assert hashlib.sha256(out).hexdigest() == inv.sha256
