"""
Traced in-process run of the cellular-hecke CLI.

    PYTHONPATH=src python3 bench/tracer.py '[["simples", "--ell", "3", ...], ...]'

Imports ``cellular_hecke.cli``, wraps the public entry points of every layer
at each name a caller looks them up by, calls ``cli.main`` once per argument
list and prints one JSON object: the per-layer metrics, and the exit code and
stdout digest of every invocation. ``bench/run.py --trace 1`` starts this
script as a child process, so every traced run begins with cold caches.

Spans (name, start, end, parent) are kept in memory and reduced once at the
end. A span's self time is its duration minus the durations of its child
spans; every ``*_s`` metric below is a self time, so the ``*_s`` metrics,
``cli.import_s`` and ``trace.other_s`` add up to ``trace.wall_s``. The time
the tracer spends on its own counters is taken out of every span.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time

_t0 = time.perf_counter()
import cellular_hecke.cli as cli  # noqa: E402  (the import is measured)
IMPORT_S = time.perf_counter() - _t0

from cellular_hecke import (  # noqa: E402
    algebra, cellular, crystal, label_maps, linalg, serialization,
)

# (span name, owner, attribute names). A module owner is patched at every
# module of the package that binds the same function object, e.g. both
# ``linalg.inverse`` and ``cellular.inverse``.
SPANS = [
    ("cli.config", cli, ("build_parser", "resolve_config")),
    ("algebra.warmup", algebra.AlgebraContext, ("__init__",)),
    ("algebra.mul", algebra.Element, ("__mul__",)),
    ("algebra.star", algebra, ("star",)),
    ("linalg.inverse", linalg, ("inverse",)),
    ("linalg.rref", linalg, ("rref",)),
    ("cellular.realization", cellular.FamilyRealization, ("__init__",)),
    ("cellular.expand", cellular.FamilyRealization, ("expand",)),
    ("cellular.cell_module", cellular, ("cell_module",)),
    ("cellular.simple_module", cellular, ("simple_module",)),
    ("cellular.block", cellular, ("block_of",)),
    ("cellular.intertwiner", cellular, ("intertwiner_dim",)),
    ("crystal.component", crystal, ("component_of_empty",)),
    ("label_maps.match", label_maps, ("match_simples",)),
    ("label_maps.closed_form", label_maps,
     ("eta", "r_map", "mullineux_xi", "generalized_mullineux")),
    ("serialization.emit", serialization,
     ("emit", "emit_jsonl", "emit_csv", "emit_dot")),
]

# A call is not a span of its own when the innermost open span has the same
# name (emit -> emit_jsonl) or is listed here: the elimination inside
# ``inverse`` belongs to ``inverse``.
ABSORBED_BY = {"linalg.rref": {"linalg.inverse"}}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {
            "algebra.mono_pairs": 0, "algebra.terms_out": 0,
            "linalg.inverse_n_max": 0, "cellular.intertwiner_unknowns_max": 0,
            "crystal.vertices": 0, "serialization.bytes_out": 0,
            "linalg.cob_nnz": 0, "linalg.cob_inv_nnz": 0,
            "linalg.cob_inv_max_bits": 0,
        }
        self.realizations: set = set()  # distinct (ell, r, omega, family)
        self.hook_s = 0.0
        self.hooks = {
            "algebra.mul": self._on_mul,
            "linalg.inverse": self._on_inverse,
            "cellular.realization": self._on_realization,
            "cellular.intertwiner": self._on_intertwiner,
            "crystal.component": self._on_component,
            "serialization.emit": self._on_emit,
        }

    def clock(self) -> float:
        """Time with the tracer's own counting taken out."""
        return time.perf_counter() - self.hook_s

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        absorbed_by = {name} | ABSORBED_BY.get(name, set())
        hook = self.hooks.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] in absorbed_by:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                start = time.perf_counter()
                hook(args, result)
                self.hook_s += time.perf_counter() - start
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "cellular_hecke" or n.startswith("cellular_hecke.")]
        for name, owner, attrs in SPANS:
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # -- per-span counters; they run after the span has closed ---------------

    def _on_mul(self, args, result) -> None:
        left, right = args
        if isinstance(right, algebra.Element):
            self.counts["algebra.mono_pairs"] += \
                len(left.terms) * len(right.terms)
        self.counts["algebra.terms_out"] += len(result.terms)

    def _on_inverse(self, args, result) -> None:
        self._max("linalg.inverse_n_max", len(args[0]))

    def _on_realization(self, args, result) -> None:
        real = args[0]
        self.realizations.add(
            (real.ctx.ell, real.ctx.r, real.ctx.omega, real.family))
        inv = real.change_of_basis_inv
        self.counts["linalg.cob_nnz"] += _nnz(real.change_of_basis)
        self.counts["linalg.cob_inv_nnz"] += _nnz(inv)
        self._max("linalg.cob_inv_max_bits", max(
            (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
             for row in inv for x in row if x), default=0))

    def _on_intertwiner(self, args, result) -> None:
        self._max("cellular.intertwiner_unknowns_max",
                  args[0].dim * args[1].dim)

    def _on_component(self, args, result) -> None:
        self.counts["crystal.vertices"] += len(result)

    def _on_emit(self, args, result) -> None:
        self.counts["serialization.bytes_out"] += len(result)

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- reduction ------------------------------------------------------------

    def metrics(self, main_s: float) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = {name: 0 for name, _, _ in SPANS}
        self_s: dict[str, float] = {name: 0.0 for name, _, _ in SPANS}
        covered = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent < 0:
                covered += dur
            else:
                self_s[self.spans[parent][0]] -= dur
        c = self.counts
        out = {
            "cli.import_s": (IMPORT_S, "s"),
            "cli.config_s": (self_s["cli.config"], "s"),
            "algebra.warmup_s": (self_s["algebra.warmup"], "s"),
            "algebra.contexts": (calls["algebra.warmup"], "count"),
            "algebra.mul_calls": (calls["algebra.mul"], "count"),
            "algebra.mul_s": (self_s["algebra.mul"], "s"),
            "algebra.mono_pairs": (c["algebra.mono_pairs"], "count"),
            "algebra.terms_out": (c["algebra.terms_out"], "count"),
            "algebra.star_calls": (calls["algebra.star"], "count"),
            "algebra.star_s": (self_s["algebra.star"], "s"),
            "linalg.inverse_calls": (calls["linalg.inverse"], "count"),
            "linalg.inverse_s": (self_s["linalg.inverse"], "s"),
            "linalg.inverse_n_max": (c["linalg.inverse_n_max"], "rows"),
            "linalg.cob_nnz": (c["linalg.cob_nnz"], "count"),
            "linalg.cob_inv_nnz": (c["linalg.cob_inv_nnz"], "count"),
            "linalg.cob_inv_max_bits": (c["linalg.cob_inv_max_bits"], "bits"),
            "linalg.rref_calls": (calls["linalg.rref"], "count"),
            "linalg.rref_s": (self_s["linalg.rref"], "s"),
            "cellular.realization_calls":
                (calls["cellular.realization"], "count"),
            "cellular.realization_distinct": (len(self.realizations), "count"),
            "cellular.realization_s": (self_s["cellular.realization"], "s"),
            "cellular.expand_calls": (calls["cellular.expand"], "count"),
            "cellular.expand_s": (self_s["cellular.expand"], "s"),
            "cellular.cell_module_calls":
                (calls["cellular.cell_module"], "count"),
            "cellular.cell_module_s": (self_s["cellular.cell_module"], "s"),
            "cellular.simple_module_s":
                (self_s["cellular.simple_module"], "s"),
            "cellular.block_s": (self_s["cellular.block"], "s"),
            "cellular.intertwiner_calls":
                (calls["cellular.intertwiner"], "count"),
            "cellular.intertwiner_s": (self_s["cellular.intertwiner"], "s"),
            "cellular.intertwiner_unknowns_max":
                (c["cellular.intertwiner_unknowns_max"], "count"),
            "crystal.component_s": (self_s["crystal.component"], "s"),
            "crystal.vertices": (c["crystal.vertices"], "count"),
            "label_maps.match_s": (self_s["label_maps.match"], "s"),
            "label_maps.closed_form_calls":
                (calls["label_maps.closed_form"], "count"),
            "serialization.emit_s": (self_s["serialization.emit"], "s"),
            "serialization.bytes_out": (c["serialization.bytes_out"], "bytes"),
            "trace.other_s": (main_s - covered, "s"),
            "trace.wall_s": (IMPORT_S + main_s, "s"),
        }
        return out


def _nnz(mat) -> int:
    return sum(1 for row in mat for x in row if x)


def run_main(argv: list[str]) -> tuple[int, bytes]:
    """``cli.main(argv)`` with its stdout captured as bytes."""
    buf = io.BytesIO()
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        data = buf.getvalue()
    finally:
        sys.stdout.detach()
        sys.stdout = saved
    return code, data


def main() -> int:
    invocations = json.loads(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    results = []
    main_s = 0.0
    for argv in invocations:
        start = tracer.clock()
        code, data = run_main(argv)
        main_s += tracer.clock() - start
        results.append({"argv": argv, "code": code,
                        "sha256": hashlib.sha256(data).hexdigest()})
    post_start = time.perf_counter()
    metrics = tracer.metrics(main_s)
    post_s = time.perf_counter() - post_start
    print(json.dumps({
        "invocations": results,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "post_s": post_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
