"""
Command-line driver.

Machine-readable output (JSON-lines, CSV or DOT) goes to stdout; progress
notes go to stderr. Exit codes: 0 success, 1 verification failure, 2 usage
error. Output bytes are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import crystal as crystal_mod
from .algebra import (
    AlgebraContext,
    defining_relations,
    right_translate,
    star,
    trace_functional,
    trace_of_product,
    verify_basis,
)
from .cellular import (
    BasisFamily,
    cell_module,
    cell_seed,
    check_realization_size,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    family_n_xi,
    intertwiner_dim,
    realization,
    simple_of,
    simples_table,
)
from .combinatorics import (
    conjugate,
    enumerate_multipartitions,
    perm_inverse,
    standard_tableaux,
    tableau_conjugate,
    tableau_dominance_ge,
    w_lambda,
)
from .label_maps import (
    eta,
    generalized_mullineux,
    is_standard,
    match_simples,
    mullineux_xi,
    A_of_lambda,
    xi_context,
)
from .linalg import SingularMatrixError
from .serialization import (
    ConfigError,
    JobConfig,
    emit,
    emit_dot,
    mp_from_lists,
    mp_to_lists,
    parse_config,
)

SUITES = ("relations", "trace", "pairing", "cellular", "main1", "main2", "duality")
# the suites that build a cellular realization, so are size-limited
REALIZING_SUITES = ("pairing", "cellular", "main1", "main2", "duality")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellular-hecke",
        description="exact cellular structures for degenerate cyclotomic "
                    "Hecke algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ell", type=int, help="number of parameters")
    common.add_argument("--r", type=int, help="number of strands")
    common.add_argument("--omega", type=_int_list, metavar="0,1",
                        help="integer parameters, comma separated")
    common.add_argument("--c", type=_int_list, metavar="0,1",
                        help="01 twist sequence")
    common.add_argument("--xi", type=_int_list, metavar="2,1",
                        help="parameter permutation (one-line images)")
    common.add_argument("--family", choices=["m", "n", "mxi", "nxi"],
                        help="cellular family")
    common.add_argument("--format", choices=["json", "csv", "dot"],
                        help="output format")
    common.add_argument("--config", metavar="FILE", help="JSON config file")

    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("list", parents=[common],
                   help="labels and tableau counts")
    sub.add_parser("check-basis", parents=[common],
                   help="normal-form basis and relation check")
    p = sub.add_parser("gram", parents=[common], help="Gram matrix of a label")
    p.add_argument("--lambda", dest="lam", required=True,
                   metavar="[[2],[1]]", help="label as JSON")
    sub.add_parser("simples", parents=[common],
                   help="cell/simple dimensions and blocks per label")
    sub.add_parser("blocks", parents=[common],
                   help="partition of the labels into blocks")
    p = sub.add_parser("crystal", parents=[common],
                       help="component of the empty label")
    p.add_argument("--depth", type=int, help="number of boxes (default r)")
    p = sub.add_parser("mullineux", parents=[common],
                       help="label correspondence maps")
    p.add_argument("--lambda", dest="lam", required=True,
                   metavar="[[2],[1]]", help="label as JSON")
    p = sub.add_parser("match", parents=[common],
                       help="intertwiner-certified label bijection")
    p.add_argument("--familyA", required=True,
                   choices=["m", "n", "mxi", "nxi"])
    p.add_argument("--familyB", required=True,
                   choices=["m", "n", "mxi", "nxi"])
    p = sub.add_parser("verify", parents=[common],
                       help="named verification suites")
    p.add_argument("suites", nargs="+", choices=list(SUITES) + ["all"])
    return parser


def resolve_config(args) -> tuple[JobConfig, bool]:
    """
    Defaults, then config file, then explicit flags. Also says whether xi
    was given, by the file or by the flag: ``mullineux`` picks its map by it.
    """
    merged: dict = {"ell": 2, "r": 2}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        parse_config(text)
        # only the fields the file sets: its defaults must not count as given
        merged.update(json.loads(text))
    xi_given = args.xi is not None or "xi" in merged
    for key, value in [
        ("ell", args.ell), ("r", args.r), ("omega", args.omega),
        ("c", args.c), ("xi", args.xi), ("family", args.family),
        ("format", args.format),
    ]:
        if value is not None:
            merged[key] = value
    # without an explicit omega the parameters default to 0..ell-1
    merged.setdefault("omega", list(range(merged["ell"])))
    return parse_config(json.dumps(merged)), xi_given


def family_from_config(cfg: JobConfig, name: str | None = None) -> BasisFamily:
    kind = name or cfg.family
    if kind == "m":
        return family_m(cfg.c)
    if kind == "n":
        return family_n(cfg.c)
    if kind == "mxi":
        return family_m_xi(cfg.xi)
    return family_n_xi(cfg.xi)


def context_from_config(cfg: JobConfig) -> AlgebraContext:
    return AlgebraContext(cfg.ell, cfg.r, cfg.omega)


# ---------------------------------------------------------------------------
# verbs


def cmd_list(cfg: JobConfig) -> bytes:
    rows = [
        {"lambda": mp_to_lists(lam), "std": len(standard_tableaux(lam))}
        for lam in enumerate_multipartitions(cfg.ell, cfg.r)
    ]
    return emit(rows, cfg.format, fieldnames=["lambda", "std"])


def cmd_check_basis(cfg: JobConfig) -> tuple[bytes, int]:
    ctx = context_from_config(cfg)
    basis_ok = verify_basis(ctx)
    relations_ok = all(el.is_zero() for _, el in defining_relations(ctx))
    ok = basis_ok and relations_ok
    row = {
        "dimension": ctx.dimension(),
        "basis_ok": basis_ok,
        "relations_ok": relations_ok,
        "ok": ok,
    }
    return emit([row], cfg.format), 0 if ok else 1


def cmd_gram(cfg: JobConfig, lam_text: str) -> bytes:
    ctx = context_from_config(cfg)
    fam = family_from_config(cfg)
    lam = mp_from_lists(json.loads(lam_text))
    module = cell_module(ctx, fam, lam)
    rows = [
        {"lambda": mp_to_lists(lam), "family": fam.label(), "i": i,
         "row": module.gram[i]}
        for i in range(module.dim)
    ]
    return emit(rows, cfg.format, fieldnames=["lambda", "family", "i", "row"])


def cmd_simples(cfg: JobConfig) -> bytes:
    rows = simples_table(context_from_config(cfg), family_from_config(cfg))
    return emit(rows, cfg.format,
                fieldnames=["lambda", "family", "dim_cell", "dim_simple", "block"])


def cmd_blocks(cfg: JobConfig) -> bytes:
    by_alpha: dict[tuple, list] = {}
    for row in simples_table(context_from_config(cfg), family_from_config(cfg)):
        by_alpha.setdefault(tuple(row["block"]), []).append(row["lambda"])
    rows = [
        {"block": list(alpha), "lambdas": by_alpha[alpha]}
        for alpha in sorted(by_alpha)
    ]
    return emit(rows, cfg.format, fieldnames=["block", "lambdas"])


def cmd_crystal(cfg: JobConfig, depth: int | None) -> bytes:
    depth = cfg.r if depth is None else depth
    if depth < 0:
        raise ValueError(f"--depth must be >= 0, got {depth}")
    c0 = (0,) * cfg.ell
    seen = crystal_mod.component_of_empty(cfg.omega, c0, depth)
    ordered = sorted(
        seen.items(),
        key=lambda kv: (kv[1], crystal_mod.gamma(kv[0], c0), kv[0].bits),
    )
    ids = {v: i for i, (v, _) in enumerate(ordered)}
    labels = [
        json.dumps(mp_to_lists(crystal_mod.gamma(v, c0)),
                   separators=(",", ":"))
        for v, _ in ordered
    ]
    edges = sorted(
        (ids[src], str(j), ids[dst])
        for src, j, dst in crystal_mod.crystal_edges(seen)
    )
    if cfg.format == "dot":
        return emit_dot(labels, edges)
    rows = [
        {"node": i, "depth": ordered[i][1], "gamma": json.loads(labels[i])}
        for i in range(len(ordered))
    ]
    rows += [
        {"edge": [src, dst], "color": int(color)} for src, color, dst in edges
    ]
    return emit(rows, cfg.format,
                fieldnames=["node", "depth", "gamma", "edge", "color"])


def cmd_mullineux(cfg: JobConfig, lam_text: str, xi_given: bool) -> bytes:
    lam = mp_from_lists(json.loads(lam_text))
    if len(lam) != cfg.ell:
        raise ValueError(f"lambda {mp_to_lists(lam)} needs ell={cfg.ell} "
                         f"components, got {len(lam)}")
    if xi_given:
        ctx = xi_context(cfg.omega, cfg.xi, size=max(sum(map(sum, lam)), 1))
        out = mullineux_xi(lam, ctx)
    else:
        out = generalized_mullineux(lam, cfg.omega)
    row = {
        "from": mp_to_lists(lam),
        "to": None if out is None else mp_to_lists(out),
    }
    return emit([row], cfg.format, fieldnames=["from", "to"])


def cmd_match(cfg: JobConfig, name_a: str, name_b: str) -> bytes:
    ctx = context_from_config(cfg)
    table = match_simples(ctx, family_from_config(cfg, name_a),
                          family_from_config(cfg, name_b))
    rows = [
        {"from": mp_to_lists(a), "to": mp_to_lists(b), "certified": True}
        for a, b in sorted(table)
    ]
    return emit(rows, cfg.format, fieldnames=["from", "to", "certified"])


# ---------------------------------------------------------------------------
# verification suites


def _all_twists(ell: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(2 ** ell):
        out.append(tuple((mask >> i) & 1 for i in range(ell)))
    return out


def suite_relations(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    lines = []
    ok = True
    for name, el in defining_relations(ctx):
        if not el.is_zero():
            ok = False
            lines.append(f"FAIL relations: {name} does not normalize to 0")
    if not verify_basis(ctx):
        ok = False
        lines.append("FAIL relations: normal-form basis check failed")
    if ok:
        lines.append(
            f"PASS relations: all defining relations normalize to 0 and the "
            f"{ctx.dimension()}-element basis closes (ell={cfg.ell}, r={cfg.r})"
        )
    return ok, lines


def suite_trace(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    lines = []
    ok = True
    twists = _all_twists(cfg.ell)
    for lam in enumerate_multipartitions(cfg.ell, cfg.r):
        w = w_lambda(lam)
        winv = perm_inverse(w)
        # z . w^-1 = (m-seed . w) . (n-seed . w^-1), traced without the product
        values = [(c, trace_of_product(
                      right_translate(cell_seed(ctx, family_m(c), lam), w),
                      right_translate(cell_seed(ctx, family_n(c),
                                                conjugate(lam)), winv)))
                  for c in twists]
        bad = [(c, val) for c, val in values if val != 1]
        if bad:
            ok = False
            for c, val in bad:
                lines.append(
                    "FAIL trace: "
                    + json.dumps({"lambda": mp_to_lists(lam), "c": list(c),
                                  "value": str(val)})
                )
        else:
            lines.append(
                f"PASS trace: tau(z w^-1) = 1 at lambda="
                + json.dumps(mp_to_lists(lam), separators=(",", ":"))
                + f" for all {len(twists)} twists"
            )
    if ok:
        lines.append(
            f"PASS trace: every label verified "
            f"(ell={cfg.ell}, r={cfg.r}, omega={list(cfg.omega)})"
        )
    return ok, lines


def suite_pairing(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    real_m = realization(ctx, family_m(cfg.c))
    real_n = realization(ctx, family_n(cfg.c))
    tabs = real_m.tableaux
    cells = [(real_m.labels[li], tabs[li][si], tabs[li][ti])
             for li, si, ti in real_m.cells]
    conj = {t: tableau_conjugate(t) for ts in tabs for t in ts}
    duals = [(conj[u], conj[v]) for _, u, v in cells]
    dominates = functools.cache(tableau_dominance_ge)
    # pairing(m, n) = tau(m . star(n)): each n-element is starred once, and
    # each checked value sums m's trace functional over star(n)'s terms
    starred = [star(elem) for elem in real_n.elements]
    bad = []
    for elem_m, (lam, s, t) in zip(real_m.elements, cells):
        # only the diagonal and the pairs below it are checked
        checks = []
        for j, (up, vp) in enumerate(duals):
            if (up, vp) == (s, t):
                checks.append((j, 1, "diagonal"))
            elif not (dominates(up, s) and dominates(vp, t)):
                checks.append((j, 0, "below-diagonal"))
        if not checks:
            continue
        phi = trace_functional(elem_m)
        for j, want, where in checks:
            val = Fraction(sum(c * phi.get(key, 0)
                               for key, c in starred[j].terms.items()))
            if val != want:
                bad.append((lam, cells[j][0], str(val), where))
    lines = [
        "FAIL pairing: " + json.dumps(
            {"lambda": mp_to_lists(lam), "mu": mp_to_lists(mu),
             "value": val, "where": where})
        for lam, mu, val, where in bad
    ]
    if not bad:
        lines.append(
            f"PASS pairing: {len(cells)}x{len(cells)} matrix is unitriangular "
            f"(c={list(cfg.c)})"
        )
    return not bad, lines


def suite_cellular(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    fams = [family_m(cfg.c), family_n(cfg.c),
            family_m_xi(cfg.xi), family_n_xi(cfg.xi)]
    lines = []
    ok = True
    for fam in fams:
        try:
            real = realization(ctx, fam)
        except SingularMatrixError as exc:
            ok = False
            lines.append(f"FAIL cellular: {fam.label()}: {exc}")
            continue
        for li, lam in enumerate(real.labels):
            tabs = real.tableaux[li]
            for si, s in enumerate(tabs):
                for ti, t in enumerate(tabs):
                    a = star(real.element(li, si, ti))
                    b = real.element(li, ti, si)
                    if a != b:
                        ok = False
                        lines.append(
                            "FAIL cellular: star symmetry broken at "
                            + json.dumps({"family": fam.label(),
                                          "lambda": mp_to_lists(lam),
                                          "s": si, "t": ti})
                        )
        if not _left_index_independent(ctx, real):
            ok = False
            lines.append(
                f"FAIL cellular: action coefficients depend on the left "
                f"index ({fam.label()})"
            )
    if ok:
        labels = ", ".join(f.label() for f in fams)
        lines.append(
            f"PASS cellular: change of basis invertible, star-symmetric, "
            f"left-index independent for {labels}"
        )
    return ok, lines


def _left_index_independent(ctx, real) -> bool:
    gens = [ctx.generator_s(i) for i in range(1, ctx.r)] + \
           [ctx.generator_x(k) for k in range(1, ctx.r + 1)]
    for li, tabs in enumerate(real.tableaux):
        for gen in gens:
            ref = real.action(li, 0, gen)
            if any(real.action(li, si, gen) != ref
                   for si in range(1, len(tabs))):
                return False
    return True


def suite_main1(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    lines = []
    ok = True
    crystal_labels = crystal_mod.nonzero_labels(cfg.omega, cfg.r)
    fam0 = family_m((0,) * cfg.ell)
    simples = {}
    for lam in enumerate_multipartitions(cfg.ell, cfg.r):
        simple = simple_of(ctx, fam0, lam)
        if simple is not None:
            simples[lam] = simple
    gram_labels = set(simples)
    if crystal_labels != gram_labels:
        ok = False
        lines.append("FAIL main1: " + json.dumps({
            "crystal_only": sorted(map(mp_to_lists, crystal_labels - gram_labels)),
            "gram_only": sorted(map(mp_to_lists, gram_labels - crystal_labels)),
        }))
    else:
        lines.append(
            f"PASS main1: crystal labels match Gram ranks "
            f"({len(gram_labels)} nonzero labels)"
        )
    c = cfg.c if any(cfg.c) else (1,) * cfg.ell
    fam_c = family_m(c)
    for lam in sorted(gram_labels):
        mu = eta(lam, c)
        simple_c = simple_of(ctx, fam_c, mu)
        d0 = simples[lam].dim
        dc = 0 if simple_c is None else simple_c.dim
        iw = intertwiner_dim(simples[lam], simple_c) \
            if simple_c is not None else 0
        if d0 != dc or iw != 1:
            ok = False
            lines.append("FAIL main1: " + json.dumps({
                "lambda": mp_to_lists(lam), "eta": mp_to_lists(mu),
                "dims": [d0, dc], "intertwiner": iw}))
    if ok:
        lines.append(
            f"PASS main1: untwisted simples match the eta-image simples "
            f"(c={list(c)}, intertwiner dimension 1 throughout)"
        )
    return ok, lines


def _not_applicable(name: str, cfg: JobConfig) -> str | None:
    """Why the suite ``name`` does not apply to the config, or None."""
    if name == "main2" and any(cfg.omega[i] < cfg.omega[i + 1]
                               for i in range(cfg.ell - 1)):
        return "omega must be weakly decreasing"
    return None


def suite_main2(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    xi = cfg.xi if cfg.xi != tuple(range(1, cfg.ell + 1)) \
        else tuple(range(cfg.ell, 0, -1))
    fam_xi, fam_1 = family_m_xi(xi), family_m_xi(tuple(range(1, cfg.ell + 1)))
    xctx = xi_context(cfg.omega, xi, size=cfg.r)
    lines = []
    ok = True
    certified = 0
    for lam in enumerate_multipartitions(cfg.ell, cfg.r):
        simple_xi = simple_of(ctx, fam_xi, lam)
        nz = simple_xi is not None
        try:
            standard = is_standard(A_of_lambda(lam, xctx), xctx)
        except ValueError:
            standard = False
        if nz != standard:
            ok = False
            lines.append("FAIL main2: " + json.dumps({
                "lambda": mp_to_lists(lam), "gram_nonzero": nz,
                "standard": standard}))
            continue
        if not nz:
            continue
        mu = mullineux_xi(lam, xctx)
        simple_1 = simple_of(ctx, fam_1, mu)
        iw = intertwiner_dim(simple_xi, simple_1) if simple_1 is not None else 0
        if iw != 1:
            ok = False
            lines.append("FAIL main2: " + json.dumps({
                "lambda": mp_to_lists(lam), "mapped": mp_to_lists(mu),
                "intertwiner": iw}))
        certified += 1
    if ok:
        lines.append(
            f"PASS main2: relabeling map certified on {certified} labels "
            f"(xi={list(xi)}, omega={list(cfg.omega)})"
        )
    return ok, lines


def suite_duality(cfg: JobConfig) -> tuple[bool, list[str]]:
    ctx = context_from_config(cfg)
    lines = []
    ok = True
    for c in _all_twists(cfg.ell):
        for lam in enumerate_multipartitions(cfg.ell, cfg.r):
            dual = contragredient(cell_module(ctx, family_m(c), lam))
            tilde = cell_module(ctx, family_n(c), conjugate(lam))
            iw = intertwiner_dim(dual, tilde)
            if iw < 1:
                ok = False
                lines.append("FAIL duality: " + json.dumps({
                    "lambda": mp_to_lists(lam), "c": list(c),
                    "intertwiner": iw}))
    if ok:
        lines.append(
            f"PASS duality: dual cell modules match the opposite family at "
            f"the dual label for all twists (ell={cfg.ell}, r={cfg.r})"
        )
    return ok, lines


_SUITE_FNS = {
    "relations": suite_relations,
    "trace": suite_trace,
    "pairing": suite_pairing,
    "cellular": suite_cellular,
    "main1": suite_main1,
    "main2": suite_main2,
    "duality": suite_duality,
}


def cmd_verify(cfg: JobConfig, suites: list[str]) -> tuple[bytes, int]:
    run_all = "all" in suites
    names = list(SUITES) if run_all else suites
    reasons = {name: _not_applicable(name, cfg) for name in names}
    if not run_all:
        # a suite named explicitly on a config it does not apply to is a
        # usage error, reported before any suite runs
        for name, reason in reasons.items():
            if reason:
                raise ValueError(f"verify {name}: {reason} "
                                 f"(suite not applicable)")
    if any(name in REALIZING_SUITES and not reasons[name] for name in names):
        # refused before any suite runs, not after the cheap ones
        check_realization_size(cfg.ell, cfg.r)
    out_lines = []
    all_ok = True
    for name in names:
        if reasons[name]:
            print(f"skipping suite {name}: {reasons[name]}", file=sys.stderr)
            out_lines.append(
                f"SKIP {name}: {reasons[name]} (suite not applicable)")
            continue
        print(f"running suite {name} ...", end="", file=sys.stderr,
              flush=True)
        start = time.perf_counter()
        try:
            ok, lines = _SUITE_FNS[name](cfg)
        finally:
            print(f" {time.perf_counter() - start:.2f} s", file=sys.stderr)
        out_lines.extend(lines)
        all_ok = all_ok and ok
    return ("\n".join(out_lines) + "\n").encode("utf-8"), 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, xi_given = resolve_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code = 0
        if args.verb == "list":
            data = cmd_list(cfg)
        elif args.verb == "check-basis":
            data, code = cmd_check_basis(cfg)
        elif args.verb == "gram":
            data = cmd_gram(cfg, args.lam)
        elif args.verb == "simples":
            data = cmd_simples(cfg)
        elif args.verb == "blocks":
            data = cmd_blocks(cfg)
        elif args.verb == "crystal":
            data = cmd_crystal(cfg, args.depth)
        elif args.verb == "mullineux":
            data = cmd_mullineux(cfg, args.lam, xi_given)
        elif args.verb == "match":
            data = cmd_match(cfg, args.familyA, args.familyB)
        elif args.verb == "verify":
            data, code = cmd_verify(cfg, args.suites)
        else:  # pragma: no cover
            parser.error(f"unknown verb {args.verb}")
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
