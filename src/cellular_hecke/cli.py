"""
Command-line driver.

Machine-readable output (JSON-lines, CSV or DOT) goes to stdout; progress
notes go to stderr. Exit codes: 0 success, 1 verification failure, 2 usage
error. Output bytes are deterministic for a fixed config.

Each ``suite_*`` returns only its stdout lines, and ``cmd_verify`` reads the
verdict from them: ``verify`` exits 1 exactly when a line starts with
``FAIL ``. A cellular family that does not span is a ``FAIL`` line of each
suite that meets it, and a suite named twice runs once.

Each verb is bound once, in ``build_parser``, to its handler, to the size
check it must pass before any algebra context is built, and to whether it
writes rows; ``main`` resolves the config, runs that check, refuses a graph
format for rows and dispatches.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import crystal as crystal_mod
from .algebra import (
    AlgebraContext,
    check_normal_form_size,
    defining_relations,
    right_translate,
    star,
    trace_functional,
    trace_of_product,
    verify_basis,
)
from .cellular import (
    TOP,
    BasisFamily,
    cell_module,
    cell_seed,
    check_label,
    check_realization_size,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    intertwiner_dim,
    realization,
    simples_table,
)
from .combinatorics import (
    conjugate,
    count_standard_tableaux,
    dominance_ge,
    enumerate_multipartitions,
    perm_inverse,
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
    FAMILIES,
    FIELDS,
    FORMATS,
    ConfigError,
    JobConfig,
    check_tabular,
    emit,
    emit_dot,
    mp_from_lists,
    mp_to_lists,
    parse_config,
)

# the suites that build a cellular realization, so meet its lower size limit
REALIZING_SUITES = ("pairing", "cellular", "main1", "main2", "duality")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _join_list_values(argv: list[str]) -> list[str]:
    """
    ``--omega -1,0`` as ``--omega=-1,0``: argparse takes ``-1,0`` for a flag.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--omega", "--c", "--xi") and (
                tok[:1] == "-" and tok[1:2].isdecimal()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


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
    common.add_argument("--family", choices=FAMILIES, help="cellular family")
    common.add_argument("--format", choices=FORMATS, help="output format")
    common.add_argument("--config", metavar="FILE", help="JSON config file")

    sub = parser.add_subparsers(dest="verb", required=True)

    # each verb's handler, the size check it must pass before any context
    # is built (verify checks by the suites it runs), and whether it writes
    # rows, so refuses a graph format before any work
    def verb(name, run, limit, tabular=True, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=run, limit=limit, tabular=tabular)
        return p

    verb("list", cmd_list, None, help="labels and tableau counts")
    verb("check-basis", cmd_check_basis, check_normal_form_size,
         help="normal-form basis and relation check")
    p = verb("gram", cmd_gram, check_realization_size,
             help="Gram matrix of a label")
    p.add_argument("--lambda", dest="lam", required=True,
                   metavar="[[2],[1]]", help="label as JSON")
    verb("simples", cmd_simples, check_realization_size,
         help="cell/simple dimensions and blocks per label")
    verb("blocks", cmd_blocks, check_realization_size,
         help="partition of the labels into blocks")
    p = verb("crystal", cmd_crystal, None, tabular=False,
             help="component of the empty label")
    p.add_argument("--depth", type=int, help="number of boxes (default r)")
    p = verb("mullineux", cmd_mullineux, None,
             help="label correspondence maps")
    p.add_argument("--lambda", dest="lam", required=True,
                   metavar="[[2],[1]]", help="label as JSON")
    p = verb("match", cmd_match, check_realization_size,
             help="intertwiner-certified label bijection")
    p.add_argument("--familyA", required=True, choices=FAMILIES)
    p.add_argument("--familyB", required=True, choices=FAMILIES)
    p = verb("verify", cmd_verify, None, tabular=False,
             help="named verification suites")
    p.add_argument("suites", nargs="+", choices=list(SUITES) + ["all"])
    return parser


def resolve_config(args) -> JobConfig:
    """
    Defaults, then config file, then explicit flags. The fields the file
    sets fill the flags left unset, so ``args.xi is not None`` says whether
    xi was given by either: ``mullineux`` picks its map by it.
    """
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("INVALID_JSON", "$", "not UTF-8 text") from exc
        parse_config(text)
        # only the fields the file sets: its defaults must not count as given
        for key, value in json.loads(text).items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    merged: dict = {"ell": 2, "r": 2}
    merged.update((key, getattr(args, key)) for key in FIELDS
                  if getattr(args, key) is not None)
    # without an explicit omega the parameters default to 0..ell-1
    merged.setdefault("omega", list(range(merged["ell"])))
    return parse_config(json.dumps(merged))


def family_from_config(cfg: JobConfig, name: str | None = None) -> BasisFamily:
    kind = name or cfg.family
    if kind in ("m", "n"):
        return BasisFamily(kind, c=cfg.c)
    return BasisFamily(kind, xi=cfg.xi)


def context_from_config(cfg: JobConfig) -> AlgebraContext:
    return AlgebraContext(cfg.ell, cfg.r, cfg.omega)


# ---------------------------------------------------------------------------
# verbs: each takes (cfg, args) and returns (stdout bytes, exit code), and
# runs after the size check it is bound to in build_parser


def cmd_list(cfg: JobConfig, args) -> tuple[bytes, int]:
    rows = [
        {"lambda": mp_to_lists(lam), "std": count_standard_tableaux(lam)}
        for lam in enumerate_multipartitions(cfg.ell, cfg.r)
    ]
    return emit(rows, cfg.format, fieldnames=["lambda", "std"]), 0


def cmd_check_basis(cfg: JobConfig, args) -> tuple[bytes, int]:
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
    return emit([row], cfg.format, fieldnames=[
        "basis_ok", "dimension", "ok", "relations_ok"]), 0 if ok else 1


def cmd_gram(cfg: JobConfig, args) -> tuple[bytes, int]:
    fam = family_from_config(cfg)
    lam = mp_from_lists(json.loads(args.lam))
    check_label(cfg.ell, cfg.r, lam)
    module = cell_module(context_from_config(cfg), fam, lam)
    rows = [
        {"lambda": mp_to_lists(lam), "family": fam.label(), "i": i,
         "row": [str(x) for x in module.gram[i]]}
        for i in range(module.dim)
    ]
    return emit(rows, cfg.format,
                fieldnames=["lambda", "family", "i", "row"]), 0


def cmd_simples(cfg: JobConfig, args) -> tuple[bytes, int]:
    rows = simples_table(context_from_config(cfg), family_from_config(cfg))
    return emit(rows, cfg.format, fieldnames=[
        "lambda", "family", "dim_cell", "dim_simple", "block"]), 0


def cmd_blocks(cfg: JobConfig, args) -> tuple[bytes, int]:
    by_alpha: dict[tuple, list] = {}
    for row in simples_table(context_from_config(cfg), family_from_config(cfg)):
        by_alpha.setdefault(tuple(row["block"]), []).append(row["lambda"])
    rows = [
        {"block": list(alpha), "lambdas": by_alpha[alpha]}
        for alpha in sorted(by_alpha)
    ]
    return emit(rows, cfg.format, fieldnames=["block", "lambdas"]), 0


def cmd_crystal(cfg: JobConfig, args) -> tuple[bytes, int]:
    depth = cfg.r if args.depth is None else args.depth
    if depth < 0:
        raise ValueError(f"--depth must be >= 0, got {depth}")
    seen = crystal_mod.component_of_empty(cfg.omega, depth)
    ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    ids = {lam: i for i, (lam, _) in enumerate(ordered)}
    edges = sorted(
        (ids[src], str(j), ids[dst])
        for src, j, dst in crystal_mod.crystal_edges(seen, cfg.omega)
    )
    if cfg.format == "dot":
        labels = [json.dumps(mp_to_lists(lam), separators=(",", ":"))
                  for lam, _ in ordered]
        return emit_dot(labels, edges), 0
    rows = [
        {"node": i, "depth": d, "gamma": mp_to_lists(lam)}
        for i, (lam, d) in enumerate(ordered)
    ]
    rows += [
        {"edge": [src, dst], "color": int(color)} for src, color, dst in edges
    ]
    return emit(rows, cfg.format,
                fieldnames=["node", "depth", "gamma", "edge", "color"]), 0


def cmd_mullineux(cfg: JobConfig, args) -> tuple[bytes, int]:
    lam = mp_from_lists(json.loads(args.lam))
    if len(lam) != cfg.ell:
        raise ValueError(f"lambda {mp_to_lists(lam)} needs ell={cfg.ell} "
                         f"components, got {len(lam)}")
    if args.xi is not None:
        ctx = xi_context(cfg.omega, cfg.xi, size=max(sum(map(sum, lam)), 1))
        out = mullineux_xi(lam, ctx)
    else:
        out = generalized_mullineux(lam, cfg.omega)
    row = {
        "from": mp_to_lists(lam),
        "to": None if out is None else mp_to_lists(out),
    }
    return emit([row], cfg.format, fieldnames=["from", "to"]), 0


def cmd_match(cfg: JobConfig, args) -> tuple[bytes, int]:
    table = match_simples(context_from_config(cfg),
                          family_from_config(cfg, args.familyA),
                          family_from_config(cfg, args.familyB))
    rows = [
        {"from": mp_to_lists(a), "to": mp_to_lists(b), "certified": True}
        for a, b in sorted(table)
    ]
    return emit(rows, cfg.format, fieldnames=["from", "to", "certified"]), 0


# ---------------------------------------------------------------------------
# verification suites


def _failed(lines: list[str]) -> bool:
    return any(line.startswith("FAIL ") for line in lines)


def _all_twists(ell: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(2 ** ell):
        out.append(tuple((mask >> i) & 1 for i in range(ell)))
    return out


def suite_relations(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    lines = [f"FAIL relations: {name} does not normalize to 0"
             for name, el in defining_relations(ctx) if not el.is_zero()]
    if not verify_basis(ctx):
        lines.append("FAIL relations: normal-form basis check failed")
    if not lines:
        lines.append(
            f"PASS relations: all defining relations normalize to 0 and the "
            f"{ctx.dimension()}-element basis closes (ell={cfg.ell}, r={cfg.r})"
        )
    return lines


def suite_trace(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    lines = []
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
        lines.extend(
            "FAIL trace: " + json.dumps({"lambda": mp_to_lists(lam),
                                         "c": list(c), "value": str(val)})
            for c, val in bad)
        if not bad:
            lines.append(
                f"PASS trace: tau(z w^-1) = 1 at lambda="
                + json.dumps(mp_to_lists(lam), separators=(",", ":"))
                + f" for all {len(twists)} twists"
            )
    if not _failed(lines):
        lines.append(
            f"PASS trace: every label verified "
            f"(ell={cfg.ell}, r={cfg.r}, omega={list(cfg.omega)})"
        )
    return lines


def suite_pairing(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    real_m = realization(ctx, family_m(cfg.c))
    real_n = realization(ctx, family_n(cfg.c))
    tabs = real_m.tableaux
    cells = [(real_m.labels[li], tabs[li][si], tabs[li][ti])
             for li, si, ti in real_m.cells]
    conj = {t: tableau_conjugate(t) for ts in tabs for t in ts}
    # conjugation is an involution that permutes the cells: the diagonal
    # entry of m_i is at the n-element of its tableaux' conjugates
    position = {(u, v): j for j, (_, u, v) in enumerate(cells)}
    # row i of P[i][j] = tau(m_i . star(n_j)) walks m_i's trace functional
    # through one index key -> [(j, c)] of the starred n-elements
    index = {}
    for j, elem in enumerate(real_n.elements):
        for key, c in star(elem).terms.items():
            index.setdefault(key, []).append((j, c))
    bad = []
    for elem_m, (lam, s, t) in zip(real_m.elements, cells):
        diagonal = position[(conj[s], conj[t])]
        row = {diagonal: 0}
        for key, f in trace_functional(elem_m).items():
            for j, c in index.get(key, ()):
                row[j] = row.get(j, 0) + f * c
        # a pair below the diagonal must be 0, so only a nonzero one is tested
        for j in sorted(row):
            mu, u, v = cells[j]
            if j == diagonal:
                if row[j] != 1:
                    bad.append((lam, mu, str(row[j]), "diagonal"))
            elif row[j] and not (tableau_dominance_ge(conj[u], s)
                                 and tableau_dominance_ge(conj[v], t)):
                bad.append((lam, mu, str(row[j]), "below-diagonal"))
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
    return lines


def suite_cellular(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    fams = [family_from_config(cfg, kind) for kind in FAMILIES]
    lines = []
    for fam in fams:
        real = realization(ctx, fam)
        for li, lam in enumerate(real.labels):
            tabs = real.tableaux[li]
            for si, s in enumerate(tabs):
                for ti, t in enumerate(tabs):
                    a = star(real.element(li, si, ti))
                    b = real.element(li, ti, si)
                    if a != b:
                        lines.append(
                            "FAIL cellular: star symmetry broken at "
                            + json.dumps({"family": fam.label(),
                                          "lambda": mp_to_lists(lam),
                                          "s": si, "t": ti})
                        )
        if bad := _axiom_violation(ctx, real):
            lines.append("FAIL cellular: " + json.dumps(bad))
    if not lines:
        labels = ", ".join(f.label() for f in fams)
        lines.append(
            f"PASS cellular: change of basis invertible, star-symmetric, "
            f"left-index independent for {labels}"
        )
    return lines


def _axiom_violation(ctx, real) -> dict | None:
    """
    The first label lambda, generator g and tableau t whose top-row product
    m_{top,t} . g has a term at a label not strictly above lambda, or a
    same-label term off the top left index or unlike row t of g's matrix in
    the cell module; None if there is none.

    That proves the axiom at every left index, by downward induction on
    dominance: if H^{>=nu} . g lies in H^{>=nu} for each nu > lambda, then
    H^{>lambda} is a right ideal, and star fixes it (star(m_{s,t}) = m_{t,s},
    checked above), so it is two-sided. As m_{s,t} = d(s)^-1 . m_{top,t},
    m_{s,t} . g then lies in sum_u rho(g)_{tu} m_{s,u} + H^{>lambda}.
    """
    for li, lam in enumerate(real.labels):
        actions = cell_module(ctx, real.family, lam).actions
        higher = [mu != lam and dominance_ge(mu, lam) for mu in real.labels]
        tops = [real.cell_index[(li, TOP, u)]
                for u in range(len(real.tableaux[li]))]
        for g, rho in enumerate(actions):
            for t, h in enumerate(real.products(li, g)):
                coords = real.coordinates(h)
                cells = [real.cells[col] for col in coords]
                if any(mu != li and not higher[mu] for mu, _, _ in cells):
                    where = "lower label"
                elif any(mu == li and left != TOP for mu, left, _ in cells):
                    where = "left index"
                elif [coords.get(col, 0) for col in tops] != rho[t]:
                    where = "cell module"
                else:
                    continue
                return {"family": real.family.label(),
                        "lambda": mp_to_lists(lam), "generator": g, "t": t,
                        "where": where}
    return None


def suite_main1(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    lines = []
    crystal_labels = crystal_mod.nonzero_labels(cfg.omega, cfg.r)
    fam0 = family_m((0,) * cfg.ell)
    simples = {}
    for lam in enumerate_multipartitions(cfg.ell, cfg.r):
        simple = cell_module(ctx, fam0, lam).simple
        if simple is not None:
            simples[lam] = simple
    gram_labels = set(simples)
    if crystal_labels != gram_labels:
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
        simple_c = cell_module(ctx, fam_c, mu).simple
        d0 = simples[lam].dim
        dc = 0 if simple_c is None else simple_c.dim
        iw = intertwiner_dim(simples[lam], simple_c) \
            if simple_c is not None else 0
        if d0 != dc or iw != 1:
            lines.append("FAIL main1: " + json.dumps({
                "lambda": mp_to_lists(lam), "eta": mp_to_lists(mu),
                "dims": [d0, dc], "intertwiner": iw}))
    if not _failed(lines):
        lines.append(
            f"PASS main1: untwisted simples match the eta-image simples "
            f"(c={list(c)}, intertwiner dimension 1 throughout)"
        )
    return lines


def _not_applicable(name: str, cfg: JobConfig) -> str | None:
    """Why the suite ``name`` does not apply to the config, or None."""
    if name == "main2" and any(cfg.omega[i] < cfg.omega[i + 1]
                               for i in range(cfg.ell - 1)):
        return "omega must be weakly decreasing"
    return None


def suite_main2(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    xi = cfg.xi if cfg.xi != tuple(range(1, cfg.ell + 1)) \
        else tuple(range(cfg.ell, 0, -1))
    # m[0,...,0] has the seeds of m_xi at xi = identity; main1 realizes it
    fam_xi, fam_1 = family_m_xi(xi), family_m((0,) * cfg.ell)
    xctx = xi_context(cfg.omega, xi, size=cfg.r)
    lines = []
    certified = 0
    for lam in enumerate_multipartitions(cfg.ell, cfg.r):
        simple_xi = cell_module(ctx, fam_xi, lam).simple
        nz = simple_xi is not None
        try:
            standard = is_standard(A_of_lambda(lam, xctx), xctx)
        except ValueError:
            standard = False
        if nz != standard:
            lines.append("FAIL main2: " + json.dumps({
                "lambda": mp_to_lists(lam), "gram_nonzero": nz,
                "standard": standard}))
            continue
        if not nz:
            continue
        mu = mullineux_xi(lam, xctx)
        simple_1 = cell_module(ctx, fam_1, mu).simple
        iw = intertwiner_dim(simple_xi, simple_1) if simple_1 is not None else 0
        if iw != 1:
            lines.append("FAIL main2: " + json.dumps({
                "lambda": mp_to_lists(lam), "mapped": mp_to_lists(mu),
                "intertwiner": iw}))
        certified += 1
    if not lines:
        lines.append(
            f"PASS main2: relabeling map certified on {certified} labels "
            f"(xi={list(xi)}, omega={list(cfg.omega)})"
        )
    return lines


def suite_duality(cfg: JobConfig, ctx: AlgebraContext) -> list[str]:
    lines = []
    for c in _all_twists(cfg.ell):
        for lam in enumerate_multipartitions(cfg.ell, cfg.r):
            dual = contragredient(cell_module(ctx, family_m(c), lam))
            tilde = cell_module(ctx, family_n(c), conjugate(lam))
            iw = intertwiner_dim(dual, tilde)
            if iw < 1:
                lines.append("FAIL duality: " + json.dumps({
                    "lambda": mp_to_lists(lam), "c": list(c),
                    "intertwiner": iw}))
    if not lines:
        lines.append(
            f"PASS duality: dual cell modules match the opposite family at "
            f"the dual label for all twists (ell={cfg.ell}, r={cfg.r})"
        )
    return lines


_SUITE_FNS = {
    "relations": suite_relations,
    "trace": suite_trace,
    "pairing": suite_pairing,
    "cellular": suite_cellular,
    "main1": suite_main1,
    "main2": suite_main2,
    "duality": suite_duality,
}
SUITES = tuple(_SUITE_FNS)


def cmd_verify(cfg: JobConfig, args) -> tuple[bytes, int]:
    run_all = "all" in args.suites
    # one entry per suite, in the order first named: named twice, it runs once
    reasons = {name: _not_applicable(name, cfg)
               for name in (SUITES if run_all else args.suites)}
    if not run_all:
        # a suite named explicitly on a config it does not apply to is a
        # usage error, reported before any suite runs
        for name, reason in reasons.items():
            if reason:
                raise ValueError(f"verify {name}: {reason} "
                                 f"(suite not applicable)")
    if any(name in REALIZING_SUITES and not reason
           for name, reason in reasons.items()):
        # refused before any suite runs, not after the cheap ones
        check_realization_size(cfg.ell, cfg.r)
    # every suite shares the context; refused before it is built
    check_normal_form_size(cfg.ell, cfg.r)
    ctx = context_from_config(cfg)
    out_lines = []
    for name, reason in reasons.items():
        if reason:
            print(f"skipping suite {name}: {reason}", file=sys.stderr)
            out_lines.append(f"SKIP {name}: {reason} (suite not applicable)")
            continue
        print(f"running suite {name} ...", end="", file=sys.stderr,
              flush=True)
        start = time.perf_counter()
        try:
            lines = _SUITE_FNS[name](cfg, ctx)
        except SingularMatrixError as exc:
            # a family that does not span fails the suite that meets it;
            # it is not cached, so each later suite that needs it fails too
            lines = [f"FAIL {name}: {exc}"]
        finally:
            print(f" {time.perf_counter() - start:.2f} s", file=sys.stderr)
        out_lines.extend(lines)
    return (("\n".join(out_lines) + "\n").encode("utf-8"),
            1 if _failed(out_lines) else 0)


def main(argv: list[str] | None = None) -> int:
    argv = _join_list_values(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.limit is not None:
            args.limit(cfg.ell, cfg.r)
        if args.tabular:
            check_tabular(cfg.format)
        data, code = args.run(cfg, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
