import copy
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cellular_hecke import algebra, cellular, cli
from cellular_hecke.cli import main
from cellular_hecke.combinatorics import (
    conjugate,
    tableau_conjugate,
    tableau_dominance_ge,
)
from cellular_hecke.linalg import SingularMatrixError
from cellular_hecke.serialization import mp_to_lists, parse_config
import reference_algebra
from reference_serialization import parse_jsonl


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list", "--ell", "2", "--r", "2",
                        "--omega", "0,1")
    assert code == 0
    rows = parse_jsonl(out.encode())
    assert {"lambda": [[1], [1]], "std": 2} in rows
    assert len(rows) == 5


def test_check_basis(capsys):
    code, out = run_cli(capsys, "check-basis", "--ell", "2", "--r", "2",
                        "--omega", "0,1")
    assert code == 0
    row = parse_jsonl(out.encode())[0]
    assert row["ok"] and row["dimension"] == 8


def test_gram(capsys):
    code, out = run_cli(capsys, "gram", "--ell", "1", "--r", "2",
                        "--omega", "0", "--lambda", "[[2]]")
    assert code == 0
    assert parse_jsonl(out.encode())[0]["row"] == ["2"]


def test_simples_csv(capsys):
    code, out = run_cli(capsys, "simples", "--ell", "2", "--r", "1",
                        "--omega", "0,0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,family,dim_cell,dim_simple,block"
    assert len(lines) == 3


def test_blocks(capsys):
    code, out = run_cli(capsys, "blocks", "--ell", "2", "--r", "2",
                        "--omega", "0,1")
    assert code == 0
    rows = parse_jsonl(out.encode())
    merged = next(r for r in rows if r["block"] == [0, 1])
    assert [[2], []] in merged["lambdas"] and [[1], [1]] in merged["lambdas"]


def test_crystal_dot(capsys):
    code, out = run_cli(capsys, "crystal", "--ell", "2", "--r", "1",
                        "--omega", "0,1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '[label="[[],[]]"]' in out


def test_crystal_csv(capsys):
    code, out = run_cli(capsys, "crystal", "--ell", "2", "--r", "1",
                        "--omega", "0,1", "--format", "csv")
    assert code == 0
    assert out == ('node,depth,gamma,edge,color\n'
                   '0,0,"[[],[]]",,\n'
                   '1,1,"[[],[1]]",,\n'
                   '2,1,"[[1],[]]",,\n'
                   ',,,"[0,2]",0\n'
                   ',,,"[0,1]",1\n')


def test_mullineux_three_component_example(capsys):
    code, out = run_cli(capsys, "mullineux", "--ell", "3", "--r", "7",
                        "--omega", "3,2,2", "--xi", "2,1,3",
                        "--lambda", "[[1],[1,1],[1]]")
    assert code == 0
    assert parse_jsonl(out.encode())[0]["to"] == [[1, 1], [1], [1]]


def test_mullineux_generalized(capsys):
    code, out = run_cli(capsys, "mullineux", "--ell", "2", "--r", "1",
                        "--omega", "1,0", "--lambda", "[[1],[]]")
    assert code == 0
    assert parse_jsonl(out.encode())[0]["to"] == [[], [1]]


def test_match(capsys):
    code, out = run_cli(capsys, "match", "--ell", "2", "--r", "1",
                        "--omega", "1,0", "--familyA", "m", "--familyB", "n")
    assert code == 0
    rows = parse_jsonl(out.encode())
    assert all(r["certified"] for r in rows)
    assert len(rows) == 2


def test_verify_pass(capsys):
    code, out = run_cli(capsys, "verify", "relations", "trace",
                        "--ell", "2", "--r", "2", "--omega", "0,1")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS relations") == 1
    # the trace suite cites each label, plus a summary line
    assert out.count("PASS trace") == 6


def test_verify_counterexample_on_failure(capsys):
    # main2 requires weakly decreasing parameters; named explicitly on
    # increasing ones this is a usage-level failure: exit 2, nothing on
    # stdout, the suite and the reason on stderr
    assert main(["verify", "main2", "--ell", "2", "--r", "1",
                 "--omega", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: verify main2: omega must be weakly "
                            "decreasing (suite not applicable)\n")


def test_verify_precondition_checked_before_any_suite(capsys):
    assert main(["verify", "relations", "main2", "--ell", "2", "--r", "1",
                 "--omega", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "running suite" not in captured.err


def test_verify_all_skips_main2_on_increasing_omega(capsys):
    code, out = run_cli(capsys, "verify", "all", "--ell", "2", "--r", "2",
                        "--omega", "0,1", "--c", "0,1", "--xi", "2,1")
    assert code == 0
    assert "FAIL" not in out
    skips = [line for line in out.splitlines() if line.startswith("SKIP")]
    assert skips == ["SKIP main2: omega must be weakly decreasing "
                     "(suite not applicable)"]


def test_verify_main1_reports_a_label_the_crystal_misses(monkeypatch,
                                                          capsys):
    nonzero_labels = cli.crystal_mod.nonzero_labels
    monkeypatch.setattr(cli.crystal_mod, "nonzero_labels",
                        lambda omega, r: nonzero_labels(omega, r)
                        - {((3,), ())})
    code, out = run_cli(capsys, "verify", "main1", "--ell", "2", "--r", "3",
                        "--omega", "1,0")
    assert code == 1
    assert out.splitlines() == [
        'FAIL main1: {"crystal_only": [], "gram_only": [[[3], []]]}']


def test_verify_main1_main2_report_each_missing_intertwiner(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(cli, "intertwiner_dim", lambda a, b: 0)
    code, out = run_cli(capsys, "verify", "main1", "main2", "--ell", "2",
                        "--r", "3", "--omega", "1,0")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("PASS main1: crystal labels match Gram ranks "
                        "(8 nonzero labels)")
    fails = [(line.split(": ", 1)[0], json.loads(line.split(": ", 1)[1]))
             for line in lines[1:]]
    assert [name for name, _ in fails] == ["FAIL main1"] * 8 \
        + ["FAIL main2"] * 8
    assert all(row["intertwiner"] == 0 for _, row in fails)
    # the dimensions agree: only the intertwiner fails
    assert all(row["dims"][0] == row["dims"][1]
               for name, row in fails if name == "FAIL main1")


def test_verify_stderr_notes_elapsed(capsys):
    assert main(["verify", "relations", "--ell", "1", "--r", "2",
                 "--omega", "0"]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"running suite relations \.\.\. \d+\.\d\d s\n", err)


def test_verify_suite_named_twice_runs_once(capsys):
    argv = ["--ell", "2", "--r", "2", "--omega", "0,1"]
    code, out = run_cli(capsys, "verify", "relations", "relations", *argv)
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] \
        == ["PASS relations"]
    # in the order first named
    code, out = run_cli(capsys, "verify", "trace", "relations", "trace",
                        *argv)
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] \
        == ["PASS trace"] * 6 + ["PASS relations"]


def test_module_entry_point_matches_main(capsysbinary):
    # the form the benchmark spawns: python -m cellular_hecke.cli
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    config = ["--ell", "2", "--r", "2", "--omega", "0,1"]

    def spawn(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cellular_hecke.cli", *argv, *config],
            capture_output=True, env=env, timeout=120, check=False)

    proc = spawn("verify", "relations")
    assert proc.returncode == 0
    assert main(["verify", "relations", *config]) == 0
    assert proc.stdout == capsysbinary.readouterr().out
    proc = spawn("verify", "main2")
    assert proc.returncode == 2
    assert proc.stdout == b""


# sha256 of stdout for the verbs that read a family's simples; they pin the
# output bytes while the code behind those verbs changes.
GOLDEN = [
    pytest.param(
        ("simples", "--ell", "2", "--r", "3", "--omega", "0,1"), 0,
        "45bb693c36d1e0a3d7e5de46ace1640e2ea6d9dd8c375fc172ea09145e230b19",
        id="simples"),
    pytest.param(
        ("simples", "--ell", "2", "--r", "3", "--omega", "0,1",
         "--format", "csv"), 0,
        "3c68ed467658e365b05b021d83bae82baa0f37170306e4a1ea851dca57b7b818",
        id="simples-csv"),
    pytest.param(
        ("blocks", "--ell", "2", "--r", "3", "--omega", "0,1"), 0,
        "a48fb671d38e34a2657873edaad4f6f21b2c654db8342b4ac1663dab39b36f42",
        id="blocks"),
    pytest.param(
        ("match", "--ell", "2", "--r", "2", "--omega", "1,0",
         "--familyA", "m", "--familyB", "n"), 0,
        "7a2ae08c1defbd874848b8f4beec9c3236f00a39f0fad65e4edd121dd7db0819",
        id="match"),
    pytest.param(
        ("verify", "main1", "main2", "--ell", "2", "--r", "2",
         "--omega", "1,0", "--c", "0,1", "--xi", "2,1"), 0,
        "0a992555cfc3e0b5aad41e64748a3653307bee4cfc4dbb4fa2ba2fbaea9d627c",
        id="verify-main1-main2"),
    pytest.param(
        ("simples", "--ell", "3", "--r", "2", "--omega", "2,0,1",
         "--family", "n", "--c", "0,1,1"), 0,
        "6df5f3e6444abc779c733f61cb41d32fcf17843504c29ae8feba4def9803e712",
        id="simples-e3-n"),
    pytest.param(
        ("simples", "--ell", "3", "--r", "2", "--omega", "2,1,0",
         "--family", "nxi", "--xi", "3,1,2"), 0,
        "464d5b614194c5818da26dbe018dcf858a97a8ae40b02db77061452aaafc49c1",
        id="simples-e3-nxi"),
    pytest.param(
        ("gram", "--ell", "3", "--r", "2", "--omega", "0,1,2",
         "--family", "n", "--c", "1,0,1", "--lambda", "[[1],[],[1]]"), 0,
        "5d807ca235aeeec33c41830a61f3f891ca4adce1c0044f7ce4886f912e641e14",
        id="gram-e3-n"),
    pytest.param(
        ("verify", "cellular", "--ell", "3", "--r", "2", "--omega", "2,1,0",
         "--c", "0,1,0", "--xi", "2,3,1"), 0,
        "a13a2a15f8d02870297c2b30a43f987d134b20a8b7f4514b77b53452abe1252d",
        id="verify-cellular-e3"),
    pytest.param(
        ("verify", "main1", "--ell", "3", "--r", "3", "--omega", "2,1,0",
         "--c", "0,1,0"), 0,
        "cbd5d98f893f5f9e31f7ca3771228b8068b8154db70bddb3e10546253af411f9",
        id="verify-main1-e3r3"),
    pytest.param(
        ("verify", "pairing", "duality", "--ell", "3", "--r", "2",
         "--omega", "0,1,2", "--c", "1,0,1"), 0,
        "5bc8f39268f7d3eea3d1c44bbd378f47aadac7445cf785ebfe00f68dfc67f1b5",
        id="verify-pairing-duality-e3"),
    pytest.param(
        ("verify", "relations", "trace", "--ell", "2", "--r", "4",
         "--omega", "1,0", "--c", "0,1"), 0,
        "239bfe509e0ec6782ec26b937322a8719851974f7e52f048ccf4af28050269dc",
        id="verify-relations-trace-e2r4"),
    # the algebra-e2r5 invocation of bench/run.py, same digest
    pytest.param(
        ("verify", "relations", "trace", "--ell", "2", "--r", "5",
         "--omega", "1,0", "--c", "0,1"), 0,
        "0792d02e5c4392731e2879675f157e92b147cc7f6dc607f359c1caa2385f3980",
        id="verify-relations-trace-e2r5"),
    # the trace at ell >= 3, where x_j^ell reduction meets the top x-degree
    pytest.param(
        ("verify", "trace", "--ell", "3", "--r", "3", "--omega", "0,1,2",
         "--c", "0,1,1"), 0,
        "50c7be976192bfcd8f1e568ae1447e6e9b55d89e344e3c1a7193b9bdd7395451",
        id="verify-trace-e3r3"),
    pytest.param(
        ("verify", "trace", "--ell", "4", "--r", "3", "--omega", "3,2,1,0",
         "--c", "0,1,0,1"), 0,
        "8a4f8a32c4fdb850f43b7e14f612d39a6258135b6a1f30acf50a77da14e1a731",
        id="verify-trace-e4r3"),
    pytest.param(
        ("gram", "--ell", "2", "--r", "4", "--omega", "0,1", "--family", "m",
         "--lambda", "[[2,1],[1]]"), 0,
        "d2db4464f92e8c272d8e41744eea2d1b78f56705dcf9460deb59f7ade27af463",
        id="gram-e2r4-m"),
    # the two referee-e2r3 invocations of bench/run.py, same digests
    pytest.param(
        ("verify", "all", "--ell", "2", "--r", "3", "--omega", "1,0",
         "--c", "0,1", "--xi", "2,1"), 0,
        "8d77473728062a5580ca8cb56387139a4c53a98dbfe22fdae71918a57187ea2f",
        id="verify-all-e2r3"),
    pytest.param(
        ("match", "--ell", "2", "--r", "3", "--omega", "1,0",
         "--familyA", "m", "--familyB", "n"), 0,
        "5942a5e388a853e56dcad7a2e3307dcebbebe1d6c5a9db019bb89c855e7e1968",
        id="match-e2r3"),
    pytest.param(
        ("crystal", "--ell", "2", "--r", "2", "--omega", "0,1"), 0,
        "994b853a5c1b702e19ea656663afee2fad07bc3ff3305fd0f5884d2ca8255fc1",
        id="crystal"),
    # Gram forms of a twisted family and of a permuted-parameter family
    pytest.param(
        ("gram", "--ell", "2", "--r", "3", "--omega", "0,1", "--family", "m",
         "--c", "1,0", "--lambda", "[[2],[1]]"), 0,
        "02590fccc3f7e77e1e72a8a6a363acb2595d51f65e19f01f1274ffd9844e0362",
        id="gram-e2r3-m-c10"),
    pytest.param(
        ("gram", "--ell", "2", "--r", "3", "--omega", "0,1", "--xi", "2,1",
         "--family", "nxi", "--lambda", "[[2],[1]]"), 0,
        "cce1fccf5a815edd9d88fc51dfe62101282e29b9ee7a63ca8b1c998f9ffc0839",
        id="gram-e2r3-nxi"),
    # Gram entries rendered as strings in CSV, negative ones included
    pytest.param(
        ("gram", "--ell", "2", "--r", "4", "--omega", "0,1", "--family", "n",
         "--c", "1,0", "--lambda", "[[2],[1,1]]", "--format", "csv"), 0,
        "c78a5e4dbc7ae13cd1a5b23bedeca296850dfbb5ab05d0e4b2b3230f88d868e0",
        id="gram-e2r4-n-csv"),
    pytest.param(
        ("simples", "--ell", "2", "--r", "4", "--omega", "0,1",
         "--family", "m"), 0,
        "de0d234a19733a2c464957d03ba71cdebe101daaa9d3c74e38b2fea409815e21",
        id="simples-e2r4-m"),
    # a 384 x 384 change of basis with more fill, and the r = 4
    # certifications, in reach since the block triangular inverse
    pytest.param(
        ("simples", "--ell", "4", "--r", "3", "--omega", "0,1,2,3",
         "--family", "m"), 0,
        "621d99ba20b077e93f6fb45b9e1c16a87408b4a995ec6bfef152da3982f84777",
        id="simples-e4r3-m"),
    pytest.param(
        ("verify", "main1", "main2", "--ell", "2", "--r", "4",
         "--omega", "1,0", "--c", "0,1", "--xi", "2,1"), 0,
        "3f39cba8dc4344794ba70e5a20880c3f7896e3ce1df18021f846ce14a2212df3",
        id="verify-main1-main2-e2r4"),
    # blocks read off the triangular x_k action: a permuted-parameter family
    # at (3,3) with a repeated parameter, and blocks at r = 4
    pytest.param(
        ("simples", "--ell", "3", "--r", "3", "--omega", "0,0,1",
         "--family", "mxi", "--xi", "3,1,2"), 0,
        "87f7f66216da542117c082c10c8fa102ccb128aa717a35939fb21b9fb2178a27",
        id="simples-e3r3-mxi"),
    pytest.param(
        ("blocks", "--ell", "2", "--r", "4", "--omega", "0,0",
         "--family", "n", "--c", "0,1"), 0,
        "df0b72a6876b09bf79b970ba4737788231b4e40941ffe58b1a454406b058d5e6",
        id="blocks-e2r4-n"),
    # the full m/n pairing at r = 4: 818 nonzero entries of 384 x 384
    pytest.param(
        ("verify", "pairing", "--ell", "2", "--r", "4", "--omega", "1,0",
         "--c", "0,1"), 0,
        "9850b0707809e7c47a46e1a9eb8b5428b039f305a12751aa211b9bc891c160af",
        id="verify-pairing-e2r4"),
    # the simples-e3r3 invocation of bench/run.py, same digest
    pytest.param(
        ("simples", "--ell", "3", "--r", "3", "--omega", "0,1,2",
         "--family", "m"), 0,
        "95ff41b34aa5deca11c3b51556336739421af7c411107c83bad5b3cd2328200e",
        id="simples-e3r3-m"),
    # every suite at (4,3): 32 realizations in duality, 384 x 384 each
    pytest.param(
        ("verify", "all", "--ell", "4", "--r", "3", "--omega", "3,2,1,0",
         "--c", "0,1,0,1", "--xi", "2,3,4,1"), 0,
        "7e308c0aa53d3f4df73c2e305cdac2e00d964f78a96ed7ea84fd3429dedee718",
        id="verify-all-e4r3"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN)
def test_golden_bytes(capsysbinary, argv, code, digest):
    assert main(list(argv)) == code
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == digest


def test_verify_pairing_reports_each_failing_pair(monkeypatch):
    # pairing family m with itself is not unitriangular; the FAIL lines
    # name each failing pair in the suite's order, with its value
    monkeypatch.setattr(cli, "family_n", cli.family_m)
    cfg = parse_config(json.dumps(
        {"ell": 2, "r": 2, "omega": [1, 0], "c": [0, 1]}))
    lines = cli.suite_pairing(cfg, cli.context_from_config(cfg))
    assert cli._failed(lines)
    two, one_one, one_and_one = [[2], []], [[1, 1], []], [[1], [1]]
    pairs = (
        [(two, two, 4), (two, one_one, 2)] + [(two, one_and_one, 1)] * 4
        + [(one_one, two, 2), (one_one, one_one, 1)]
        + [(one_one, one_and_one, 1)] * 2
        + [(one_and_one, two, 1), (one_and_one, one_one, 1)]
        + [(one_and_one, two, 1)] * 3 + [(one_and_one, one_one, 1)]
    )
    assert lines == [
        "FAIL pairing: " + json.dumps(
            {"lambda": lam, "mu": mu, "value": str(val),
             "where": "below-diagonal"})
        for lam, mu, val in pairs
    ]
    # the bytes of one line, as the CLI prints them
    assert lines[0] == ('FAIL pairing: {"lambda": [[2], []], "mu": [[2], '
                        '[]], "value": "4", "where": "below-diagonal"}')


def test_verify_pairing_stars_each_n_element_once(monkeypatch, capsys):
    # one star per n-element and no per-pair product: a route through
    # pairing() per checked pair stars 1,412 times at (2,3)
    calls = {"star": 0, "pairing": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "star", counted("star", cli.star))
    monkeypatch.setattr(algebra, "star", counted("star", algebra.star))
    monkeypatch.setattr(reference_algebra, "pairing",
                        counted("pairing", reference_algebra.pairing))
    code, out = run_cli(capsys, "verify", "pairing", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1")
    assert code == 0
    assert out == "PASS pairing: 48x48 matrix is unitriangular (c=[0, 1])\n"
    assert calls == {"star": 48, "pairing": 0}


def test_verify_pairing_tests_dominance_only_on_nonzero_entries(monkeypatch,
                                                                capsys):
    # a zero entry passes every below-diagonal check, so the suite compares
    # tableaux only at the nonzero entries of P off its diagonal
    seen = []
    monkeypatch.setattr(
        cli, "tableau_dominance_ge",
        lambda a, b: seen.append((a, b)) or tableau_dominance_ge(a, b))
    code, out = run_cli(capsys, "verify", "pairing", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1")
    assert code == 0
    cfg = parse_config(json.dumps(
        {"ell": 2, "r": 3, "omega": [1, 0], "c": [0, 1]}))
    ctx = cli.context_from_config(cfg)
    real_m = cellular.realization(ctx, cellular.family_m(cfg.c))
    real_n = cellular.realization(ctx, cellular.family_n(cfg.c))
    tabs = real_m.tableaux
    cells = [(tabs[li][si], tabs[li][ti]) for li, si, ti in real_m.cells]
    # the tableau pairs each nonzero off-diagonal P[i][j] may compare: the
    # conjugates of n_j's tableaux against m_i's
    allowed = set()
    for (s, t), elem_m in zip(cells, real_m.elements):
        for (u, v), elem_n in zip(cells, real_n.elements):
            dual = (tableau_conjugate(u), tableau_conjugate(v))
            if dual != (s, t) and reference_algebra.pairing(elem_m, elem_n):
                allowed |= {(dual[0], s), (dual[1], t)}
    assert seen
    assert set(seen) <= allowed


@pytest.mark.parametrize("starred,value", [
    pytest.param(lambda h: 2 * algebra.star(h), "2", id="doubled"),
    pytest.param(lambda h: h.ctx.zero(), "0", id="zero"),
])
def test_verify_pairing_reports_each_failing_diagonal(monkeypatch, capsys,
                                                      starred, value):
    # with star(n) scaled, every diagonal entry FAILs with its value and
    # every entry below it stays 0; with star(n) zero, the diagonal still
    # has its line though the row has no nonzero entry
    monkeypatch.setattr(cli, "star", starred)
    code, out = run_cli(capsys, "verify", "pairing", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1")
    assert code == 1
    cfg = parse_config(json.dumps(
        {"ell": 2, "r": 3, "omega": [1, 0], "c": [0, 1]}))
    real_m = cellular.realization(cli.context_from_config(cfg),
                                  cellular.family_m(cfg.c))
    labels = [real_m.labels[li] for li, _, _ in real_m.cells]
    assert len(labels) == 48
    assert out.splitlines() == [
        "FAIL pairing: " + json.dumps(
            {"lambda": mp_to_lists(lam), "mu": mp_to_lists(conjugate(lam)),
             "value": value, "where": "diagonal"})
        for lam in labels
    ]


def test_verify_trace_never_forms_the_witness(monkeypatch, capsys):
    # one trace_of_product per label and twist, and no full product z or
    # tau_hat of one: the product route forms z . w^-1 at dimension 3,840
    # for each of the 144 values of the algebra-e2r5 benchmark
    import reference_cellular

    calls = {"z_element": 0, "tau_hat": 0, "trace_of_product": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for owner in (cli, cellular, reference_cellular):
        monkeypatch.setattr(owner, "z_element", counted(
            "z_element", reference_cellular.z_element), raising=False)
    for owner in (cli, reference_algebra):
        monkeypatch.setattr(owner, "tau_hat", counted(
            "tau_hat", reference_algebra.tau_hat), raising=False)
    monkeypatch.setattr(cli, "trace_of_product", counted(
        "trace_of_product", cli.trace_of_product))
    code, out = run_cli(capsys, "verify", "trace", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1")
    assert code == 0
    assert out.count("PASS trace") == 11
    assert calls == {"z_element": 0, "tau_hat": 0, "trace_of_product": 40}


def test_mullineux_xi_from_config_or_flag(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"ell": 2, "r": 2, "omega": [1, 0], "xi": [2, 1]}))
    lam = ["--lambda", "[[2],[]]"]
    _, from_file = run_cli(capsys, "mullineux", "--config", str(cfg), *lam)
    _, from_flags = run_cli(capsys, "mullineux", "--ell", "2", "--r", "2",
                            "--omega", "1,0", "--xi", "2,1", *lam)
    assert from_file == from_flags == '{"from":[[2],[]],"to":null}\n'


def test_config_threads_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text('{"ell":2,"r":1,"omega":[0,1],"threads":1}')
    code, _ = run_cli(capsys, "list", "--config", str(cfg))
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(
        {"ell": 2, "r": 1, "omega": [0, 1], "format": "csv"}))
    code, out = run_cli(capsys, "list", "--config", str(cfg))
    assert code == 0 and out.splitlines()[0] == "lambda,std"
    code, out = run_cli(capsys, "list", "--config", str(cfg),
                        "--format", "json")
    assert code == 0 and out.startswith("{")


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"ell":2,"r":1,"omega":[0,1],"xi":[2,2]}')
    code, _ = run_cli(capsys, "list", "--config", str(cfg))
    assert code == 2


def test_float_xi_in_config_exit_2(tmp_path, capsys):
    # 2.0 equals the int 2, so it used to pass the permutation check and
    # fail deep in verify main2 with exit 1, the verification-failure code
    cfg = tmp_path / "job.json"
    cfg.write_text('{"ell":2,"r":2,"omega":[1,0],"xi":[2.0,1.0]}')
    code = main(["verify", "main2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "BAD_VALUE at $.xi" in captured.err


@pytest.mark.parametrize("content,err", [
    (b'{"ell":2,"r":2,"omega":[0,1],"family":["m"]}', "BAD_VALUE at $.family"),
    (b'{"ell":2,"r":2,"omega":[0,1],"format":{"a":1}}',
     "BAD_VALUE at $.format"),
    (b"\xff\xfe", "INVALID_JSON at $"),
], ids=["family-list", "format-dict", "not-utf-8"])
def test_config_refused_with_exit_2(tmp_path, capsys, content, err):
    # each used to escape as a traceback with exit 1, the verification-
    # failure code: an unhashable family or format, and a file that is not
    # UTF-8 text
    cfg = tmp_path / "job.json"
    cfg.write_bytes(content)
    code = main(["simples", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: " + err + ": ")


def test_usage_error_exit_2(capsys):
    code, _ = run_cli(capsys, "gram", "--ell", "2", "--r", "1",
                      "--omega", "0,1", "--lambda", "[[5],[]]")
    assert code == 2


@pytest.mark.parametrize("argv,err", [
    pytest.param(("gram", "--lambda", "[[1],[2]]"),
                 "error: lambda [[1], [2]] is not a label at ell=2, r=2: "
                 "need 2 partitions of total size 2\n",
                 id="gram-label-outside-the-algebra"),
    pytest.param(("crystal", "--depth", "-1"),
                 "error: --depth must be >= 0, got -1\n",
                 id="crystal-negative-depth"),
    pytest.param(("mullineux", "--lambda", "[[-1],[]]"),
                 "error: not a multipartition: [[-1], []]\n",
                 id="mullineux-negative-part"),
    pytest.param(("mullineux", "--lambda", "[[1,2],[]]"),
                 "error: not a multipartition: [[1, 2], []]\n",
                 id="mullineux-increasing-parts"),
    pytest.param(("mullineux", "--lambda", "[[1],[],[]]"),
                 "error: lambda [[1], [], []] needs ell=2 components, got 3\n",
                 id="mullineux-wrong-component-count"),
])
def test_unanswerable_input_names_the_reason(capsys, argv, err):
    assert main([*argv, "--ell", "2", "--r", "2", "--omega", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_realization_above_the_size_limit_refused(capsys):
    start = time.perf_counter()
    code = main(["simples", "--ell", "3", "--r", "6", "--omega", "0,1,2",
                 "--family", "m"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: ell=3, r=6: the algebra has dimension "
                            "524880, above the limit 2000 for a cellular "
                            "realization\n")
    assert elapsed < 1.0


_REALIZATION_LIMIT_E1R9 = ("error: ell=1, r=9: the algebra has dimension "
                           "362880, above the limit 2000 for a cellular "
                           "realization\n")


@pytest.mark.parametrize("argv,err", [
    pytest.param(("simples", "--ell", "1", "--r", "9", "--omega", "0"),
                 _REALIZATION_LIMIT_E1R9, id="simples"),
    pytest.param(("blocks", "--ell", "1", "--r", "9", "--omega", "0"),
                 _REALIZATION_LIMIT_E1R9, id="blocks"),
    pytest.param(("gram", "--ell", "1", "--r", "9", "--omega", "0",
                  "--lambda", "[[9]]"),
                 _REALIZATION_LIMIT_E1R9, id="gram"),
    pytest.param(("match", "--ell", "1", "--r", "9", "--omega", "0",
                  "--familyA", "m", "--familyB", "n"),
                 _REALIZATION_LIMIT_E1R9, id="match"),
    pytest.param(("gram", "--ell", "3", "--r", "4", "--omega", "0,1,2",
                  "--lambda", "[[1],[2]]"),
                 "error: lambda [[1], [2]] is not a label at ell=3, r=4: "
                 "need 3 partitions of total size 4\n",
                 id="gram-label-outside-the-algebra"),
])
def test_unanswerable_input_refused_before_the_context_is_built(
        monkeypatch, capsys, argv, err):
    # the warm-up alone takes seconds at r = 9 and grows about r-fold per
    # strand, so no context may be built for input that is refused anyway
    def no_context(*args):
        raise AssertionError("the context was built before the refusal")

    monkeypatch.setattr(cli, "AlgebraContext", no_context)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_verify_all_builds_one_context_and_each_family_once(monkeypatch,
                                                            capsys):
    # the suites share the run's context, and with it every realization:
    # ten distinct families at ell = 2, main2's identity-ordered family
    # being main1's m[0,0]
    contexts, families = [], []
    build_context = cli.AlgebraContext
    realize = cellular.FamilyRealization.__init__

    def counted_context(*args):
        contexts.append(args)
        return build_context(*args)

    def counted_realization(self, ctx, family):
        families.append(family.label())
        realize(self, ctx, family)

    monkeypatch.setattr(cli, "AlgebraContext", counted_context)
    monkeypatch.setattr(cellular.FamilyRealization, "__init__",
                        counted_realization)
    code, out = run_cli(capsys, "verify", "all", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1", "--xi", "2,1")
    assert code == 0 and "FAIL" not in out
    assert contexts == [(2, 3, (1, 0))]
    assert sorted(families) == sorted(
        [f"{kind}[{c}]" for kind in "mn" for c in ("0,0", "0,1", "1,0", "1,1")]
        + ["mxi[2,1]", "nxi[2,1]"])


REFEREE_E2R3 = {"ell": 2, "r": 3, "omega": [1, 0], "c": [0, 1], "xi": [2, 1]}


def test_verify_all_leaves_the_cached_cell_modules_unchanged():
    # every suite reads the one cell module per (family, label) on the
    # context; none may change its matrices, and a second run builds none
    cfg = parse_config(json.dumps(REFEREE_E2R3))
    ctx = cli.context_from_config(cfg)

    def run_all():
        for name in cli.SUITES:
            assert cli._not_applicable(name, cfg) is None
            lines = cli._SUITE_FNS[name](cfg, ctx)
            assert not cli._failed(lines), name

    run_all()
    cached = dict(ctx._cell_modules)
    assert len(cached) > 40
    before = {key: copy.deepcopy((m.actions, m.gram))
              for key, m in cached.items()}
    run_all()
    assert ctx._cell_modules.keys() == cached.keys()
    fresh = cli.context_from_config(cfg)
    for (fam, lam), mod in cached.items():
        assert ctx._cell_modules[(fam, lam)] is mod
        assert (mod.actions, mod.gram) == before[(fam, lam)]
        new = cellular.cell_module(fresh, fam, lam)
        assert (new.actions, new.gram) == before[(fam, lam)]


def _left_index_target(ctx, fam):
    """A label with two or more tableaux and a left index other than top."""
    real = cellular.realization(ctx, fam)
    li = next(i for i, tabs in enumerate(real.tableaux) if len(tabs) > 1)
    left = next(s for s in range(len(real.tableaux[li]))
                if s != cellular.TOP)
    return real, li, left


def test_verify_cellular_fails_on_a_perturbed_left_index(monkeypatch):
    cfg = parse_config(json.dumps(REFEREE_E2R3))
    ctx = cli.context_from_config(cfg)
    real, li, left = _left_index_target(ctx, cellular.family_m(cfg.c))
    action = cellular.FamilyRealization.action
    g = 2 * cfg.r - 2       # x_r

    def perturbed(self, li_, left_, g_):
        mat = action(self, li_, left_, g_)
        if (self, li_, left_, g_) == (real, li, left, g):
            mat[-1][-1] += 1
        return mat

    monkeypatch.setattr(cellular.FamilyRealization, "action", perturbed)
    lines = cli.suite_cellular(cfg, ctx)
    assert cli._failed(lines)
    assert lines == ["FAIL cellular: action coefficients depend on the left "
                     "index (m[0,1])"]


def test_verify_cellular_fails_on_a_perturbed_cell_module():
    # the top left index's actions are read from the cached cell module,
    # so a wrong module matrix must fail the check, not pass unseen
    cfg = parse_config(json.dumps(REFEREE_E2R3))
    ctx = cli.context_from_config(cfg)
    fam = cellular.family_n(cfg.c)
    real, li, _ = _left_index_target(ctx, fam)
    mod = cellular.cell_module(ctx, fam, real.labels[li])
    mod.actions[0][0][0] += 1
    lines = cli.suite_cellular(cfg, ctx)
    assert cli._failed(lines)
    assert lines == ["FAIL cellular: action coefficients depend on the left "
                     "index (n[0,1])"]


def test_verify_cellular_above_the_size_limit_is_an_error(capsys):
    # a refused realization is not a failed check: exit 2, not a FAIL line
    code = main(["verify", "cellular", "--ell", "2", "--r", "5",
                 "--omega", "0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: ell=2, r=5: the algebra has "
                                 "dimension 3840, above the limit 2000 for "
                                 "a cellular realization\n")


NOT_SPANNING = ["--ell", "2", "--r", "2", "--omega", "1,0", "--c", "0,1",
                "--xi", "2,1"]
NOT_SPANNING_MESSAGE = "cellular family m[0,1] does not span H(2,2)"


@pytest.fixture
def m01_does_not_span(monkeypatch):
    """Plant a family that does not span; return the attempts to realize it."""
    attempts = []
    realize = cellular.FamilyRealization.__init__

    def planted(self, ctx, family):
        if family == cellular.family_m((0, 1)):
            attempts.append(family)
            raise SingularMatrixError(NOT_SPANNING_MESSAGE)
        realize(self, ctx, family)

    monkeypatch.setattr(cellular.FamilyRealization, "__init__", planted)
    return attempts


def test_verify_all_fails_each_suite_that_meets_a_family_not_spanning(
        m01_does_not_span, capsys):
    # a verification failure, not bad input: the other suites still run
    # and print, and each suite that needs the family fails on its own
    code, out = run_cli(capsys, "verify", "all", *NOT_SPANNING)
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == (
        ["PASS relations"] + ["PASS trace"] * 6
        + ["FAIL pairing", "FAIL cellular", "FAIL main1", "PASS main2",
           "FAIL duality"])
    assert [line for line in lines if line.startswith("FAIL ")] == [
        f"FAIL {name}: {NOT_SPANNING_MESSAGE}"
        for name in ("pairing", "cellular", "main1", "duality")]
    # the failed realization is not cached
    assert len(m01_does_not_span) == 4


@pytest.mark.parametrize("suite", ["pairing", "cellular", "main1",
                                   "duality"])
def test_verify_suite_fails_on_a_family_not_spanning(m01_does_not_span,
                                                     capsys, suite):
    code, out = run_cli(capsys, "verify", suite, *NOT_SPANNING)
    assert code == 1
    assert out.splitlines() == [f"FAIL {suite}: {NOT_SPANNING_MESSAGE}"]


def test_verify_all_above_the_size_limit_refused_before_any_suite(capsys):
    start = time.perf_counter()
    code = main(["verify", "all", "--ell", "2", "--r", "5", "--omega", "1,0",
                 "--c", "0,1", "--xi", "2,1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: ell=2, r=5: the algebra has dimension "
                            "3840, above the limit 2000 for a cellular "
                            "realization\n")
    assert elapsed < 1.0


def test_size_limit_applies_only_to_realizing_suites(monkeypatch, capsys):
    # with the limit below dim H(2,2) = 8, the algebra-only suites still run
    monkeypatch.setattr(cellular, "MAX_REALIZATION_DIM", 5)
    argv = ["--ell", "2", "--r", "2", "--omega", "1,0", "--c", "0,1",
            "--xi", "2,1"]
    assert main(["verify", "relations", "trace", *argv]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for suite in ("pairing", "cellular", "main1", "main2", "duality", "all"):
        assert main(["verify", suite, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ell=2, r=2: the algebra has "
                                "dimension 8, above the limit 5 for a "
                                "cellular realization\n")


def test_normal_form_checks_above_the_size_limit_refused(capsys):
    start = time.perf_counter()
    code = main(["verify", "relations", "--ell", "2", "--r", "8",
                 "--omega", "1,0"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: ell=2, r=8: the algebra has dimension "
                            "10321920, above the limit 50000 for the "
                            "normal-form checks\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("verb", [("check-basis",), ("verify", "relations"),
                                  ("verify", "trace"),
                                  ("verify", "relations", "trace")])
def test_normal_form_size_limit_checked_before_any_suite(monkeypatch, capsys,
                                                         verb):
    # with the limit below dim H(2,2) = 8 nothing runs: no suite note on
    # stderr, only the error
    monkeypatch.setattr(algebra, "MAX_NORMAL_FORM_DIM", 5)
    assert main([*verb, "--ell", "2", "--r", "2", "--omega", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ell=2, r=2: the algebra has dimension "
                            "8, above the limit 5 for the normal-form "
                            "checks\n")


def test_config_defaults_do_not_count_as_given(tmp_path, capsys):
    # the file sets no c or xi, so a flag that changes ell must not clash
    # with the file's defaulted c and xi
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"ell": 2, "r": 2, "omega": [1, 0]}))
    code, from_file = run_cli(capsys, "list", "--config", str(cfg),
                              "--ell", "3", "--omega", "2,1,0")
    assert code == 0
    _, from_flags = run_cli(capsys, "list", "--ell", "3", "--r", "2",
                            "--omega", "2,1,0")
    assert from_file == from_flags


@pytest.mark.parametrize("fields,extra,flags", [
    ({}, (), ("--ell", "2", "--r", "2", "--omega", "1,0")),
    ({}, ("--omega", "0,1"), ("--ell", "2", "--r", "2", "--omega", "0,1")),
    ({}, ("--ell", "3", "--omega", "2,1,0"),
     ("--ell", "3", "--r", "2", "--omega", "2,1,0")),
    ({"c": [0, 1], "family": "n"}, (),
     ("--ell", "2", "--r", "2", "--omega", "1,0", "--c", "0,1",
      "--family", "n")),
])
def test_simples_config_matches_flags(tmp_path, capsys, fields, extra, flags):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"ell": 2, "r": 2, "omega": [1, 0], **fields}))
    code, from_file = run_cli(capsys, "simples", "--config", str(cfg), *extra)
    assert code == 0
    _, from_flags = run_cli(capsys, "simples", *flags)
    assert from_file == from_flags


@pytest.mark.parametrize("verb,fields,flags", [
    (("gram", "--lambda", "[[1],[1]]"), {"c": [0, 1], "family": "n"},
     ("--c", "0,1", "--family", "n")),
    (("blocks",), {"family": "mxi", "xi": [2, 1], "format": "csv"},
     ("--family", "mxi", "--xi", "2,1", "--format", "csv")),
    (("match", "--familyA", "m", "--familyB", "n"), {"c": [1, 0]},
     ("--c", "1,0")),
    (("verify", "cellular"), {"c": [0, 1], "xi": [2, 1]},
     ("--c", "0,1", "--xi", "2,1")),
], ids=["gram", "blocks", "match", "verify-cellular"])
def test_config_matches_flags_per_verb(tmp_path, capsysbinary, verb, fields,
                                       flags):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"ell": 2, "r": 2, "omega": [1, 0], **fields}))
    code_file = main([*verb, "--config", str(cfg)])
    from_file = capsysbinary.readouterr().out
    code_flags = main([*verb, "--ell", "2", "--r", "2", "--omega", "1,0",
                       *flags])
    from_flags = capsysbinary.readouterr().out
    assert code_file == code_flags == 0
    assert from_file == from_flags and from_file


VERB_HELP = {
    "list": ("labels and tableau counts", []),
    "check-basis": ("normal-form basis and relation check", []),
    "gram": ("Gram matrix of a label", ["--lambda"]),
    "simples": ("cell/simple dimensions and blocks per label", []),
    "blocks": ("partition of the labels into blocks", []),
    "crystal": ("component of the empty label", ["--depth"]),
    "mullineux": ("label correspondence maps", ["--lambda"]),
    "match": ("intertwiner-certified label bijection",
              ["--familyA", "--familyB"]),
    "verify": ("named verification suites", [*cli.SUITES, "all"]),
}


def help_text(capsys, *argv) -> str:
    """``--help`` output with its whitespace runs joined: argparse wraps
    and indents differently across Python versions."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_program_help_lists_each_verb(capsys):
    text = help_text(capsys)
    for verb, (summary, _) in VERB_HELP.items():
        assert f"{verb} {summary}" in text


@pytest.mark.parametrize("verb", VERB_HELP)
def test_verb_help_lists_its_arguments(capsys, verb):
    text = help_text(capsys, verb)
    assert text.startswith(f"usage: cellular-hecke {verb} ")
    for arg in ["--ell", "--r", "--config", *VERB_HELP[verb][1]]:
        assert arg in text


def readme_commands():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("cellular-hecke ")]


def test_readme_has_examples():
    assert len(readme_commands()) >= 11


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
