import hashlib
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from cellular_hecke import algebra, cellular, cli
from cellular_hecke.cli import main
from cellular_hecke.serialization import parse_config, parse_jsonl


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


def test_verify_stderr_notes_elapsed(capsys):
    assert main(["verify", "relations", "--ell", "1", "--r", "2",
                 "--omega", "0"]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"running suite relations \.\.\. \d+\.\d\d s\n", err)


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
    # the full m/n pairing at r = 4: 101,616 checked pairs
    pytest.param(
        ("verify", "pairing", "--ell", "2", "--r", "4", "--omega", "1,0",
         "--c", "0,1"), 0,
        "9850b0707809e7c47a46e1a9eb8b5428b039f305a12751aa211b9bc891c160af",
        id="verify-pairing-e2r4"),
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
    ok, lines = cli.suite_pairing(parse_config(json.dumps(
        {"ell": 2, "r": 2, "omega": [1, 0], "c": [0, 1]})))
    assert not ok
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
    monkeypatch.setattr(algebra, "pairing",
                        counted("pairing", algebra.pairing))
    code, out = run_cli(capsys, "verify", "pairing", "--ell", "2", "--r", "3",
                        "--omega", "1,0", "--c", "0,1")
    assert code == 0
    assert out == "PASS pairing: 48x48 matrix is unitriangular (c=[0, 1])\n"
    assert calls == {"star": 48, "pairing": 0}


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
    for owner in (cli, algebra):
        monkeypatch.setattr(owner, "tau_hat", counted(
            "tau_hat", algebra.tau_hat), raising=False)
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
