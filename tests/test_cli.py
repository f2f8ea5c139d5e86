import hashlib
import json
import re

import pytest

from cellular_hecke.cli import main
from cellular_hecke.serialization import parse_jsonl


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
    # main2 requires weakly decreasing parameters; this is a usage-level
    # failure surfaced as a FAIL line and exit code 1
    code, out = run_cli(capsys, "verify", "main2", "--ell", "2", "--r", "1",
                        "--omega", "0,1")
    assert code == 1
    assert "FAIL main2" in out


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
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN)
def test_golden_bytes(capsysbinary, argv, code, digest):
    assert main(list(argv)) == code
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == digest


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
