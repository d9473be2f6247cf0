import json

import pytest

from quadcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cf_text(capsys):
    code, out = run_cli(capsys, "cf", "13")
    assert code == 0
    assert "overline(1,1,1,1,6)" in out


def test_cf_json(capsys):
    code, out = run_cli(capsys, "--json", "cf", "13", "--terms", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["period"] == ["1", "1", "1", "1", "6"]
    assert obj["convergents"][4]["p"] == "18"
    assert obj["convergents"][4]["norm"] == "-1"
    assert all(row["fraction_bounds"] == [True, True] for row in obj["convergents"])
    assert obj["config"]["command"] == "cf"


def test_friesen_check(capsys):
    code, out = run_cli(capsys, "friesen-check", "1,1")
    assert code == 0 and "fails" in out
    code, out = run_cli(capsys, "friesen-check", "1")
    assert code == 0 and "holds" in out


def test_friesen_search_json(capsys):
    code, out = run_cli(capsys, "--json", "friesen-search", "1", "--k", "1..6")
    assert code == 0
    obj = json.loads(out)
    assert [h["D"] for h in obj["hits"]] == ["3", "8", "15", "24", "35", "48"]


def test_construct(capsys):
    code, out = run_cli(capsys, "--json", "construct", "-M", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["sequence"] == ["2", "8", "512", "134217728", "512", "8", "2"]
    assert obj["parity_condition"] is True


def test_smallnorm(capsys):
    code, out = run_cli(capsys, "--json", "smallnorm", "13", "--bound", "half",
                        "--y-max", "20")
    assert code == 0
    obj = json.loads(out)
    want = {"x": "18", "y": "5", "den": 1, "norm": "-1",
            "match": {"i": 4, "multiplier": "1"}}
    assert want in obj["elements"]
    assert obj["audit_all_matched"] is True


def test_power_trace(capsys):
    code, out = run_cli(capsys, "--json", "power-trace", "13", "4", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["located_index"] == 9 and obj["u_at_j"] == 6


def test_represent(capsys):
    code, out = run_cli(capsys, "--json", "represent", "5",
                        "--form", "x1^2+x1 x2+x2^2+x3^2+x3 x4+x4^2",
                        "--target", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "found"


def test_tp_list(capsys):
    code, out = run_cli(capsys, "--json", "tp-list", "5", "--trace", "3")
    assert code == 0
    obj = json.loads(out)
    assert [e["elem"] for e in obj["elements"]] == [
        "1+0*sqrt(5)", "(3-1*sqrt(5))/2", "(3+1*sqrt(5))/2",
    ]


def test_certify_verify_files(tmp_path, capsys):
    cert = tmp_path / "c13.json"
    code, _ = run_cli(capsys, "certify", "-M", "1", "--force-D", "13",
                      "--indices", "1,3", "-o", str(cert))
    assert code == 1  # refuted
    code, out = run_cli(capsys, "verify", str(cert))
    assert code == 1 and "REJECTED" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "MALFORMED" in out


def test_usage_error_exit_code(capsys):
    assert main(["cf"]) == 2  # missing D
    assert main(["no-such-command"]) == 2


def test_friesen_search_probable_mode(capsys):
    code, out = run_cli(capsys, "--json", "friesen-search", "1", "--k", "1..3",
                        "--squarefree", "probable:1000")
    assert code == 0
    obj = json.loads(out)
    verdicts = {h["D"]: h["squarefree"]["verdict"] for h in obj["hits"]}
    assert verdicts["3"] == "probably-squarefree"
    assert verdicts["8"] == "not-squarefree"  # probable mode still proves squares


def test_search_warns_on_parity_failure(capsys):
    code, out = run_cli(capsys, "--json", "friesen-search", "1,1", "--k", "1..50")
    assert code == 0
    obj = json.loads(out)
    assert obj["hits"] == []
    assert "parity" in obj["warning"]


def test_certify_verify_file_roundtrip_accepted(tmp_path, capsys, cert_m1):
    cert = tmp_path / "m1.json"
    cert.write_text(cert_m1.dumps())
    code, out = run_cli(capsys, "verify", str(cert))
    assert code == 0 and "ACCEPTED" in out


def _verify_exit_code(tmp_path, capsys, obj):
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(obj))
    return run_cli(capsys, "verify", str(cert))


@pytest.mark.parametrize("bound,M", [("abc", 1), (10 ** 40, 1), (10 ** 7, -1)])
def test_verify_malformed_integer_field_exit_code(tmp_path, capsys, cert_m1, bound, M):
    obj = json.loads(cert_m1.dumps())
    obj["squarefree"]["bound"] = bound
    if M < 1:  # the shape that once crashed the verifier with an IndexError
        obj.update(M=M, witnesses=[], pairs=[])
        obj["conclusion"]["excluded_rank_le"] = M
    code, out = _verify_exit_code(tmp_path, capsys, obj)
    assert code == 2 and "MALFORMED" in out


@pytest.mark.parametrize("candidates", [None, "garbage", True, -1],
                         ids=["missing", "str", "bool", "negative"])
def test_verify_malformed_candidates_exit_code(tmp_path, capsys, cert_m1, candidates):
    obj = json.loads(cert_m1.dumps())
    for p in obj["pairs"]:
        if candidates is None:
            del p["candidates"]
        else:
            p["candidates"] = candidates
    code, out = _verify_exit_code(tmp_path, capsys, obj)
    assert code == 2 and "MALFORMED" in out


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_verify_unreadable_path_exit_code(tmp_path, capsys, kind):
    path = tmp_path / "cert.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b'{"version": 1, "D": "\xff\xfe"}')
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "MALFORMED: cannot read certificate" in captured.out
    assert "Traceback" not in captured.out + captured.err
    code = main(["--json", "verify", str(path)])
    obj = json.loads(capsys.readouterr().out)
    assert code == 2 and obj["verdict"] == "malformed"
    assert obj["reason"].startswith("cannot read certificate")
