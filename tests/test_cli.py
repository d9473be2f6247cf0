import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadcert
from quadcert.cli import main

from .test_verify import MALFORMED_EDITS, REJECTED_EDITS


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
    assert obj["k_range"] == ["1", "6"]  # decimal strings, as every integer field


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
    code, out = run_cli(capsys, "represent", "5", "--form", "x1^2 + x1 x2 + 3 x2^2",
                        "--target", "(11+sqrt(5))/2")
    assert code == 0  # impossible is an answer, not a failure
    assert out == "impossible (exhausted (11, 3) boxes, 22 nodes)\n"


def test_represent_rejects_variable_zero(capsys):
    code = main(["represent", "5", "--form", "x0^2 + x1^2", "--target", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "x1, x2" in captured.err


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


def test_certify_refuses_a_certificate_its_verifier_rejects(tmp_path, capsys, monkeypatch):
    """certify hands every certificate it would call proved or conditional
    to the independent verifier, and writes nothing the verifier rejects."""
    from quadcert import certify

    real = certify._box_violators
    monkeypatch.setattr(certify, "_box_violators",
                        lambda *box: (real(*box)[0], ()))  # drops every violator
    out = tmp_path / "c13.json"
    code = main(["certify", "-M", "1", "--force-D", "13", "--indices", "1,3", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "pair (1,3) has violators" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()

    monkeypatch.undo()
    code = main(["certify", "-M", "1", "--force-D", "13", "--indices", "1,3", "-o", str(out)])
    assert code == 1 and out.exists()  # a refuted control is still written


def test_certify_writes_the_certificate_it_verified(tmp_path, capsys, cert_m1):
    out = tmp_path / "m1.json"
    code = main(["certify", "-M", "1", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text(encoding="utf-8") == cert_m1.dumps() + "\n"
    code, text = run_cli(capsys, "certify", "-M", "1")  # no -o: on stdout
    assert code == 0
    conclusion, printed = text.split("\n", 1)
    assert conclusion == cert_m1.conclusion_text()
    assert printed == cert_m1.dumps() + "\n"


def test_usage_error_exit_code(capsys):
    assert main(["cf"]) == 2  # missing D
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("terms", ["-1", "-100"])
def test_cf_negative_terms_is_a_usage_error(capsys, terms):
    assert main(["cf", "13", "--terms", terms]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["--threads", "2", "cf", "13"],
    ["--factor-budget", "5", "cf", "13"],
    ["cf", "13", "--threads", "2"],
])
def test_retired_global_options_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_json_echoes_only_the_command(capsys):
    code, out = run_cli(capsys, "--json", "construct", "-M", "1")
    assert code == 0
    assert json.loads(out)["config"] == {"command": "construct"}


@pytest.mark.parametrize("bound", ["1", "1000000001"])
def test_certify_bound_outside_verifier_range_exit_code(capsys, bound):
    code = main(["certify", "-M", "1", "--squarefree", f"probable:{bound}"])
    assert code == 2
    assert "error: squarefree bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "-M", "1", "--k-search", "0"],
    # D = k^2 + 1 is a probable prime beyond the deterministic Miller-Rabin range
    ["certify", "-M", "1", "--force-D", "4000000000080000000000401", "--indices", "1,3"],
    # three witnesses for M = 1: the verifier expects M + 1
    ["certify", "-M", "1", "--force-D", "94", "--indices", "5,7,15"],
    # 24 = 2^2 * 6 is proved not squarefree
    ["certify", "-M", "1", "--force-D", "24"],
    # the period of sqrt(94) has length 16: the verifier would reject index 31
    ["certify", "-M", "1", "--force-D", "94", "--indices", "5,31"],
    # a trailing sign used to be dropped, so this decided x1^2 + x2^2
    ["represent", "5", "--form", "x1^2 + x2^2 +", "--target", "1"],
], ids=["no-field", "squarefree-undetermined", "witness-count", "forced-not-squarefree",
        "index-past-period", "represent-trailing-sign"])
def test_certify_error_exit_code(capsys, argv):
    """Exit 1 means refuted; a run that cannot finish exits 2."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_friesen_search_probable_mode(capsys):
    code, out = run_cli(capsys, "--json", "friesen-search", "1", "--k", "1..3",
                        "--squarefree", "probable:1000")
    assert code == 0
    obj = json.loads(out)
    verdicts = {h["D"]: h["squarefree"]["verdict"] for h in obj["hits"]}
    assert verdicts["3"] == "probably-squarefree"
    assert verdicts["8"] == "not-squarefree"  # probable mode still proves squares


@pytest.mark.parametrize("mode", [
    "probablejunk", "probable:", "probable:-5", "probable:1", "probable:1000000001",
    "probable:1000000000000", "probable:1e3", "exact:5", "Exact",
    pytest.param("probable:" + "9" * 5000, id="probable:5000-digits"),
])
def test_friesen_search_rejects_bad_squarefree_mode(capsys, mode):
    code = main(["friesen-search", "1", "--k", "1..3", "--squarefree", mode])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "error: " in captured.err


@pytest.mark.parametrize("mode,want", [
    ("exact", ("exact", 10 ** 7)), ("probable", ("probable", 10 ** 7)),
    ("probable:2", ("probable", 2)), ("probable:1000000000", ("probable", 10 ** 9)),
])
def test_squarefree_mode_accepted_forms(mode, want):
    from quadcert.cli import build_parser

    args = build_parser().parse_args(["friesen-search", "1", "--k", "1..3", "--squarefree", mode])
    assert args.squarefree == want


def test_search_warns_on_parity_failure(capsys):
    code, out = run_cli(capsys, "--json", "friesen-search", "1,1", "--k", "1..50")
    assert code == 0
    obj = json.loads(out)
    assert obj["hits"] == []
    assert "parity" in obj["warning"]


def _verify_exit_code(tmp_path, capsys, obj):
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(obj))
    return run_cli(capsys, "verify", str(cert))


@pytest.mark.parametrize("mutate, want, word", [
    pytest.param(None, 0, "ACCEPTED", id="accepted"),
    *(pytest.param(p.values[0], 1, "REJECTED", id=p.id) for p in REJECTED_EDITS),
    *(pytest.param(p.values[0], 2, "MALFORMED", id=p.id) for p in MALFORMED_EDITS),
])
def test_verify_file_exit_code(tmp_path, capsys, cert_m1, mutate, want, word):
    """The M = 1 certificate verifies from a file with exit code 0; the
    verifier tests' one-field edits exit 1 (rejected) or 2 (malformed)."""
    obj = json.loads(cert_m1.dumps())
    if mutate is not None:
        mutate(obj)
    code, out = _verify_exit_code(tmp_path, capsys, obj)
    assert code == want and out.startswith(word)


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


# Each expression runs in a fresh interpreter, which reports what it returned
# and whether numpy was loaded; `bad` is a file holding {"nope": 1}.
_FRESH_CALL = ("import json, sys\n"
               "import quadcert\n"
               "def main(argv):\n"
               "    from quadcert.cli import main\n"
               "    return main(argv)\n"
               "bad = sys.argv[1]\n"
               "result = {expr}\n"
               "print(json.dumps([repr(result), 'numpy' in sys.modules]))\n")


@pytest.mark.parametrize("expr, want, loads_numpy", [
    pytest.param("quadcert.__version__", None, False, id="import"),
    pytest.param("main(['cf', '94'])", 0, False, id="cf"),
    pytest.param("main(['tp-list', '5', '--trace', '10'])", 0, False, id="tp-list"),
    pytest.param("main(['represent', '5', '--form', 'x1^2 + x1 x2 + 3 x2^2',"
                 " '--target', '(11+sqrt(5))/2'])", 0, False, id="represent"),
    pytest.param("main(['construct', '-M', '2'])", 0, False, id="construct"),
    pytest.param("main(['power-trace', '94', '1', '2'])", 0, False, id="power-trace"),
    pytest.param("main(['friesen-check', '1,2,1'])", 0, False, id="friesen-check"),
    pytest.param("main(['verify', bad])", 2, False, id="verify-malformed"),
    pytest.param("quadcert.squarefree_status(10**30 + 57, mode='probable')", None, True,
                 id="squarefree"),
    pytest.param("quadcert.enumerate_small_norm(13, 'half', 20)", None, True,
                 id="smallnorm"),
])
def test_numpy_loads_only_where_it_runs(tmp_path, capsys, expr, want, loads_numpy):
    """numpy serves only the prime sieve and the small-norm kernels, so a
    fresh process loads it at the first of those and never before; what a
    call returns, and a CLI run prints, is what it gives in this process."""
    bad = tmp_path / "nope.json"
    bad.write_text('{"nope": 1}')
    src = str(Path(quadcert.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _FRESH_CALL.format(expr=expr), str(bad)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    *printed, last = out.splitlines()
    got, numpy_loaded = json.loads(last)
    assert numpy_loaded is loads_numpy
    result = eval(expr, {"quadcert": quadcert, "main": main, "bad": str(bad)})
    assert got == repr(result)
    assert printed == capsys.readouterr().out.splitlines()
    if want is not None:
        assert result == want


def _m3_search_argv(*opts):
    from quadcert.friesen import admissible_k, construct_sequence
    from quadcert.qarith import to_decimal

    seq = construct_sequence(3)
    k = to_decimal(admissible_k(seq)[0])
    return [*opts, "friesen-search", str(seq), "--k", f"{k}..{k}",
            "--squarefree", "probable:1000"]


def _stdout_at_both_limits(argv) -> bytes:
    """What `quadcert argv` prints in a fresh process, checked to be the same
    bytes under -X int_max_str_digits=640, the least limit Python allows, as
    under the default limit, with exit 0 and nothing on stderr."""
    src = str(Path(quadcert.__file__).resolve().parent.parent)
    runs = [subprocess.run([sys.executable, *flags, "-m", "quadcert.cli", *argv],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True)
            for flags in ([], ["-X", "int_max_str_digits=640"])]
    for run in runs:
        assert run.returncode == 0 and run.stderr == b"", run.stderr
    assert runs[1].stdout == runs[0].stdout
    return runs[0].stdout


# a 701-digit D, past the least int/str limit
LONG_D = "1" + "0" * 699 + "1"


@pytest.mark.parametrize("argv", [
    pytest.param(["cf", "199999"], id="cf"),
    pytest.param(_m3_search_argv(), id="friesen-search"),
    pytest.param(_m3_search_argv("--json"), id="friesen-search-json"),
    pytest.param(["tp-list", LONG_D, "--trace", "4"], id="tp-list-long-D"),
    pytest.param(["represent", LONG_D, "--form", "x1^2 + x2^2", "--target", "2"],
                 id="represent-long-D"),
])
def test_cli_prints_past_a_lowered_int_str_limit(argv):
    """A command whose input and output hold integers of more than 640
    digits (the M = 3 sequence and k, the convergents of sqrt(199999), a
    701-digit D) prints the same bytes under a 640-digit int/str limit."""
    out = _stdout_at_both_limits(argv)
    assert max(map(len, re.findall(rb"[0-9]+", out))) > 640


def test_d_arguments_keep_the_int_usage_error(capsys):
    """D arguments read any length, yet a D that is not an integer is still
    argparse's usage error naming the int type."""
    for bad, argv in (("x", ["cf", "x"]), ("1.5", ["tp-list", "1.5", "--trace", "4"]),
                      ("13a", ["certify", "-M", "1", "--force-D", "13a"])):
        assert main(argv) == 2
        assert f"invalid int value: {bad!r}" in capsys.readouterr().err


def test_verify_past_a_lowered_int_str_limit(tmp_path, cert_m3):
    """The M = 3 certificate, whose D and witnesses have more than 640
    digits, is accepted under a 640-digit int/str limit too."""
    path = tmp_path / "m3.json"
    path.write_text(cert_m3.dumps())
    assert _stdout_at_both_limits(["verify", str(path)]) == b"ACCEPTED\n"


# sha256 of the file `quadcert certify -M 4 -o F` writes: the certificate's
# 114,624 bytes plus a newline (the certificate alone hashes to 98ed84b5...)
M4_FILE_SHA256 = "6eb74607dfa985600c5665ab2752d0211bb94f25b9344366528030db774c2be8"


@pytest.mark.slow
def test_certify_and_verify_m4_from_the_cli(tmp_path):
    """The paper's M = 4 field (a 23,698-digit D) goes through the CLI in
    fresh processes under Python's default 4300-digit int/str limit: the
    build with its self-verify, the write, and an independent verify."""
    src = str(Path(quadcert.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    path = tmp_path / "m4.json"
    for argv in (["certify", "-M", "4", "-o", str(path)], ["verify", str(path)]):
        run = subprocess.run([sys.executable, "-m", "quadcert.cli", *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ACCEPTED")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == M4_FILE_SHA256
