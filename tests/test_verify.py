import ast
import copy
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import _kernels, qarith, verify
from quadcert.certify import build_certificate
from quadcert.latbox import box_enumerate
from quadcert.qarith import from_decimal, to_decimal
from quadcert.qd import QD
from quadcert.verify import MalformedCertificate, Verdict, verify_certificate

from .conftest import omega_basis


def test_verifier_imports_only_the_squarefree_classifier():
    """The verifier is an independent implementation: from the package it
    imports qarith's squarefree classifier, its exception and its bound cap,
    and nothing else, statically or dynamically."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    internal = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 or module.split(".")[0] == "quadcert":
                name = module if node.level > 0 else module.partition(".")[2]
                internal += [(name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "quadcert" for a in node.names)
        elif isinstance(node, ast.Call):
            f = node.func
            assert not (isinstance(f, ast.Name) and f.id == "__import__")
            assert not (isinstance(f, ast.Attribute) and f.attr == "import_module")
    assert sorted(internal) == [("qarith", "MAX_TRIAL_BOUND"),
                                ("qarith", "SquarefreeUndetermined"),
                                ("qarith", "squarefree_status")]


def test_squarefree_classifier_has_one_engine():
    """qarith imports nothing from the int64 kernels and names neither them
    nor their int64 limit, so its trial scan has no size branch."""
    tree = ast.parse(Path(qarith.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "_kernels" not in (node.module or "")
            assert all(a.name != "_kernels" for a in node.names)
        assert not (isinstance(node, ast.Name) and node.id in ("_kernels", "INT64_SAFE"))


def test_verifier_runs_without_the_int64_kernels(cert_m1, cert_refuted_13, monkeypatch):
    """With every kernel function raising, the M = 1 and a small-field
    certificate still verify and the D = 13 control is still rejected."""
    small = build_certificate(1, force_D=94, indices=[5, 7])

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called an int64 kernel")

    for name, value in vars(_kernels).items():
        if callable(value) and getattr(value, "__module__", None) == _kernels.__name__:
            monkeypatch.setattr(_kernels, name, refuse)
    assert verify_certificate(cert_m1.to_json()).accepted
    assert verify_certificate(small.dumps()).accepted
    assert not verify_certificate(cert_refuted_13.to_json()).accepted


def test_accepts_m1(cert_m1):
    v = verify_certificate(cert_m1.to_json())
    assert v.accepted, v.reason


def test_accepts_m2(cert_m2):
    v = verify_certificate(cert_m2.to_json())
    assert v.accepted, v.reason


def test_accepts_json_string(cert_m1):
    assert verify_certificate(cert_m1.dumps()).accepted


def test_rejects_refuted(cert_refuted_13):
    v = verify_certificate(cert_refuted_13.to_json())
    assert not v.accepted


def test_rejects_witness_perturbation(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["witnesses"][0]["p"] = str(int(obj["witnesses"][0]["p"]) + 1)
    v = verify_certificate(obj)
    assert not v.accepted and "witness" in v.reason


def test_rejects_tampered_D(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["D"] = str(int(obj["D"]) + 1)
    assert not verify_certificate(obj).accepted


def test_rejects_dropped_pair(cert_m2):
    obj = copy.deepcopy(cert_m2.to_json())
    obj["pairs"] = obj["pairs"][:-1]
    v = verify_certificate(obj)
    assert not v.accepted and "pair" in v.reason


def test_rejects_inserted_violator(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["pairs"][0]["violators"] = ["1+0*sqrt(%s)" % obj["D"]]
    assert not verify_certificate(obj).accepted


def test_rejects_soundness_upgrade(cert_m2):
    obj = copy.deepcopy(cert_m2.to_json())
    obj["conclusion"]["soundness"] = "proved"
    v = verify_certificate(obj)
    assert not v.accepted


def _assert_forged_exact_proof_rejected_within_seconds(cert):
    obj = copy.deepcopy(cert.to_json())
    obj["squarefree"].update(mode="exact", verdict="squarefree-proved")
    obj["conclusion"]["soundness"] = "proved"
    t = time.perf_counter()
    v = verify_certificate(obj)
    assert not v.accepted
    assert v.reason == "squarefree status cannot be re-established"
    assert time.perf_counter() - t < 20


def test_rejects_forged_exact_proof_within_seconds(cert_m2):
    """The M = 2 certificate with its squarefree block claiming an exact
    proof passes every cheaper check; re-proving it for the 972-bit D runs
    out of the rho budget, so the verifier rejects within seconds."""
    _assert_forged_exact_proof_rejected_within_seconds(cert_m2)


def test_rejects_forged_exact_proof_at_m3_within_seconds(cert_m3):
    """The same forgery on the 8,741-bit M = 3 D: rho is charged by the size
    of its operands, so the budget runs out about as fast as at M = 2."""
    _assert_forged_exact_proof_rejected_within_seconds(cert_m3)


def test_rejects_rank_inflation(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["conclusion"]["excluded_rank_le"] = 2
    assert not verify_certificate(obj).accepted


def test_rejects_sequence_tamper(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["sequence"][2] = "513"
    assert not verify_certificate(obj).accepted


def test_malformed_inputs():
    with pytest.raises(MalformedCertificate):
        verify_certificate("{not json")
    with pytest.raises(MalformedCertificate):
        verify_certificate({"version": 1})
    with pytest.raises(MalformedCertificate):
        verify_certificate(json.dumps([1, 2, 3]))


def test_malformed_version(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["version"] = 2
    with pytest.raises(MalformedCertificate):
        verify_certificate(obj)


def test_malformed_nondecimal(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["D"] = "12x3"
    with pytest.raises(MalformedCertificate):
        verify_certificate(obj)


def test_rejects_laundered_refuted_certificate(cert_refuted_13):
    """The decisive independence test: strip the violators from a refuted
    certificate, relabel it proved, and the verifier's own enumeration must
    still find the violator and reject."""
    obj = copy.deepcopy(cert_refuted_13.to_json())
    for p in obj["pairs"]:
        p["violators"] = []
    obj["conclusion"]["soundness"] = "proved"
    v = verify_certificate(obj)
    assert not v.accepted
    assert "violators" in v.reason


def _set(path, value):
    def mutate(obj):
        *outer, last = path
        for key in outer:
            obj = obj[key]
        obj[last] = value
    return mutate


def _edit(**fields):
    """Set several top-level fields at once."""
    def mutate(obj):
        obj.update(fields)
    return mutate


def _zero_sequence_ends(obj):
    obj["sequence"][0] = obj["sequence"][-1] = "0"  # still symmetric


def _exact_probable_conditional(obj):
    obj["squarefree"].update(mode="exact", verdict="probably-squarefree")
    obj["conclusion"]["soundness"] = "conditional"


def _witnesses_as_object(obj):
    obj["witnesses"] = {str(t): w for t, w in enumerate(obj["witnesses"])}


# one-field edits of the M = 1 certificate the verifier rejects, with the
# reason it gives; the CLI tests run them too, for exit code 1
REJECTED_EDITS = [
    # 8 has the right shape of fields but is not squarefree (and wrong period)
    pytest.param(_edit(D="8", k="2"), "does not match the stated period", id="D-8"),
    pytest.param(_edit(D="100", k="10"), "perfect square", id="D-square"),
    # past Python's 4300-digit int/str limit, the reason still prints
    pytest.param(_edit(D="1" + "0" * 10_000, k="1" + "0" * 5_000),
                 "D = <33220-bit integer> is a perfect square", id="D-square-10001-digits"),
    pytest.param(_set(("k",), "9" * 5_000), "is not floor(sqrt(D))", id="k-5000-digits"),
    pytest.param(_zero_sequence_ends, "sequence entries must be positive", id="sequence-ends-0"),
    # exact mode re-proves the M = 1 D squarefree, which no probable verdict matches
    pytest.param(_exact_probable_conditional, "squarefree verdict mismatch",
                 id="exact-probable-conditional"),
]


@pytest.mark.parametrize("mutate, reason", REJECTED_EDITS)
def test_rejects_one_field_edit(cert_m1, mutate, reason):
    obj = copy.deepcopy(cert_m1.to_json())
    mutate(obj)
    v = verify_certificate(obj)
    assert not v.accepted and reason in v.reason, v.reason


def _drop_bound(obj):
    del obj["squarefree"]["bound"]


def _drop_candidates(obj):
    del obj["pairs"][0]["candidates"]


def _negative_rank(obj):
    obj["M"] = -1
    obj["witnesses"] = []
    obj["pairs"] = []
    obj["conclusion"]["excluded_rank_le"] = -1


# malformed edits the CLI tests also run, for exit code 2
MALFORMED_EDITS = [
    pytest.param(_set(("D",), "0"), id="D-zero"),
    pytest.param(_set(("k",), "0"), id="k-zero"),
    pytest.param(_witnesses_as_object, id="witnesses-object"),
]


@pytest.mark.parametrize("mutate", [
    _set(("squarefree", "bound"), "abc"),
    _set(("squarefree", "bound"), True),       # a JSON bool is not an integer
    _set(("squarefree", "bound"), 10 ** 40),   # beyond the cap: unbounded work
    _set(("squarefree", "bound"), 1),          # below the floor
    _drop_bound,
    _set(("M",), True),
    _set(("M",), 0),
    _negative_rank,           # M = -1 once indexed an empty witness list
    _set(("witnesses", 0, "i"), True),
    _set(("pairs", 0, "i"), True),
    _set(("pairs", 0, "j"), False),
    _set(("conclusion", "excluded_rank_le"), True),
    _drop_candidates,
    _set(("pairs", 0, "candidates"), "garbage"),
    _set(("pairs", 0, "candidates"), True),
    _set(("pairs", 0, "candidates"), -1),
    _set(("version",), True),
] + MALFORMED_EDITS, ids=[
    "bound-str", "bound-bool", "bound-huge", "bound-1", "bound-missing",
    "M-bool", "M-zero", "M-negative", "witness-i-bool", "pair-i-bool",
    "pair-j-bool", "rank-bool", "candidates-missing", "candidates-str",
    "candidates-bool", "candidates-negative", "version-bool",
] + [p.id for p in MALFORMED_EDITS])
def test_malformed_integer_fields(cert_m1, mutate):
    obj = copy.deepcopy(cert_m1.to_json())
    mutate(obj)
    with pytest.raises(MalformedCertificate):
        verify_certificate(obj)


def test_bound_floor_is_well_formed(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["squarefree"]["bound"] = 2  # a weaker but true claim still verifies
    assert verify_certificate(obj).accepted


@pytest.mark.parametrize("i", [10 ** 6, 10 ** 6 + 1])
def test_rejects_witness_index_beyond_period(cert_m1, i):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["witnesses"][-1]["i"] = i
    t0 = time.perf_counter()
    v = verify_certificate(obj)
    assert time.perf_counter() - t0 < 1.0  # no convergent up to i is built
    assert not v.accepted
    if i % 2:
        assert "exceeds the period length 8" in v.reason


@pytest.mark.parametrize("mutate", [
    _set(("D",), "9" * (verify.MAX_DIGITS + 1)),
    _set(("witnesses", 0, "p"), "9" * (verify.MAX_DIGITS + 1)),
    _set(("sequence", 0), "-" + "9" * (verify.MAX_DIGITS + 1)),
], ids=["D", "witness-p", "sequence"])
def test_malformed_beyond_digit_limit(cert_m1, mutate):
    """A decimal field one digit over the verifier's cap is malformed."""
    obj = copy.deepcopy(cert_m1.to_json())
    mutate(obj)
    with pytest.raises(MalformedCertificate, match="over the verifier's cap"):
        verify_certificate(obj)


def test_decimal_round_trip_past_the_str_limit():
    """The generator's writer and reader and the verifier's parser take 30,000 digits,
    past Python's default 4300-digit int/str limit, and agree with a
    chunked Horner reference."""
    rng = random.Random(30_000)
    texts = ["1" + "0" * 29_999, "9" * 30_000,
             "".join(rng.choice("0123456789") for _ in range(30_000)).lstrip("0")]
    for text in texts + ["-" + texts[-1]]:
        digits = text.lstrip("-")
        want = 0
        for at in range(0, len(digits), 1000):
            chunk = digits[at:at + 1000]
            want = want * 10 ** len(chunk) + int(chunk)
        want = -want if text.startswith("-") else want
        assert verify._int(text, "field") == want
        assert to_decimal(want) == text and from_decimal(text) == want
    # at the cap itself a field still parses
    assert verify._int("7" * verify.MAX_DIGITS, "field") % 10 ** 6 == 777_777


def test_malformed_unparsable_json_values():
    with pytest.raises(MalformedCertificate):
        verify_certificate('{"version": 1, "M": ' + "9" * 5000 + "}")
    with pytest.raises(MalformedCertificate):
        verify_certificate("[" * 100_000)


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_HOSTILE = [True, False, [], [1], {}, {"i": 1}, -1, "9" * 5000, 10 ** 6, 10 ** 6 + 1]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzz_mutated_certificate_is_verdict_or_malformed(cert_m1, data):
    """Any mutation of a valid certificate ends in a Verdict or in
    MalformedCertificate, never another exception, and quickly."""
    text = cert_m1.dumps()
    obj = json.loads(text)
    kind = data.draw(st.sampled_from(["drop", "replace", "truncate"]))
    if kind == "truncate":
        cert = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        outer, key = data.draw(st.sampled_from(list(_paths(obj))))
        node = obj
        for step in outer:
            node = node[step]
        if kind == "drop":
            del node[key]
        else:
            node[key] = data.draw(st.sampled_from(_HOSTILE))
        cert = obj
    t0 = time.perf_counter()
    try:
        assert isinstance(verify_certificate(cert), Verdict)
    except MalformedCertificate:
        pass
    assert time.perf_counter() - t0 < 5.0


@st.composite
def attempt_boxes(draw):
    """Generic, C8-sized and skewed boxes in both D classes mod 4."""
    kind = draw(st.sampled_from(["generic", "c8", "skewed"]))
    if kind == "c8":
        D = 5
        S1 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
        S2 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
    else:
        D = draw(st.sampled_from([2, 3, 5, 13, 94, 393, 10 ** 12 + 39, 2 ** 61 + 1]))
        e = draw(st.integers(0, 100)) if kind == "skewed" else 0
        S1 = Fraction(draw(st.integers(1, 60)) << e, draw(st.integers(1, 9)))
        S2 = Fraction(draw(st.integers(1, 25)), draw(st.integers(1, 40)) << e)
    if draw(st.booleans()):
        S1, S2 = S2, S1
    return D, S1, S2


@settings(max_examples=200, deadline=None)
@given(box=attempt_boxes(), prec=st.integers(2, 128))
@example(box=(2, Fraction(18), Fraction(10, 19)), prec=11)
@example(box=(3, Fraction(4, 7), Fraction(33, 4)), prec=7)
def test_low_precision_attempt_is_none_or_exact(box, prec):
    """Below the production precision an attempt may give up, but whatever
    it returns is the complete box."""
    got = verify._vbox_attempt(*box, prec)
    assert got is None or got == box_enumerate(*box)


def test_precision_cap_follows_D(monkeypatch):
    """A ~110,000-bit D whose attempts fail below three times its bit length
    still gets its box; a fixed cap of 100,000 bits used to raise here."""
    D = 2 ** 110_000 + 1
    S1 = S2 = Fraction(3, 2)
    real = verify._vbox_attempt
    tried = []

    def attempt(D, S1, S2, prec):
        tried.append(prec)
        return None if prec < 3 * D.bit_length() else real(D, S1, S2, prec)

    monkeypatch.setattr(verify, "_vbox_attempt", attempt)
    assert verify._vbox_enumerate(D, S1, S2) == [(-1, 0), (0, 0), (1, 0)]
    assert tried[0] == D.bit_length()


def test_precision_cap_rejects_without_traceback(cert_m1, monkeypatch):
    monkeypatch.setattr(verify, "_vbox_attempt", lambda D, S1, S2, prec: None)
    v = verify_certificate(cert_m1.to_json())
    assert not v.accepted and "no rigorous bound" in v.reason


@settings(max_examples=150, deadline=None)
@given(box=attempt_boxes(), prec=st.integers(2, 128))
def test_gram_intervals_enclose_exact_values(box, prec):
    """Each integer Gram interval holds K times the exact Q(sqrt(D)) entry."""
    D, S1, S2 = box
    K, G11, G12, G22 = verify._vbox_gram(D, S1, S2, prec)
    w = omega_basis(D)
    i1, i2 = QD(D, 1 / S1 ** 2), QD(D, 1 / S2 ** 2)
    exact = (i1 + i2, w * i1 + w.conj() * i2, w * w * i1 + w.conj() * w.conj() * i2)
    for (lo, hi), g in zip((G11, G12, G22), exact):
        assert QD(D, lo) <= g * K <= QD(D, hi)
