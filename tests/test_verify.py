import copy
import json

import pytest

from quadcert.verify import MalformedCertificate, verify_certificate


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


def test_rejects_nonsquarefree_D_substitution(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    # 8 has the right shape of fields but is not squarefree (and wrong period)
    obj["D"] = "8"
    obj["k"] = "2"
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


def _drop_bound(obj):
    del obj["squarefree"]["bound"]


def _negative_rank(obj):
    obj["M"] = -1
    obj["witnesses"] = []
    obj["pairs"] = []
    obj["conclusion"]["excluded_rank_le"] = -1


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
], ids=["bound-str", "bound-bool", "bound-huge", "bound-1", "bound-missing",
        "M-bool", "M-zero", "M-negative", "witness-i-bool", "pair-i-bool",
        "pair-j-bool", "rank-bool"])
def test_malformed_integer_fields(cert_m1, mutate):
    obj = copy.deepcopy(cert_m1.to_json())
    mutate(obj)
    with pytest.raises(MalformedCertificate):
        verify_certificate(obj)


def test_bound_floor_is_well_formed(cert_m1):
    obj = copy.deepcopy(cert_m1.to_json())
    obj["squarefree"]["bound"] = 2  # a weaker but true claim still verifies
    assert verify_certificate(obj).accepted
