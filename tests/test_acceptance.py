"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
every criterion carries its stated wall-clock budget and zero-violation
requirement.
"""

import copy
import json
import random
import time
from fractions import Fraction

import pytest

from quadcert.certify import (
    build_certificate,
    decide_represent,
    parse_form,
    totally_positive_up_to,
)
from quadcert.contfrac import alpha, bound_checks_stream, convergent_iter, expand_sqrt
from quadcert.friesen import SymSequence, derive_D, parity_condition, search_k
from quadcert.qarith import QuadElem
from quadcert.smallnorm import audit_lemma, enumerate_small_norm, naive_enumerate, power_trace
from quadcert.verify import verify_certificate

from .conftest import squarefree_sieve


def _report(name: str, elapsed: float, budget: float, detail: str = ""):
    line = f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s)"
    if detail:
        line += f" — {detail}"
    print(line)
    assert elapsed <= budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_c01_cf_ground_truth():
    """Criterion 1: CF invariants for all squarefree nonsquare D < 10,000."""
    t0 = time.time()
    violations = 0
    fields = 0
    for D in squarefree_sieve(10_000):
        e = expand_sqrt(D)
        fields += 1
        s = e.s
        per = e.period
        if per[-1] != 2 * e.k or any(per[i] != per[s - 2 - i] for i in range(s - 1)):
            violations += 1
            continue
        # minimality: no proper divisor block repeats
        for ell in range(1, s):
            if s % ell == 0 and per[:ell] * (s // ell) == per:
                if ell != s:
                    violations += 1
                break
        # one pass over a period (+1): determinant, norm signs, recurrence
        prev = None
        prev2 = None
        for c in convergent_iter(e):
            if c.i > s:
                break
            N = c.p * c.p - D * c.q * c.q
            if (N > 0) != (c.i % 2 == 1):
                violations += 1
            if c.i == s - 1 and N != (-1) ** s:
                violations += 1
            if prev is not None:
                if c.p * prev.q - prev.p * c.q != (-1) ** (c.i - 1):
                    violations += 1
            if prev2 is not None:
                u = e.u(c.i)
                if c.p != u * prev.p + prev2.p or c.q != u * prev.q + prev2.q:
                    violations += 1
            prev2, prev = prev, c
    assert violations == 0
    _report("C1 cf-ground-truth", time.time() - t0, 120, f"{fields} fields")


def test_c02_fraction_and_norm_bounds():
    """Criterion 2: both bound pairs strict over two periods, D < 10,000."""
    t0 = time.time()
    bad = 0
    checked = 0
    for D in squarefree_sieve(10_000):
        e = expand_sqrt(D)
        for c, fb, nb in bound_checks_stream(e, 2 * e.s):
            checked += 1
            if not (fb.lower_holds and fb.upper_holds and nb.lower_holds and nb.upper_holds):
                bad += 1
    assert bad == 0
    _report("C2 bound-inequalities", time.time() - t0, 300, f"{checked} convergents")


def test_c03_small_norm_lemma():
    """Criterion 3: lemma audit + naive oracle agreement, D < 500, y <= 10^3."""
    t0 = time.time()
    unmatched = 0
    mismatches = 0
    for D in squarefree_sieve(500):
        rep = audit_lemma(D, 1000)
        unmatched += len(rep.unmatched)
        for bound in (Fraction(1, 2), Fraction(1, 8)):
            a = [(x.mu, x.norm) for x in enumerate_small_norm(D, bound, 1000)]
            b = [(x.mu, x.norm) for x in naive_enumerate(D, bound, 1000)]
            if a != b:
                mismatches += 1
    assert unmatched == 0 and mismatches == 0
    _report("C3 small-norm-lemma", time.time() - t0, 300)


def test_c04_friesen():
    """Criterion 4: parity examples, derive examples, k^2+1 family to 100."""
    t0 = time.time()
    assert parity_condition(SymSequence((1,))) is True
    assert parity_condition(SymSequence((1, 1))) is False
    assert parity_condition(SymSequence(())) is True
    assert derive_D(1, SymSequence((1,))) == 3
    d8 = derive_D(2, SymSequence((1,)))
    assert d8 == 8
    from quadcert.qarith import squarefree_status

    assert squarefree_status(8, mode="exact").verdict == "not-squarefree"
    assert derive_D(1, SymSequence((2,))) is None
    hits = search_k(SymSequence(()), (1, 100), sf_mode="exact")
    assert [(h.k, h.D) for h in hits] == [(k, k * k + 1) for k in range(1, 101)]
    assert all(h.roundtrip_verified for h in hits)
    for h in hits:
        e = expand_sqrt(h.D)
        assert e.k == h.k and e.period == (2 * h.k,)
    _report("C4 friesen", time.time() - t0, 60)


def test_c05_end_to_end_m1(cert_m1):
    """Criterion 5: M=1 certificate, squarefree proved, verified."""
    t0 = time.time()
    cert = cert_m1
    assert cert.seq.values == (2, 8, 512, 134217728, 512, 8, 2)
    assert cert.squarefree.verdict == "squarefree-proved"
    assert cert.soundness == "proved"
    assert all(not p.violators for p in cert.pair_checks)
    assert cert.excluded_rank_le == 1
    assert "no universal totally positive" in cert.conclusion_text()
    v = verify_certificate(cert.to_json())
    assert v.accepted, v.reason
    _report("C5 m1-certificate", time.time() - t0, 600,
            f"D has {len(str(cert.D))} digits, k = {cert.k}")


def test_c06_end_to_end_m2(cert_m2):
    """Criterion 6: M=2 certificate in probable mode, conditional label."""
    t0 = time.time()
    cert = cert_m2
    assert cert.squarefree.mode == "probable"
    assert cert.squarefree.verdict == "probably-squarefree"
    assert cert.soundness == "conditional"
    assert len(cert.pair_checks) == 3
    assert all(not p.violators for p in cert.pair_checks)
    v = verify_certificate(cert.to_json())
    assert v.accepted, v.reason
    _report("C6 m2-certificate", time.time() - t0, 600,
            f"D has {len(str(cert.D))} digits")


def test_c07_negative_control(cert_refuted_13):
    """Criterion 7: forced witnesses on D = 13 produce the known violator."""
    t0 = time.time()
    cert = cert_refuted_13
    assert cert.soundness == "refuted"
    viol = cert.pair_checks[0].violators
    assert QuadElem(13, 3, 1, 2) in viol  # c = (3+sqrt(13))/2
    assert not verify_certificate(cert.to_json()).accepted
    _report("C7 negative-control", time.time() - t0, 60)


def test_c08_deutsch_demo():
    """Criterion 8: x^2+xy+y^2+z^2+zw+w^2 represents trace <= 20 over Q(sqrt5)."""
    t0 = time.time()
    form = parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5)
    assert form.is_totally_positive_definite()
    targets = totally_positive_up_to(5, 20)
    assert targets, "target generator came back empty"
    missing = []
    for tgt in targets:
        res = decide_represent(form, tgt)
        if res.status != "found":
            missing.append(tgt)
        else:
            assert form.evaluate(res.vector) == tgt
    assert missing == []
    _report("C8 deutsch-universality", time.time() - t0, 300,
            f"{len(targets)} targets")


def test_c09_power_trace():
    """Criterion 9: qualifying alpha_i^2 always located, D < 2,000."""
    t0 = time.time()
    failures = 0
    located = 0
    for D in squarefree_sieve(2_000):
        e = expand_sqrt(D)
        for i in range(e.s):
            a = alpha(e, i)
            N = abs(a.norm())
            # gate: |N(alpha_i)|^2 < sqrt(D)/2 and value > 1 and primitive square
            if 4 * N ** 4 >= D:
                continue
            p = a * a
            from math import gcd

            if gcd(p.a, p.b) != 1:
                continue
            if (p - QuadElem(D, 1, 0)).sign() <= 0:
                continue
            rep = power_trace(e, i, 2)
            if rep.located_index is None:
                failures += 1
            else:
                located += 1
                # testable kernel of the coefficient corollary: the norm
                # bounds at the located index sandwich |N(alpha_i)|^2
                from quadcert.contfrac import check_norm_bounds

                nb = check_norm_bounds(e, rep.located_index)
                assert nb.lower_holds and nb.upper_holds
                assert abs(nb.norm) == N * N
    assert failures == 0
    _report("C9 power-trace", time.time() - t0, 300, f"{located} locations")


def test_c10_verifier_mutations(cert_m1, cert_m2):
    """Criterion 10: 100 single-field tampers rejected; untouched accepted."""
    t0 = time.time()
    assert verify_certificate(cert_m1.to_json()).accepted
    assert verify_certificate(cert_m2.to_json()).accepted

    rng = random.Random(13)
    rejected = 0
    tried = 0

    def mutations(base_obj, heavy_mode_flip: bool):
        """Schema-valid single-field tampers.  Fields whose stored values the
        verifier deliberately never trusts (candidate counts, trial bounds)
        are not tampered: a weaker-but-true claim still verifies."""
        obj = copy.deepcopy(base_obj)
        field = rng.choice(
            ["D", "k", "seq", "M", "wit_i", "wit_p", "wit_q",
             "pair_idx", "violator", "rank", "soundness", "verdict"]
            + (["mode"] if heavy_mode_flip else [])
        )
        if field == "D":
            obj["D"] = str(int(obj["D"]) + rng.choice([-2, -1, 1, 2, 10, 100]))
        elif field == "k":
            obj["k"] = str(int(obj["k"]) + rng.choice([-1, 1]))
        elif field == "seq":
            i = rng.randrange(len(obj["sequence"]))
            obj["sequence"][i] = str(int(obj["sequence"][i]) + 1)
        elif field == "M":
            obj["M"] += rng.choice([-1, 1]) if obj["M"] > 1 else 1
        elif field == "wit_i":
            w = rng.choice(obj["witnesses"])
            w["i"] += 2
        elif field == "wit_p":
            w = rng.choice(obj["witnesses"])
            w["p"] = str(int(w["p"]) + rng.choice([-1, 1]))
        elif field == "wit_q":
            w = rng.choice(obj["witnesses"])
            w["q"] = str(int(w["q"]) + 1)
        elif field == "pair_idx":
            p = rng.choice(obj["pairs"])
            p["j"] += 2
        elif field == "violator":
            p = rng.choice(obj["pairs"])
            p["violators"] = ["2+0*sqrt(%s)" % obj["D"]]
        elif field == "rank":
            obj["conclusion"]["excluded_rank_le"] += rng.choice([-1, 1])
        elif field == "soundness":
            cur = obj["conclusion"]["soundness"]
            obj["conclusion"]["soundness"] = "conditional" if cur == "proved" else "proved"
        elif field == "verdict":
            obj["squarefree"]["verdict"] = rng.choice(
                ["not-squarefree", "probably-squarefree", "squarefree-proved"])
            if obj["squarefree"]["verdict"] == base_obj["squarefree"]["verdict"]:
                obj["squarefree"]["verdict"] = "not-squarefree"
            if obj["squarefree"]["verdict"] == "not-squarefree":
                obj["squarefree"]["witness"] = "3"
        elif field == "mode":
            obj["squarefree"]["mode"] = (
                "probable" if obj["squarefree"]["mode"] == "exact" else "exact")
        return obj, field

    m1 = cert_m1.to_json()
    m2 = cert_m2.to_json()
    while tried < 100:
        # mode flips only on the cheap-to-reprove M=1 certificate
        use_m1 = tried % 2 == 0
        obj, field = mutations(m1 if use_m1 else m2, heavy_mode_flip=use_m1)
        base = m1 if use_m1 else m2
        if json.dumps(obj, sort_keys=True) == json.dumps(base, sort_keys=True):
            continue  # mutation landed on the original value; redraw
        tried += 1
        v = verify_certificate(obj)
        if not v.accepted:
            rejected += 1
        else:
            print(f"  !! mutation of {field} was accepted")
    assert rejected == 100, f"only {rejected}/100 mutations rejected"
    assert verify_certificate(cert_m1.to_json()).accepted
    assert verify_certificate(cert_m2.to_json()).accepted
    _report("C10 verifier-mutations", time.time() - t0, 600)
