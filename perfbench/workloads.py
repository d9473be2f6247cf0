"""Workload inputs, operations and output checks.

Every operation has a ``make`` phase (the library call that produces a
result) and a ``check`` phase (an independent check of that result), timed
separately.  ``check`` returns a list of failure messages; an empty list
means the operation succeeded.  Operations call the library through module
attributes (``certify.build_certificate``, not a name imported from it), so
the tracer's wrappers see them.

A pass is a list of operations built from (seed, pass index).  A run
measures whole passes only, so every run measures the same mix of work
whatever its length; traced runs repeat pass 0 so that their work counters
can be compared pass by pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

# sha256 of Certificate.dumps() for build_certificate(M): certificate
# format v1 must stay byte-identical
CERT_SHA256 = {
    2: "19bfadad25bd9d4ce8e4d693654bf47dbe2577e4b799204effbf5d7ce1f478e9",
    3: "699563e97b7613dcad74caf79649c448dd5862620129dc76ba0ca64d1148e2d5",
}

C8_FORM = "x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2"
C8_TRACE = 30
SWEEP_D_LIMIT = 500
SWEEP_Y_MAX = 1000
# fields per sweep pass: FIELDS_PER_CLASS[c] from the D ≡ 1 (mod 4) class
# (c = 1, which also audits half-integral elements) and from the rest (c = 0)
FIELDS_PER_CLASS = {0: 4, 1: 2}


@dataclass(frozen=True)
class Op:
    kind: str
    make: Callable[[], object]
    check: Callable[[object], List[str]]
    # latency statistics cover timed operations only; the negative control
    # is checked and counted as attempted, but it is not the measured work
    timed: bool = True


def _squarefree_below(limit):
    flags = bytearray([1]) * limit
    d = 2
    while d * d < limit:
        flags[d * d::d * d] = bytes(len(range(d * d, limit, d * d)))
        d += 1
    return [n for n in range(2, limit) if flags[n]]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _cert_op(M):
    from quadcert import certify, verify

    def make():
        cert = certify.build_certificate(M)
        return cert, cert.dumps()

    def check(made):
        cert, text = made
        errs = []
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != CERT_SHA256[M]:
            errs.append(f"M={M} certificate sha256 {digest} != pinned {CERT_SHA256[M]}")
        verdict = verify.verify_certificate(text)
        if not verdict.accepted:
            errs.append(f"M={M} certificate rejected: {verdict.reason}")
        return errs

    return Op("certify", make, check)


def _control_op():
    from quadcert import certify, verify
    from quadcert.qarith import QuadElem

    known = QuadElem(13, 3, 1, 2)  # (3 + sqrt(13))/2

    def make():
        return certify.build_certificate(1, force_D=13)

    def check(cert):
        errs = []
        if cert.soundness != "refuted":
            errs.append(f"D=13 control came out {cert.soundness!r}, not 'refuted'")
        if known not in cert.pair_checks[0].violators:
            errs.append("D=13 control lacks the violator (3+sqrt(13))/2")
        if verify.verify_certificate(cert.dumps()).accepted:
            errs.append("verifier accepted the D=13 refuted certificate")
        return errs

    return Op("control", make, check, timed=False)


def cert_pass(M):
    """The certificate input is fixed by M; the seed is only recorded."""
    ops = [_cert_op(M)]
    if M == 2:
        ops.insert(0, _control_op())
    return ops


# ---------------------------------------------------------------------------
# small-norm sweep (the C3 shape)
# ---------------------------------------------------------------------------

def sweep_fields(seed, index, small):
    """A seeded, cost-balanced sample of squarefree D < 500 for one pass.

    The oracle's cost grows with D and is higher when D ≡ 1 (mod 4), so each
    D-mod-4 class is sorted by D and cut into equal strata, and every
    stratum gives the two fields at mirrored seeded offsets o and
    stride - 1 - o.  A shift of o then moves the two costs in opposite
    directions, and every seed gets about the same total work.  Each pass
    index draws a fresh sample, so a run sees more fields than one pass has.
    """
    pool = _squarefree_below(SWEEP_D_LIMIT)
    rng = random.Random(f"{seed}/{index}")
    fields = []
    for cls, n in FIELDS_PER_CLASS.items():
        members = [D for D in pool if (D % 4 == 1) == cls]
        if small:
            members, n = members[:4], 2
        stride = len(members) // (n // 2)
        offset = rng.randrange(stride // 2)
        for start in range(0, stride * (n // 2), stride):
            fields += [members[start + offset], members[start + stride - 1 - offset]]
    rng.shuffle(fields)
    return fields


def _field_op(D):
    from quadcert import smallnorm

    def make():
        return smallnorm.audit_lemma(D, SWEEP_Y_MAX)

    def check(report):
        errs = []
        if not report.all_matched:
            errs.append(f"D={D}: {len(report.unmatched)} small-norm elements unmatched")
        for bound in (Fraction(1, 2), Fraction(1, 8)):
            window = [(e.mu, e.norm) for e in smallnorm.enumerate_small_norm(D, bound, SWEEP_Y_MAX)]
            naive = [(e.mu, e.norm) for e in smallnorm.naive_enumerate(D, bound, SWEEP_Y_MAX)]
            if window != naive:
                errs.append(f"D={D}, bound {bound}: window and naive enumerations differ")
        return errs

    return Op("field", make, check)


def sweep_pass(seed, index, small):
    return [_field_op(D) for D in sweep_fields(seed, index, small)]


# ---------------------------------------------------------------------------
# representability (the C8 shape)
# ---------------------------------------------------------------------------

def _target_op(form, target):
    from quadcert import certify

    def make():
        return certify.decide_represent(form, target)

    def check(res):
        if res.status != "found":
            return [f"target {target}: {res.status}"]
        if form.evaluate(res.vector) != target:
            return [f"target {target}: form(vector) != target"]
        return []

    return Op("target", make, check)


def represent_pass(seed, index, small):
    """Every totally positive target of trace <= 30, in a seeded order."""
    from quadcert import certify
    form = certify.parse_form(C8_FORM, 5)
    targets = certify.totally_positive_up_to(5, 6 if small else C8_TRACE)
    random.Random(seed).shuffle(targets)
    return [_target_op(form, t) for t in targets]


# name -> (why, builder of one pass from (seed, pass index, small))
WORKLOADS = {
    "cert-m2": (
        "M=2 certify+verify (293-digit D) plus the D=13 negative control: "
        "squarefree trial division and the y-scan pair boxes dominate",
        lambda seed, index, small: cert_pass(2)),
    "cert-m3": (
        "M=3 certify+verify (2632-digit D): bignum Gauss and verifier enumeration; "
        "about 50 s per pass, so not in BENCHMARK.json",
        lambda seed, index, small: cert_pass(3)),
    "smallnorm-sweep": (
        "C3 shape: audit_lemma plus window-vs-naive checks on seeded squarefree "
        "D < 500; the naive oracle dominates and no certificate layer runs",
        sweep_pass),
    "represent-c8": (
        "C8 shape: decide_represent on all 207 targets of trace <= 30 over "
        "Q(sqrt5); many tiny y-scan boxes and exact Schur arithmetic",
        represent_pass),
}
