import hashlib
from fractions import Fraction
from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import certify, latbox
from quadcert.certify import (
    CertificateError,
    QuadraticForm,
    RepresentResult,
    _elem_to_qd,
    _inverse_diagonal,
    _qd_to_elem,
    _udu,
    build_certificate,
    decide_represent,
    pair_refute,
    parse_form,
    select_witnesses,
    totally_positive_up_to,
)
from quadcert.contfrac import alpha, expand_sqrt
from quadcert.latbox import box_enumerate, box_enumerate_scan, coords_to_elem
from quadcert.qarith import QuadElem, format_elem, succeq
from quadcert.qd import QD, frac_sqrt_outer, sqrt_in_field
from quadcert.verify import verify_certificate


def test_select_witnesses_default_schema(cert_m1):
    e = expand_sqrt(cert_m1.D, max_steps=10)
    ws = select_witnesses(e, 1)
    assert ws.indices == (1, 3)
    ws2 = select_witnesses(e, 2) if e.r >= 5 else None
    if ws2:
        assert ws2.indices == (1, 3, 5)


def test_select_witnesses_period_too_short():
    with pytest.raises(CertificateError):
        select_witnesses(expand_sqrt(13), 1)  # r = 2 < 3


@pytest.mark.parametrize("bound", [0, 1, 10 ** 9 + 1, True])
def test_build_refuses_bound_the_verifier_calls_malformed(bound):
    with pytest.raises(ValueError, match="squarefree bound"):
        build_certificate(1, sf_mode="probable", sf_bound=bound)


def test_build_at_bound_floor_verifies():
    cert = build_certificate(1, sf_mode="probable", sf_bound=2)
    assert cert.soundness == "conditional"
    assert verify_certificate(cert.to_json()).accepted


def test_select_witnesses_validation():
    e = expand_sqrt(13)
    with pytest.raises(ValueError):
        select_witnesses(e, 1, indices=(1, 2), force=True)  # even index
    with pytest.raises(ValueError):
        select_witnesses(e, 1, indices=(3, 1), force=True)  # not ascending
    with pytest.raises(ValueError):
        select_witnesses(e, 1, indices=(1, 1), force=True)  # duplicate
    with pytest.raises(ValueError):
        select_witnesses(e, 1, indices=(1, 3, 5), force=True)  # not M + 1 indices
    with pytest.raises(CertificateError, match="period length 16"):
        select_witnesses(expand_sqrt(94), 1, indices=(5, 31), force=True)  # past s = 16
    assert select_witnesses(expand_sqrt(94), 1, indices=(5, 15), force=True).indices == (5, 15)
    ws = select_witnesses(e, 1, indices=(1, 3), force=True)
    assert [w.is_totally_positive() for w in ws.witnesses] == [True, True]


def test_pair_refute_d13_example():
    e = expand_sqrt(13)
    a1, a3 = alpha(e, 1), alpha(e, 3)
    assert (a1, a3) == (QuadElem(13, 4, 1), QuadElem(13, 11, 3))
    pc = pair_refute(13, a1, a3)
    assert QuadElem(13, 3, 1, 2) in pc.violators  # c = (3+sqrt(13))/2
    c = QuadElem(13, 3, 1, 2)
    assert c * c == QuadElem(13, 11, 3, 2)
    assert succeq(4 * a1 * a3, c * c)


def test_pair_refute_rational_case():
    one = QuadElem(5, 1, 0)
    pc = pair_refute(5, one, one)
    vs = set(pc.violators)
    for v in (QuadElem(5, 1, 0), QuadElem(5, -1, 0), QuadElem(5, 2, 0), QuadElem(5, -2, 0)):
        assert v in vs
    assert QuadElem(5, 0, 0) not in vs


def test_pair_refute_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pair_refute(13, QuadElem(13, 1, 1), QuadElem(13, 4, 1))  # not totally positive


def test_pair_refute_clean_on_constructed_field(cert_m1):
    pc = cert_m1.pair_checks[0]
    assert (pc.i, pc.j) == (1, 3)
    assert pc.violators == ()
    assert pc.candidates_tested >= 1


def test_certificate_m1(cert_m1):
    assert cert_m1.soundness == "proved"
    assert cert_m1.squarefree.proved
    assert cert_m1.excluded_rank_le == 1
    assert cert_m1.seq.values == (2, 8, 512, 134217728, 512, 8, 2)
    assert "rank <= 1" in cert_m1.conclusion_text()
    e = expand_sqrt(cert_m1.D, max_steps=10)
    assert e.k == cert_m1.k
    assert e.period == cert_m1.seq.values + (2 * cert_m1.k,)


def test_certificate_m2(cert_m2):
    assert cert_m2.soundness == "conditional"
    assert cert_m2.squarefree.verdict == "probably-squarefree"
    assert cert_m2.excluded_rank_le == 2
    assert len(cert_m2.pair_checks) == 3
    assert all(not p.violators for p in cert_m2.pair_checks)
    assert "conditional" in cert_m2.conclusion_text()


# sha256 of build_certificate(3).dumps(), as pinned by the cert-m3 benchmark
# workload; the pair `candidates` counts are part of these bytes
M3_SHA256 = "699563e97b7613dcad74caf79649c448dd5862620129dc76ba0ca64d1148e2d5"


def test_m3_certificate_pinned(cert_m3):
    """The M = 3 certificate (2632-digit D, six astronomically skewed pair
    boxes) builds byte-identically and the verifier accepts it."""
    text = cert_m3.dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == M3_SHA256
    v = verify_certificate(text)
    assert v.accepted, v.reason


def test_certificate_refuted_d13(cert_refuted_13):
    assert cert_refuted_13.soundness == "refuted"
    viol = cert_refuted_13.pair_checks[0].violators
    assert QuadElem(13, 3, 1, 2) in viol


def test_certificate_json_schema(cert_m1):
    obj = cert_m1.to_json()
    assert int(obj["D"]) == cert_m1.D and int(obj["k"]) == cert_m1.k
    assert tuple(int(u) for u in obj["sequence"]) == cert_m1.seq.values
    assert [QuadElem(cert_m1.D, int(w["p"]), int(w["q"])) for w in obj["witnesses"]] \
        == list(cert_m1.witness_set.witnesses)
    # schema details: decimal strings everywhere
    assert isinstance(obj["D"], str) and isinstance(obj["k"], str)
    assert all(isinstance(u, str) for u in obj["sequence"])
    assert all(isinstance(w["p"], str) for w in obj["witnesses"])
    assert obj["conclusion"]["soundness"] == "proved"


# ---------------------------------------------------------------------------
# forms and the decider
# ---------------------------------------------------------------------------

def test_parse_form_deutsch():
    f = parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5)
    assert f.n == 4
    assert f.coeff(1, 2) == QuadElem(5, 1, 0)
    assert f.coeff(1, 3) == QuadElem(5, 0, 0)
    assert f.is_totally_positive_definite()


def test_parse_form_coefficients():
    f = parse_form("2 x1^2 - x1 x2 + (1+1*sqrt(5))/2 x2^2", 5)
    assert f.coeff(1, 1) == QuadElem(5, 2, 0)
    assert f.coeff(1, 2) == QuadElem(5, -1, 0)
    assert f.coeff(2, 2) == QuadElem(5, 1, 1, 2)
    with pytest.raises(ValueError):
        parse_form("x1", 5)  # not quadratic
    with pytest.raises(ValueError):
        parse_form("", 5)
    # a trailing sign used to be dropped, so a truncated form parsed as another
    for text in ("x1^2 + x2^2 +", "x1^2 -"):
        with pytest.raises(ValueError):
            parse_form(text, 5)
    # leading and repeated unary signs still parse
    assert parse_form("- x1^2", 5).coeff(1, 1) == QuadElem(5, -1, 0)
    assert parse_form("x1^2 - -x2^2", 5).coeff(2, 2) == QuadElem(5, 1, 0)


def test_parse_form_rejects_variable_zero():
    # x0 used to be accepted and then dropped by gram/evaluate, so
    # "x0^2 + x1^2" became the unary x1^2 and 2 read as impossible
    for text in ("x0^2 + x1^2", "x0 x1 + x1^2", "x1^2 + x00^2"):
        with pytest.raises(ValueError):
            parse_form(text, 5)


def test_positive_definiteness_check():
    assert parse_form("x1^2 + x2^2", 13).is_totally_positive_definite()
    assert not parse_form("x1^2 - x2^2", 13).is_totally_positive_definite()
    # 1+sqrt(13) is positive but not totally positive
    f = parse_form("(1+1*sqrt(13)) x1^2", 13)
    assert not f.is_totally_positive_definite()
    # indefinite form rejected by the decider
    with pytest.raises(ValueError):
        decide_represent(parse_form("x1^2 - x2^2", 13), QuadElem(13, 1, 0))


def test_form_evaluate():
    f = parse_form("x1^2 + x1 x2 + x2^2", 5)
    v = (QuadElem(5, 1, 1, 2), QuadElem(5, 1, 0))
    # phi^2 + phi + 1 where phi = (1+sqrt5)/2
    phi = QuadElem(5, 1, 1, 2)
    assert f.evaluate(v) == phi * phi + phi + 1


def _sum_evaluate(form: QuadraticForm, v) -> QuadElem:
    """The QuadElem sum sum_{i<=j} a_ij v_i v_j, the oracle for the integer
    evaluation (and the form's evaluate before it)."""
    if len(v) != form.n:
        raise ValueError("vector length mismatch")
    total = QuadElem(form.D, 0, 0)
    for i in range(1, form.n + 1):
        for j in range(i, form.n + 1):
            c = form.coeff(i, j)
            if c.a == 0 and c.b == 0:
                continue
            total = total + c * v[i - 1] * v[j - 1]
    return total


def _elems(D: int, size: int):
    """Elements of O_K, half-integral ones too when D ≡ 1 (mod 4)."""
    pair = st.tuples(st.integers(-size, size), st.integers(-size, size))
    if D % 4 != 1:
        return pair.map(lambda ab: QuadElem(D, *ab))
    return st.tuples(pair, st.booleans()).map(
        lambda t: QuadElem(D, 2 * t[0][0] + t[1], 2 * t[0][1] + t[1], 2))


@st.composite
def forms_and_vectors(draw):
    """Any form of arity <= 5 (zero, repeated and out-of-range entries
    included: the first entry for (i, j) counts) and a vector of its length."""
    D = draw(st.sampled_from((2, 3, 5, 13, 94, 2011)))
    n = draw(st.integers(1, 5))
    index = st.integers(1, n + 1)
    coeffs = draw(st.lists(st.tuples(index, index, _elems(D, 10)), max_size=18))
    vec = draw(st.lists(_elems(D, draw(st.sampled_from((3, 10 ** 6)))), min_size=n, max_size=n))
    return QuadraticForm(D=D, n=n, coeffs=tuple(coeffs)), tuple(vec)


@settings(max_examples=200, deadline=None)
@given(case=forms_and_vectors())
def test_evaluate_matches_quadelem_sum(case):
    form, v = case
    assert form.evaluate(v) == _sum_evaluate(form, v)


def test_evaluate_refuses_what_the_sum_refuses():
    """A wrong length, an entry over another field and an entry of another
    type raise what the QuadElem sum raises; a plain int is an element."""
    f = parse_form("x1^2 + x1 x2 + 3 x2^2", 5)
    one = QuadElem(5, 1, 0)
    for v, exc in (((one,), ValueError), ((one, one, one), ValueError),
                   ((one, QuadElem(13, 1, 0)), ValueError), ((QuadElem(2, 0, 1), one), ValueError),
                   ((one, 1.5), TypeError)):
        with pytest.raises(exc) as want:
            _sum_evaluate(f, v)
        with pytest.raises(exc) as got:
            f.evaluate(v)
        assert str(got.value) == str(want.value)
    assert f.evaluate((2, one)) == _sum_evaluate(f, (2, one)) == QuadElem(5, 9, 0)


def test_coefficient_table_reads_like_the_coefficients():
    """coeff and gram read the table built at construction; equal forms stay
    equal and hash alike whatever the table holds."""
    c = QuadElem(5, 1, 1, 2)
    f = QuadraticForm(D=5, n=2, coeffs=((1, 1, c), (1, 2, QuadElem(5, -3, 0)),
                                        (1, 1, QuadElem(5, 7, 0)), (2, 3, c)))
    assert f.coeff(1, 1) == c and f.coeff(2, 1) == QuadElem(5, -3, 0)
    assert f.coeff(2, 2) == QuadElem(5, 0, 0)
    assert f.gram() == [[QD(5, 1, 1, 2), QD(5, -3, 0, 2)], [QD(5, -3, 0, 2), QD(5, 0)]]
    g = QuadraticForm(D=5, n=2, coeffs=f.coeffs)
    assert f == g and hash(f) == hash(g) and "_table" not in repr(f)


# sha256 over (status, vector, candidates, nodes) and Q(vector) of every
# decide_represent result below, as the QuadElem-sum evaluate gave them
REPRESENT_SHA256 = "4497bafa0391899a9cf150885f221051e07dbe222318cb09d6ad4b084131012d"


def _represent_digest(D1: int, alphas) -> str:
    """The C8 grid (trace <= 30); every other totally positive definite form
    of this file against every totally positive target of trace <= 20; and
    the unary forms of test_witness_blocks_low_rank_forms over the M = 1
    field D1 against its witnesses alphas and the rationals 1..10."""
    cases = [(parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5), t)
             for t in totally_positive_up_to(5, 30)]
    for text, D in (("x1^2 + x1 x2 + 3 x2^2", 5), ("x1^2 + x2^2", 2), ("x1^2 + x2^2", 13),
                    ("x1^2 + x1 x2 + x2^2", 5), ("(3+2*sqrt(2)) x1^2", 2),
                    ("(7+3*sqrt(5))/2 x1^2", 5)):
        form = parse_form(text, D)
        assert form.is_totally_positive_definite()
        cases += [(form, t) for t in totally_positive_up_to(D, 20)]
    for a11 in (26, 25, 13, 39, 12, 15, 16, 9, 1, 2):
        form = parse_form(f"{a11} x1^2", D1)
        cases += [(form, t) for t in list(alphas) + totally_positive_up_to(D1, 20)]
    h = hashlib.sha256()
    for form, target in cases:
        r = decide_represent(form, target)
        h.update(repr((r.status, r.vector, r.candidates_per_coordinate, r.nodes_visited,
                       r.vector and form.evaluate(r.vector))).encode())
    return h.hexdigest()


def test_represent_results_pinned(cert_m1):
    e = expand_sqrt(cert_m1.D, max_steps=10)
    assert _represent_digest(cert_m1.D, (alpha(e, 1), alpha(e, 3))) == REPRESENT_SHA256


def test_decide_represent_found():
    f = parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5)
    r = decide_represent(f, QuadElem(5, 1, 0))
    assert r.status == "found"
    assert f.evaluate(r.vector) == QuadElem(5, 1, 0)


def test_decide_represent_impossible_unary(cert_m1):
    e = expand_sqrt(cert_m1.D, max_steps=10)
    a3 = alpha(e, 3)
    r = decide_represent(parse_form("x1^2", cert_m1.D), a3)
    assert r.status == "impossible"


def test_decide_represent_distinct_boxes():
    """Coordinates with different boxes keep their own candidate lists.

    x1^2 + x1 x2 + 3 x2^2 has Gram [[1, 1/2], [1/2, 3]], so B^-1 has the
    diagonal (12/11, 4/11): the two coordinate boxes differ.  Both verdicts
    are confirmed by brute force over the y-scan's boxes.
    """
    D = 5
    f = parse_form("x1^2 + x1 x2 + 3 x2^2", D)
    binv_diag = (Fraction(12, 11), Fraction(4, 11))
    for target, status in ((QuadElem(D, 5, 0), "found"),
                           (QuadElem(D, 11, 1, 2), "impossible")):
        r = decide_represent(f, target)
        assert r.status == status
        tgt = QD(D, Fraction(target.a, target.den), Fraction(target.b, target.den))
        boxes = []
        for d in binv_diag:
            S1 = frac_sqrt_outer((tgt * d).upper_frac(24), 24)
            S2 = frac_sqrt_outer((tgt.conj() * d).upper_frac(24), 24)
            boxes.append([coords_to_elem(D, x, y) for x, y in box_enumerate_scan(D, S1, S2)])
        assert r.candidates_per_coordinate == tuple(len(b) for b in boxes)
        assert len(boxes[0]) != len(boxes[1])
        hits = [(u, v) for u in boxes[0] for v in boxes[1] if f.evaluate((u, v)) == target]
        assert bool(hits) == (status == "found"), target
        if status == "found":
            assert f.evaluate(r.vector) == target


def test_production_never_calls_the_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("production code called box_enumerate_scan")

    monkeypatch.setattr(latbox, "box_enumerate_scan", refuse)
    assert build_certificate(1).soundness == "proved"
    assert build_certificate(1, force_D=13).soundness == "refuted"
    f = parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5)
    assert decide_represent(f, QuadElem(5, 7, 1, 2)).status == "found"


def test_decide_represent_factors_each_form_once(monkeypatch):
    calls = []
    real_udu = certify._udu
    monkeypatch.setattr(certify, "_udu", lambda B: calls.append(B) or real_udu(B))
    certify._form_factor.cache_clear()
    text = "x1^2 + x1 x2 + 3 x2^2"
    targets = totally_positive_up_to(5, 12)
    first = [decide_represent(parse_form(text, 5), t) for t in targets]
    assert {r.status for r in first} == {"found", "impossible"}
    assert len(calls) == 1  # an equal form parsed again shares the entry
    # the search leaves the shared factor as it found it
    assert [decide_represent(parse_form(text, 5), t) for t in targets] == first
    assert len(calls) == 1
    U, d = real_udu(parse_form(text, 5).gram())
    assert certify._form_factor(parse_form(text, 5)) \
        == (tuple(map(tuple, U)), tuple(d), tuple(_inverse_diagonal(U, d)))


def test_c8_target_computes_one_box(monkeypatch):
    """Every coordinate of the C8 form has the B^-1 diagonal entry 4/3, so
    each target computes one coordinate box and enumerates it once."""
    boxes, enums = [], []
    real_box, real_enum = certify._coordinate_box, certify.box_enumerate
    monkeypatch.setattr(certify, "_coordinate_box", lambda *a: boxes.append(a) or real_box(*a))
    monkeypatch.setattr(certify, "box_enumerate", lambda *a: enums.append(a) or real_enum(*a))
    f = parse_form("x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2", 5)
    for k, target in enumerate(totally_positive_up_to(5, 10), 1):
        r = decide_represent(f, target)
        assert r.status == "found" and len(r.candidates_per_coordinate) == 4
        assert (len(boxes), len(enums)) == (k, k)


def test_decide_represent_sum_two_squares():
    f = parse_form("x1^2 + x2^2", 2)
    r = decide_represent(f, QuadElem(2, 4, 2))  # (1+sqrt2)^2 + 1^2 = 4+2sqrt2
    assert r.status == "found"
    assert f.evaluate(r.vector) == QuadElem(2, 4, 2)
    r2 = decide_represent(f, QuadElem(2, 3, -2))  # totally positive, norm 1
    assert r2.status in ("found", "impossible")  # decided either way, exactly
    if r2.status == "found":
        assert f.evaluate(r2.vector) == QuadElem(2, 3, -2)


def test_witness_blocks_low_rank_forms(cert_m1):
    """Theorem made executable: rank-1 forms miss at least one witness.

    Spot check over a corpus of random totally positive unary forms — the
    proved certificate promises every form of arity <= w-1 = 1 fails."""
    import random

    e = expand_sqrt(cert_m1.D, max_steps=10)
    witnesses = [alpha(e, 1), alpha(e, 3)]
    rng = random.Random(99)
    corpus = [QuadElem(cert_m1.D, rng.randrange(1, 50), 0) for _ in range(8)]
    corpus += [QuadElem(cert_m1.D, 1, 0), QuadElem(cert_m1.D, 2, 0)]
    for a11 in corpus:
        assert a11.is_totally_positive()
        f = QuadraticForm(D=cert_m1.D, n=1, coeffs=((1, 1, a11),))
        assert f.is_totally_positive_definite()
        assert any(
            decide_represent(f, w).status == "impossible" for w in witnesses
        ), a11


def test_totally_positive_up_to_examples():
    xs = totally_positive_up_to(5, 3)
    assert [format_elem(x) for x in xs] == [
        "1+0*sqrt(5)", "(3-1*sqrt(5))/2", "(3+1*sqrt(5))/2",
    ]
    assert [x.norm() for x in xs[1:]] == [1, 1]
    assert totally_positive_up_to(2, 2) == [QuadElem(2, 1, 0)]
    xs = totally_positive_up_to(2, 6)
    want = {
        QuadElem(2, 1, 0), QuadElem(2, 2, 0), QuadElem(2, 3, 0),
        QuadElem(2, 2, 1), QuadElem(2, 2, -1),
        QuadElem(2, 3, 1), QuadElem(2, 3, -1),
        QuadElem(2, 3, 2), QuadElem(2, 3, -2),
    }
    assert set(xs) == want
    for x in xs:
        assert x.is_totally_positive() and x.trace() <= 6


def test_build_certificate_refuses_threads_other_than_one():
    # the pair checks run serially; the parameter stays only at its default
    for threads in (0, 3):
        with pytest.raises(ValueError, match="threads"):
            build_certificate(1, threads=threads)


# ---------------------------------------------------------------------------
# reference decider: leading minors, one Schur complement per head length,
# and the last coordinate by the quadratic formula (the n = 1 case included)
# ---------------------------------------------------------------------------

def _qd_det(M: List[List[QD]]) -> QD:
    """Determinant by Gaussian elimination over Q(sqrt(D))."""
    n = len(M)
    M = [row[:] for row in M]
    sign_flips = 0
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not M[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return M[0][0] * 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign_flips ^= 1
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [M[r][c] - f * M[col][c] for c in range(n)]
    det = M[0][0]
    for t in range(1, n):
        det = det * M[t][t]
    return -det if sign_flips else det


def _qd_inverse(M: List[List[QD]]) -> List[List[QD]]:
    """Inverse by Gauss-Jordan elimination with pivoting over Q(sqrt(D))."""
    n = len(M)
    aug = [row[:] + [QD(row[0].D, 1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not aug[r][col].is_zero())
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _qd_matmul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum((A[i][k] * B[k][j] for k in range(m)), A[0][0] * 0) for j in range(p)]
            for i in range(n)]


def _reference_tpd(form: QuadraticForm) -> bool:
    """All leading principal minors positive under both embeddings."""
    B = form.gram()
    for t in range(1, form.n + 1):
        d = _qd_det([row[:t] for row in B[:t]])
        if d.sign() <= 0 or d.conj().sign() <= 0:
            return False
    return True


def _reference_decide(form: QuadraticForm, target: QuadElem) -> RepresentResult:
    D = form.D
    B = form.gram()
    n = form.n
    tgt = _elem_to_qd(target)
    Binv = _qd_inverse(B)

    def coordinate_box(t):
        th1 = (tgt * Binv[t][t]).upper_frac(24)
        th2 = (tgt.conj() * Binv[t][t].conj()).upper_frac(24)
        return (frac_sqrt_outer(max(th1, Fraction(0)), 24),
                frac_sqrt_outer(max(th2, Fraction(0)), 24))

    candidates = []
    for t in range(n):
        elems = [coords_to_elem(D, x, y) for x, y in box_enumerate(D, *coordinate_box(t))]
        elems.sort(key=lambda c: ((c * c).trace(), c.a, c.b))
        candidates.append(elems)

    schur: Dict[int, List[List[QD]]] = {}
    for t in range(1, n):
        Bhh = [row[:t] for row in B[:t]]
        Bht = [row[t:] for row in B[:t]]
        Btt_inv = _qd_inverse([row[t:] for row in B[t:]])
        corr = _qd_matmul(_qd_matmul(Bht, Btt_inv), [list(r) for r in zip(*Bht)])
        schur[t] = [[Bhh[i][j] - corr[i][j] for j in range(t)] for i in range(t)]

    a_nn = B[n - 1][n - 1]
    nodes = 0

    def tail_min_ok(head):
        S = schur[len(head)]
        acc = tgt * 0
        for i in range(len(head)):
            for j in range(len(head)):
                acc = acc + S[i][j] * head[i] * head[j]
        rem = tgt - acc
        return rem.sign() >= 0 and rem.conj().sign() >= 0

    def solve_last(head_elems):
        # a_nn x^2 + L x + (C - target) = 0 over K
        L = QD(D, 0)
        for i in range(1, n):
            L = L + _elem_to_qd(form.coeff(i, n)) * _elem_to_qd(head_elems[i - 1])
        Cval = QD(D, 0)
        for i in range(1, n):
            for j in range(i, n):
                Cval = Cval + (_elem_to_qd(form.coeff(i, j)) * _elem_to_qd(head_elems[i - 1])
                               * _elem_to_qd(head_elems[j - 1]))
        root = sqrt_in_field(L * L - a_nn * (Cval - tgt) * 4)
        if root is None:
            return None
        for rt in (root, -root):
            el = _qd_to_elem((rt - L) / (a_nn * 2))
            if el is not None:
                return el
        return None

    def dfs(depth, head_elems, head_qd):
        nonlocal nodes
        if depth == n - 1:
            nodes += 1
            el = solve_last(head_elems)
            return None if el is None else tuple(head_elems + [el])
        for cand in candidates[depth]:
            nodes += 1
            hq = head_qd + [_elem_to_qd(cand)]
            if not tail_min_ok(hq):
                continue
            got = dfs(depth + 1, head_elems + [cand], hq)
            if got is not None:
                return got
        return None

    vec = dfs(0, [], [])
    counts = tuple(len(c) for c in candidates)
    return RepresentResult("found" if vec else "impossible", vec, counts, nodes)


REFERENCE_FIELDS = (2, 3, 5, 6, 7, 13)


@st.composite
def small_forms(draw):
    """1- to 4-ary forms with small, often irrational, coefficients: either
    any such form, or two copies of one block beside an optional other
    block, so that the diagonal of B^-1 repeats entries next to distinct
    ones (coordinates with equal entries share one box)."""
    D = draw(st.sampled_from(REFERENCE_FIELDS))

    def coefficient(diagonal):
        den = draw(st.sampled_from([1, 2] if D % 4 == 1 else [1]))
        b = draw(st.integers(-1, 1))
        a = draw(st.integers(1, 6) if diagonal else st.integers(-2, 2)) * den
        if den == 2:
            a, b = a + 1, 2 * b + 1  # a half-integral element of O_K
        return QuadElem(D, a, b, den)

    def block(k):
        return {(i, j): coefficient(i == j) for i in range(1, k + 1) for j in range(i, k + 1)}

    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        entries = list(block(n).items())
    else:
        k = draw(st.integers(1, 2))
        twin = block(k)
        entries = [((i + s, j + s), c) for s in (0, k) for (i, j), c in twin.items()]
        if k == 1 and draw(st.booleans()):
            entries += [((i + 2, j + 2), c) for (i, j), c in block(draw(st.integers(1, 2))).items()]
        n = max(j for (_, j), _ in entries)
    coeffs = tuple((i, j, c) for (i, j), c in entries if c.a or c.b)
    form = QuadraticForm(D=D, n=n, coeffs=coeffs)
    target = draw(st.sampled_from(totally_positive_up_to(D, 10)))
    return form, target


@settings(max_examples=150, deadline=None)
@given(case=small_forms())
# unary forms with an irrational coefficient that represent the target:
# the root comes from sqrt(4 a11 target), not sqrt(target / a11)
@example(case=(QuadraticForm(D=2, n=1, coeffs=((1, 1, QuadElem(2, 3, 2)),)),
               QuadElem(2, 1, 0)))
@example(case=(QuadraticForm(D=5, n=1, coeffs=((1, 1, QuadElem(5, 7, 3, 2)),)),
               QuadElem(5, 3, 1, 2)))
def test_decider_matches_reference(case):
    form, target = case
    tpd = form.is_totally_positive_definite()
    assert tpd == _reference_tpd(form)
    if not tpd:
        with pytest.raises(ValueError):
            decide_represent(form, target)
        return
    got, want = decide_represent(form, target), _reference_decide(form, target)
    assert (got.status, got.vector, got.candidates_per_coordinate, got.nodes_visited) \
        == (want.status, want.vector, want.candidates_per_coordinate, want.nodes_visited)


@st.composite
def tpd_grams(draw):
    """B = A A^T + I over Q(sqrt(D)): positive definite under both embeddings."""
    D = draw(st.sampled_from((2, 3, 5, 13, 94)))
    n = draw(st.integers(1, 5))
    entry = st.builds(lambda a, b, q: QD(D, a, b, q), st.integers(-3, 3),
                      st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    B = _qd_matmul(A, [list(r) for r in zip(*A)])
    for t in range(n):
        B[t][t] = B[t][t] + 1
    return B


@settings(max_examples=60, deadline=None)
@given(B=tpd_grams())
def test_inverse_diagonal_matches_reference_inverse(B):
    factor = _udu(B)
    assert factor is not None
    Binv = _qd_inverse(B)
    assert _inverse_diagonal(*factor) == [Binv[t][t] for t in range(len(B))]
