import inspect
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import latbox, verify
from quadcert.latbox import (
    YSCAN_LIMIT,
    box_enumerate,
    box_enumerate_gauss,
    box_enumerate_scan,
    coords_to_elem,
    elem_to_coords,
    sqrt_embedding_bounds,
)
from quadcert.qarith import QuadElem
from quadcert.qd import QD, frac_sqrt_outer
from quadcert.verify import _PrecisionExhausted, _vbox_enumerate

from .conftest import omega_basis


def test_omega_basis():
    assert omega_basis(2) == QD(2, 0, 1)
    assert omega_basis(5) == QD(5, 1, 1, 2)


def test_coords_to_elem():
    assert coords_to_elem(2, 3, -1) == QuadElem(2, 3, -1)
    assert coords_to_elem(5, 1, 1) == QuadElem(5, 3, 1, 2)  # 1 + (1+sqrt5)/2
    for D in (2, 3, 5, 13):
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert elem_to_coords(coords_to_elem(D, x, y)) == (x, y)


def _reference_in_box(D, x, y, S1, S2):
    """Box membership in exact QD arithmetic, the integer test's oracle."""
    c1 = QD(D, x) + omega_basis(D) * y
    return abs(c1) <= QD(D, Fraction(S1)) and abs(c1.conj()) <= QD(D, Fraction(S2))


# both residue classes of D mod 4 that occur for squarefree D
FIELDS = (2, 3, 5, 7, 13, 61, 94)
windows = st.fractions(min_value=Fraction(-2), max_value=Fraction(60),
                       max_denominator=50)


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(FIELDS), x=st.integers(-60, 60), y=st.integers(-20, 20),
       S1=windows, S2=windows, exact=st.sampled_from([None, 1, 2, 3]))
@example(D=5, x=3, y=0, S1=Fraction(3), S2=Fraction(3), exact=None)
@example(D=5, x=1, y=1, S1=Fraction(2), S2=Fraction(1), exact=None)
@example(D=7, x=-4, y=0, S1=Fraction(4), S2=Fraction(9, 2), exact=None)
def test_in_box_matches_reference(D, x, y, S1, S2, exact):
    if exact is not None:
        # a rational point on the boundary of one or both windows: the
        # equality branch of |sigma_h(c)| <= S_h
        y = 0
        if exact & 1:
            S1 = Fraction(abs(x))
        if exact & 2:
            S2 = Fraction(abs(x))
    got = latbox._in_box(D, S1, S2)(x, y)
    assert got == _reference_in_box(D, x, y, S1, S2)


ints = st.integers(-60, 60) | st.integers(-10 ** 40, 10 ** 40)


def _ref_sign(a, b, D):
    """Sign of a + b*sqrt(D): t -> t|t| is increasing, so compare squares."""
    v = a * abs(a) + b * abs(b) * D
    return (v > 0) - (v < 0)


def _reference_floor(a, b, q, D):
    """floor((a + b*sqrt(D))/q) as the former QD.floor computed it: estimate
    floor(b*sqrt(D)) by isqrt, then step n until n <= value < n + 1 holds by
    exact sign tests."""
    if q < 0:
        a, b, q = -a, -b, -q
    t = isqrt(b * b * D) if b >= 0 else -isqrt(b * b * D) - 1
    n = (a + t) // q - 1
    while _ref_sign(a - n * q, b, D) < 0:
        n -= 1
    while _ref_sign(a - (n + 1) * q, b, D) >= 0:
        n += 1
    return n


def _ref_qd_floor(x):
    return _reference_floor(x.a, x.b, x.q, x.D)


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(FIELDS), a=ints, b=ints, r=ints.filter(bool), c=ints, d=ints)
@example(D=2, a=0, b=1, r=1, c=1, d=0)
@example(D=5, a=-3, b=-1, r=2, c=0, d=-1)
@example(D=7, a=5, b=-2, r=-3, c=-1, d=1)
@example(D=2, a=50, b=0, r=1, c=0, d=0)
def test_floor_helpers_match_reference(D, a, b, r, c, d):
    """The integer-pair floors, QD.floor and QD.sqrt_floor equal the
    estimate-and-step reference floor of the same value."""
    want = _reference_floor(a, b, r, D)
    assert latbox._floor_pair(a, b, r, D) == want
    assert QD(D, a, b, r).floor() == want
    if c or d:
        q = QD(D, a, b) / QD(D, c, d)
        assert latbox._floor_quot((a, b), (c, d), D) == _ref_qd_floor(q)
    x = QD(D, a, b, r)
    if x.sign() >= 0:
        n = x.sqrt_floor()
        assert n == isqrt(max(want, 0))
        # n^2 <= x < (n + 1)^2
        assert _ref_sign(x.a - n * n * x.q, x.b, D) >= 0
        assert _ref_sign(x.a - (n + 1) ** 2 * x.q, x.b, D) < 0


@st.composite
def scan_boxes(draw):
    """Boxes the y-scan accepts: generic ones in both D classes, C8-sized
    ones over Q(sqrt(5)), sub-unit ones that the Gauss engine answers at its
    shortest-vector exit, and thin ones whose y-range is near YSCAN_LIMIT."""
    kind = draw(st.sampled_from(["generic", "c8", "sub-unit", "thin"]))
    if kind == "sub-unit":
        D = draw(st.sampled_from(FIELDS))
        S1 = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        S2 = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    elif kind == "generic":
        D = draw(st.sampled_from(FIELDS))
        S1 = Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 9)))
        S2 = Fraction(draw(st.integers(1, 25)), draw(st.integers(1, 40)))
    elif kind == "c8":
        # coordinate boxes of targets with trace <= 30 under (B^-1)_tt = 4/3
        D = 5
        S1 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
        S2 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
    else:
        D = draw(st.sampled_from([2, 5, 13]))
        spread = omega_basis(D) - omega_basis(D).conj()
        reach = (spread * draw(st.integers(YSCAN_LIMIT - 40, YSCAN_LIMIT - 1))).floor()
        S2 = Fraction(1, draw(st.integers(1, 1000)))
        S1 = reach - S2
    if draw(st.booleans()):
        S1, S2 = S2, S1
    return D, S1, S2


@settings(max_examples=120, deadline=None)
@given(box=scan_boxes())
@example(box=(5, Fraction(4, 3), Fraction(4, 3)))
@example(box=(2, Fraction(1, 3), Fraction(2)))
def test_engines_agree_on_random_boxes(box):
    """The y-scan is the oracle for the production (Gauss) engine."""
    D, S1, S2 = box
    want = box_enumerate_scan(D, S1, S2)  # every drawn box is within YSCAN_LIMIT
    assert box_enumerate(D, S1, S2) == want
    assert (0, 0) in want


@st.composite
def starts(draw):
    """Lattice points to start the reduction at: none, the origin, points on
    an axis, small and large points of either sign, and multiples of them."""
    kind = draw(st.sampled_from(["none", "zero", "axis", "small", "multiple", "large"]))
    if kind == "none":
        return None
    if kind == "zero":
        return (0, 0)
    if kind == "axis":
        k = draw(st.integers(-6, 6).filter(bool))
        return (k, 0) if draw(st.booleans()) else (0, k)
    bound = 2 ** 40 if kind == "large" else 30
    x, y = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    if kind == "multiple":
        k = draw(st.integers(2, 6))
        x, y = k * x, k * y
    return x, y


@settings(max_examples=150, deadline=None)
@given(box=scan_boxes(), start=starts())
@example(box=(5, Fraction(4, 3), Fraction(4, 3)), start=(-4, 6))
@example(box=(2, Fraction(1, 2), Fraction(5, 2)), start=(0, -3))
def test_started_engines_match_the_scan(box, start):
    """Wherever the reduction starts, both engines return the y-scan's list;
    each engine's start basis has determinant 1 and begins with the start
    over the gcd of its coordinates."""
    D, S1, S2 = box
    want = box_enumerate_scan(D, S1, S2)
    assert box_enumerate(D, S1, S2, start) == box_enumerate(D, S1, S2) == want
    assert _vbox_enumerate(D, S1, S2, start) == want
    for u, v in (latbox._start_basis(start), verify._v_basis(start)):
        assert u[0] * v[1] - u[1] * v[0] == 1
        if start is None or start == (0, 0):
            assert (u, v) == ((1, 0), (0, 1))
        else:
            g = gcd(*start)
            assert u == (start[0] // g, start[1] // g)


def test_start_past_the_verifiers_step_cap():
    """A start that the reduction cannot undo within the verifier's 512
    midpoint steps: the unit phi^1200 over Q(sqrt(5)) (Fibonacci
    coordinates), and the same coordinates in two other fields.  The exact
    generator still reduces and lists the box.  The verifier, whose basis is
    then not reduced in its intervals, must not answer from its
    shortest-vector exit (the first vector is huge, so that answer would be
    the origin alone); it walks, and at this size finds no rigorous bound and
    refuses the box."""
    a, b = 0, 1
    for _ in range(1200):
        a, b = b, a + b
    for D, S in ((5, Fraction(2)), (2, Fraction(3)), (13, Fraction(5, 2))):
        want = box_enumerate_scan(D, S, S)
        assert len(want) > 1
        assert box_enumerate(D, S, S, (a, b)) == want
        with pytest.raises(_PrecisionExhausted):
            _vbox_enumerate(D, S, S, (a, b))


def _qd_sqrt_outer(x, extra_bits):
    """Outer bound (isqrt(floor(x 2^(2e))) + 1)/2^e on sqrt(x), e = extra_bits."""
    scale = 1 << extra_bits
    return Fraction(isqrt(_ref_qd_floor(x * (scale * scale))) + 1, scale)


def _reference_gauss(D, S1, S2):
    """The Gauss engine in exact QD arithmetic, the integer-pair engine's
    oracle: every Gram entry, mu and line bound is a gcd-normalised QD."""
    w = omega_basis(D)
    wc = w.conj()
    iS1 = QD(D, Fraction(1) / (Fraction(S1) ** 2))
    iS2 = QD(D, Fraction(1) / (Fraction(S2) ** 2))
    G11 = iS1 + iS2
    G12 = w * iS1 + wc * iS2
    G22 = w * w * iS1 + wc * wc * iS2

    def gram(p, q):
        return (G11 * (p[0] * q[0]) + G12 * (p[0] * q[1] + p[1] * q[0])
                + G22 * (p[1] * q[1]))

    u, v = (1, 0), (0, 1)
    while True:
        if gram(v, v) < gram(u, u):
            u, v = v, u
        mu = (gram(u, v) / gram(u, u)).round_nearest()
        if mu != 0:
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if not (gram(v, v) < gram(u, u)):
            break
    A, B0, C = gram(u, u), gram(u, v), gram(v, v)
    det = A * C - B0 * B0
    two = QD(D, 2)
    n_max = (two * A / det).sqrt_floor()
    in_box = latbox._in_box(D, S1, S2)
    out = []
    for n in range(-n_max, n_max + 1):
        disc = two * A - det * (n * n)
        if disc.sign() < 0:
            continue
        sd = QD(D, _qd_sqrt_outer(disc, 24))
        lo = ((B0 * (-n) - sd) / A).floor() - 1
        hi = ((B0 * (-n) + sd) / A).floor() + 2
        for m in range(lo, hi + 1):
            x = m * u[0] + n * v[0]
            y = m * u[1] + n * v[1]
            if in_box(x, y):
                out.append((x, y))
    out.sort()
    return out


@pytest.fixture(scope="module")
def pair_boxes(cert_m1, cert_m2):
    """The certificate pair boxes of M = 1 and M = 2, each also with both
    windows doubled for larger inputs of the same shape: y-ranges up to
    ~2^67 with sub-unit widths."""
    out = []
    for cert in (cert_m1, cert_m2):
        for pc in cert.pair_checks:
            out.append((cert.D, pc.s1_bound, pc.s2_bound))
            out.append((cert.D, 2 * pc.s1_bound, 2 * pc.s2_bound))
    return out


@st.composite
def engine_boxes(draw, pair_boxes):
    """Generic boxes in both D classes (some far too long for the y-scan),
    C8-sized boxes over Q(sqrt(5)) and the certificate pair boxes."""
    kind = draw(st.sampled_from(["generic", "skewed", "c8", "pair"]))
    if kind == "pair":
        return draw(st.sampled_from(pair_boxes))
    if kind == "c8":
        D = 5
        S1 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
        S2 = Fraction(draw(st.integers(1, 7 * 2 ** 12)), 2 ** 12)
    else:
        D = draw(st.sampled_from(FIELDS + (10 ** 12 + 39, 2 ** 61 + 1)))
        # skew 2^e at area S1*S2 <= 1500, so the box stays small
        e = draw(st.integers(0, 120)) if kind == "skewed" else 0
        S1 = Fraction(draw(st.integers(1, 60)) << e, draw(st.integers(1, 9)))
        S2 = Fraction(draw(st.integers(1, 25)), draw(st.integers(1, 40)) << e)
    if draw(st.booleans()):
        S1, S2 = S2, S1
    return D, S1, S2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gauss_matches_reference_engine(pair_boxes, data):
    """The integer-pair Gauss engine, and the verifier's own dyadic-interval
    engine, return exactly the QD reference engine's list."""
    D, S1, S2 = data.draw(engine_boxes(pair_boxes))
    want = _reference_gauss(D, S1, S2)
    assert box_enumerate_gauss(D, S1, S2) == want
    assert _vbox_enumerate(D, S1, S2) == want
    assert (0, 0) in want


@pytest.mark.parametrize("D", [5, 13, 2, 7])
def test_degenerate_windows_match_scan(D):
    # S_h = 0 admits only c = 0; S_h < 0 admits nothing; the Gauss engine
    # would divide by S_h, so box_enumerate must answer these without it
    for bad, want in ((Fraction(0), [(0, 0)]), (Fraction(-1, 3), []), (-2, [])):
        for S1, S2 in ((bad, Fraction(7, 2)), (Fraction(7, 2), bad), (bad, bad)):
            assert box_enumerate(D, S1, S2) == want, (S1, S2)
            assert box_enumerate_scan(D, S1, S2) == want, (S1, S2)
    assert box_enumerate(D, Fraction(0), Fraction(-1)) == []
    assert box_enumerate_scan(D, Fraction(0), Fraction(-1)) == []


@pytest.fixture
def walks(monkeypatch):
    """The boxes the engines walk: box_enumerate_gauss builds its membership
    test only past the shortest-vector exit (the y-scan always builds one)."""
    seen = []
    real = latbox._in_box
    monkeypatch.setattr(latbox, "_in_box", lambda *box: seen.append(box) or real(*box))
    return seen


@pytest.fixture
def vwalks(monkeypatch):
    """The candidates the verifier's walk tests; its exit tests none."""
    seen = []
    real = verify._v_in_box
    monkeypatch.setattr(verify, "_v_in_box", lambda *c: seen.append(c) or real(*c))
    return seen


# a round of each engine's reduction loop (its mu), and its shortest-vector exit
GEN_MU, VER_MU = "mu = _floor_quot(", "mu = (2 * b + a) // (2 * a)"
EXIT = "return [(0, 0)]"


@contextmanager
def line_hits(fn, *texts):
    """Per call of fn, how often the source line holding each text ran."""
    lines, first = inspect.getsourcelines(fn)
    where = {first + k: t for k, line in enumerate(lines) for t in texts if t in line}
    assert sorted(where.values()) == sorted(texts)  # each text on one line
    calls = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in where:
            calls[-1][where[frame.f_lineno]] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not fn.__code__:
            return None
        calls.append(dict.fromkeys(texts, 0))
        return local

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield calls
    finally:
        sys.settrace(old)


def test_shortest_vector_exit(walks):
    """Sub-unit boxes whose reduced first vector u has F(u) > 2 return the
    origin without the walk.  The box S1 = 1/2, S2 = 5/2 over Q(sqrt(2)) has
    F = 4 + 4/25 > 2 on the unreduced first vector 1, yet holds
    +-(sqrt(2) - 1) at F < 2: the exit must wait for the reduced basis."""
    for D, S1, S2 in ((5, Fraction(1, 3), Fraction(1, 3)), (2, Fraction(1, 2), Fraction(1, 2)),
                      (13, Fraction(1, 4), Fraction(3, 2))):
        assert box_enumerate_gauss(D, S1, S2) == [(0, 0)]
        assert walks == []
        assert box_enumerate_scan(D, S1, S2) == [(0, 0)]
        walks.clear()
    box = (2, Fraction(1, 2), Fraction(5, 2))
    assert box_enumerate_gauss(*box) == [(-1, 1), (0, 0), (1, -1)]
    assert walks == [box]
    assert box_enumerate_scan(*box) == [(-1, 1), (0, 0), (1, -1)]


@pytest.mark.parametrize("cert", ["cert_m2", "cert_m3"])
def test_certificate_pair_boxes_leave_at_the_exit(cert, request, walks, vwalks):
    """Every pair box of the M = 2 and M = 3 certificates, started from the
    larger witness, takes one round of reduction (one mu) and is answered by
    the shortest-vector exit, in the generator and in the verifier; the pair
    checks are the certificate's.  Some verifier boxes need a second
    precision attempt: the first finds its intervals too wide for the exit
    and for a determinant bound, after the same one round."""
    from quadcert.certify import pair_refute

    cert = request.getfixturevalue(cert)
    ws = cert.witness_set
    pairs = list(combinations(zip(ws.indices, ws.witnesses), 2))
    with line_hits(box_enumerate_gauss, GEN_MU, EXIT) as gen:
        checks = [pair_refute(cert.D, a, b, i=i, j=j) for (i, a), (j, b) in pairs]
    assert checks == list(cert.pair_checks)
    assert gen == [{GEN_MU: 1, EXIT: 1}] * len(pairs)
    with line_hits(verify._vbox_attempt, VER_MU, EXIT) as ver:
        assert verify.verify_certificate(cert.to_json()).accepted
    assert all(h[VER_MU] == 1 for h in ver)
    assert sum(h[EXIT] for h in ver) == len(pairs)
    assert walks == [] and vwalks == []


def test_verifier_exit_agrees_with_its_walk(cert_m1, monkeypatch):
    """Boxes the verifier answers at its exit give the same list when the
    exit cannot fire: with K scaled by 2**10 the Gram intervals claim
    F/2**10, so the attempt walks the ellipse F <= 2**11, which holds the
    box, and only a first vector with F > 2**11 could still exit.  The
    exit needs the reduction proved in intervals: over Q(sqrt(5)) with
    S1 = S2 = 1/3 the basis (1, omega) has |2 B0| = A exactly, so the
    verifier walks that box where the exact generator exits."""
    sub_unit = [(2, Fraction(1, 2), Fraction(1, 2)), (13, Fraction(1, 4), Fraction(3, 2))]
    pc = cert_m1.pair_checks[0]
    boxes = sub_unit + [(cert_m1.D, pc.s1_bound, pc.s2_bound)]
    prec = 2 * cert_m1.D.bit_length()
    with line_hits(verify._vbox_attempt, EXIT) as hits:
        exits = [verify._vbox_attempt(*box, prec) for box in boxes]
        tie = verify._vbox_attempt(5, Fraction(1, 3), Fraction(1, 3), prec)
    assert exits == [[(0, 0)]] * len(boxes) and tie == [(0, 0)]
    assert [h[EXIT] for h in hits] == [1] * len(boxes) + [0]
    real = verify._vbox_gram

    def scaled(*args):
        K, G11, G12, G22 = real(*args)
        return K << 10, G11, G12, G22

    monkeypatch.setattr(verify, "_vbox_gram", scaled)
    with line_hits(verify._vbox_attempt, EXIT) as hits:
        walked = [verify._vbox_attempt(*box, prec) for box in sub_unit]
    assert walked == exits[:len(sub_unit)]
    assert all(h[EXIT] == 0 for h in hits)


def test_box_membership_is_exact():
    for D, S1, S2 in ((13, Fraction(30), Fraction(4)), (7, Fraction(25), Fraction(7, 2))):
        pts = set(box_enumerate(D, S1, S2))
        for x in range(-80, 81):
            for y in range(-40, 41):
                inside = _reference_in_box(D, x, y, S1, S2)
                assert ((x, y) in pts) == inside, (D, x, y)


def test_gauss_handles_extreme_skew():
    # sub-unit window ~1e-39 on one embedding, ~1e40 on the other: the box is
    # a hair-thin sliver along the expanding flow, far beyond any y-scan
    D = 2
    S1 = Fraction(10 ** 40)
    S2 = Fraction(1, 10 ** 39)
    pts = set(box_enumerate_gauss(D, S1, S2))
    assert (0, 0) in pts
    w = omega_basis(D)
    # soundness: every returned point really lies in the box
    for x, y in pts:
        c1 = QD(D, x) + w * y
        assert abs(c1) <= QD(D, S1) and abs(c1.conj()) <= QD(D, S2)
    # completeness spot check: Pell multiples that fit the box exactly must
    # all be present (each membership is decided independently here)
    found_pell = 0
    p, q = 1, 1
    while p * p <= 10 ** 81:
        for m in (1, 2, 3):
            c1 = QD(D, m * p) + w * (m * q)
            if abs(c1) <= QD(D, S1) and abs(c1.conj()) <= QD(D, S2):
                assert (m * p, m * q) in pts and (-m * p, -m * q) in pts
                found_pell += 1
        p, q = p + 2 * q, p + q
    assert found_pell > 0  # the sliver does catch deep Pell solutions
    # self-consistency: enlarging the window and filtering back changes nothing
    wide = {
        (x, y) for x, y in box_enumerate_gauss(D, S1 * 2, S2 * 2)
        if abs(QD(D, x) + w * y) <= QD(D, S1)
        and abs((QD(D, x) + w * y).conj()) <= QD(D, S2)
    }
    assert wide == pts


def test_sqrt_embedding_bounds_are_outer():
    for D, a, b in ((13, 83, 23), (2, 99, 70), (5, 7, 3)):
        beta = QuadElem(D, 4 * a, 4 * b)
        if not beta.is_totally_positive():
            continue
        S1, S2 = sqrt_embedding_bounds(beta)
        s1 = QD(D, Fraction(beta.a, beta.den), Fraction(beta.b, beta.den))
        assert QD(D, S1 * S1) >= s1
        assert QD(D, S2 * S2) >= s1.conj()
        # and tight within a couple of parts per million
        assert QD(D, S1 * S1 * Fraction(999998, 1000000)) <= s1


def test_bounds_reject_non_totally_positive():
    with pytest.raises(ValueError):
        sqrt_embedding_bounds(QuadElem(13, 1, 1))


def _reference_sqrt_embedding_bounds(beta, extra_bits=24):
    """The former QD version of sqrt_embedding_bounds, on the reference floor."""
    D = beta.D
    s1 = QD(D, Fraction(beta.a, beta.den), Fraction(beta.b, beta.den))
    if s1.sign() <= 0 or s1.conj().sign() <= 0:
        raise ValueError("beta must be totally positive")
    S1 = _qd_sqrt_outer(s1, extra_bits)
    bits = extra_bits
    lo1 = Fraction(_ref_qd_floor(s1 * (1 << bits)), 1 << bits)
    while lo1 <= 0:
        bits *= 2
        lo1 = Fraction(_ref_qd_floor(s1 * (1 << bits)), 1 << bits)
    return S1, frac_sqrt_outer(Fraction(beta.norm()) / lo1, extra_bits)


def test_sqrt_embedding_bounds_match_reference():
    """Every odd-index witness pair i < j < 40 over nine fields, and negative
    unit powers whose sigma_1 lies below 2^-24, so the sharpening loop runs."""
    from quadcert.contfrac import convergents, expand_sqrt

    betas = []
    for D in (2, 3, 5, 13, 61, 94, 718, 1999, 2011):
        cs = convergents(expand_sqrt(D), 40)
        alphas = [QuadElem(D, c.p, c.q) for c in cs[1::2]]
        betas += [4 * a * b for a, b in combinations(alphas, 2)]
    assert len(betas) == 1710
    units = [QuadElem(2, -1, 1) ** 40, QuadElem(5, -1, 1, 2) ** 60]
    for u in units:  # floor(sigma_1 * 2^24) = 0: the loop sharpens
        assert _reference_floor(u.a << 24, u.b << 24, u.den, u.D) == 0
    for beta in betas + units:
        assert sqrt_embedding_bounds(beta) == _reference_sqrt_embedding_bounds(beta)


def test_generation_and_verifier_enumerations_agree():
    """Dual-route check: the integer-pair generation engine and the
    verifier's interval engine must report identical violator sets on
    random pairs."""
    import random

    from quadcert.contfrac import alpha, expand_sqrt
    from quadcert.certify import pair_refute
    from quadcert.verify import _v_violators

    rng = random.Random(424242)
    for D in (13, 5, 61, 94, 393):
        e = expand_sqrt(D)
        odd = [i for i in range(1, min(max(2 * e.s, 10), 14), 2)]
        for _ in range(3):
            i, j = sorted(rng.sample(odd, 2))
            a, b = alpha(e, i), alpha(e, j)
            pc = pair_refute(D, a, b, i=i, j=j)
            beta = 4 * a * b
            got = set()
            for ca, cb, cd in _v_violators(D, beta.a, beta.b):
                q = QuadElem(D, ca, cb, cd)  # canonicalizes (2a, 2b)/2 -> den 1
                got.add((q.a, q.b, q.den))
            want = {(v.a, v.b, v.den) for v in pc.violators}
            assert got == want, (D, i, j)


def _assert_planted(D, a, b, c, walks, vwalks):
    """4ab = c^2 with c totally positive: both engines, started from b as
    for a certificate pair, find exactly the violators +-c/2 and +-c of the
    pair (a, b), and both walk the box rather than answer at the
    shortest-vector exit."""
    from quadcert.certify import pair_refute
    from quadcert.verify import _v_violators

    assert 4 * a * b == c * c and c.is_totally_positive()
    half = QuadElem(D, c.a, c.b, 2 * c.den)
    want = {half, -half, c, -c}
    walked, vwalked = len(walks), len(vwalks)
    assert set(pair_refute(D, a, b).violators) == want
    assert len(walks) == walked + 1
    beta = 4 * a * b
    assert {QuadElem(D, *v) for v in _v_violators(D, beta.a, beta.b, elem_to_coords(b))} == want
    assert len(vwalks) > vwalked


def _assert_boxes_around(D, c):
    """Both engines, started along c, list the totally positive c in
    rational boxes just outside its two embeddings, and not in boxes just
    inside either."""
    from quadcert.qd import _floor_pair

    # c = (A + B*sqrt(D))/2
    A, B = c.a * (2 // c.den), c.b * (2 // c.den)
    point = elem_to_coords(c)
    assert coords_to_elem(D, *point) == c
    e = max(A.bit_length(), B.bit_length()) + 64
    lo1 = Fraction(_floor_pair(A << e, B << e, 2, D), 1 << e)
    lo2 = Fraction(_floor_pair(A << e, -B << e, 2, D), 1 << e)
    hi1, hi2 = lo1 + Fraction(1, 1 << e), lo2 + Fraction(1, 1 << e)
    assert lo2 > 0  # sigma_2(c) >= 1/sigma_1(c) since N(c) >= 1
    for S1, S2, inside in ((hi1, hi2, True), (lo1, hi2, False), (hi1, lo2, False)):
        for engine in (box_enumerate, _vbox_enumerate):
            assert (point in engine(D, S1, S2, point)) == inside, (engine.__name__, S1, S2)


def _unit(cert):
    """The fundamental unit eps = p_{s-1} + q_{s-1}*sqrt(D) of cert's field."""
    from quadcert.contfrac import convergents, expand_sqrt

    e = expand_sqrt(cert.D)
    last = convergents(e, e.s)[e.s - 1]
    eps = QuadElem(cert.D, last.p, last.q)
    assert eps.norm() == 1  # an even period: eps is totally positive
    return eps


@pytest.mark.parametrize("cert", ["cert_m2", "cert_m3"])
def test_planted_violators_at_certificate_scale(cert, request, walks, vwalks):
    """Pairs with known violators at the M = 2 and M = 3 fields (972- and
    8741-bit D).  Each witness alpha planted as the pair (alpha, alpha):
    4*alpha^2 = (2*alpha)^2.  And (alpha, eps^2*alpha) for the fundamental
    unit eps, whose violator 2*eps*alpha lies far out along the box's long
    axis: for every M = 2 witness and the first M = 3 one.  Boxes just
    inside and outside 2*alpha, and 2*eps*alpha at M = 2; at M = 3 those
    take about 1.9 s and run with -m slow."""
    cert = request.getfixturevalue(cert)
    D = cert.D
    eps = _unit(cert)
    for a in cert.witness_set.witnesses:
        _assert_planted(D, a, a, 2 * a, walks, vwalks)
        _assert_boxes_around(D, 2 * a)
    for a in cert.witness_set.witnesses[:None if cert.M == 2 else 1]:
        _assert_planted(D, a, eps * eps * a, 2 * eps * a, walks, vwalks)
        if cert.M == 2:
            _assert_boxes_around(D, 2 * eps * a)


@pytest.mark.slow
def test_boxes_around_a_planted_unit_violator_at_m3(cert_m3):
    """The boxes just inside and outside 2*eps*alpha for the first M = 3
    witness, both engines started along it: each box walks, at about 0.4 s
    in the generator and 0.3 s in the verifier on operands of some 35,000
    bits."""
    a = cert_m3.witness_set.witnesses[0]
    _assert_boxes_around(cert_m3.D, 2 * _unit(cert_m3) * a)
