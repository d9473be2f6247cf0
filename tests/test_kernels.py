import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import _kernels
from quadcert.qarith import QuadElem
from quadcert.smallnorm import (
    _naive_scan_py,
    _window_scan_py,
    enumerate_small_norm,
    naive_enumerate,
)


def test_active_backend_is_sane():
    assert _kernels.BACKEND == "numpy"


def _reference_period(D):
    k = isqrt(D)
    m, d, a = 0, 1, k
    per = []
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (k + m) // d
        per.append(a)
        if d == 1:
            return per


def test_surd_period_matches_reference():
    for D in (2, 3, 13, 61, 94, 9949):
        out = np.empty(4096, dtype=np.int64)
        n = _kernels.surd_period_i64(D, isqrt(D), out)
        assert list(out[:n]) == _reference_period(D)
    assert _kernels.surd_period_i64(13, 3, np.empty(2, dtype=np.int64)) == -1


def test_trial_square_scan_examples():
    cases = [
        (12, 100, (0, 2)),
        (10, 100, (1, 0)),
        (49, 100, (0, 7)),
        (2 * 3 * 5 * 7 * 11, 100, (1, 0)),
        (3 ** 3, 100, (0, 3)),
        (101 * 101 * 7, 1000, (0, 101)),
    ]
    for n, bound, (status, p) in cases:
        st, got_p, cof = _kernels.trial_square_scan_i64(n, bound)
        assert (st, got_p) == (status, p), (n, bound)


def test_smallnorm_window_matches_naive():
    for D, parity in ((13, 0), (13, 1), (61, 1), (94, 0)):
        dd = 4 if parity else 1
        T = isqrt((dd * dd * D - 1) // 4)  # |N| < (den^2/2) sqrt(D)
        pad = 5
        xs1, ys1, ns1 = _kernels.smallnorm_window_i64(D, 60, T, pad, parity)
        xs2, ys2, ns2 = _kernels.smallnorm_naive_i64(D, 60, T, parity)
        a = sorted(zip(map(int, xs1), map(int, ys1), map(int, ns1)))
        b = sorted(zip(map(int, xs2), map(int, ys2), map(int, ns2)))
        assert a == b


def _reference_naive_scan(D, y_max, T, parity):
    """The former smallnorm_naive_i64: every x up to isqrt(D y^2 + T) + 2, per y."""
    xs_o, ys_o, ns_o = [], [], []
    for y in range(1, y_max + 1):
        if parity == 1 and y % 2 == 0:
            continue
        t = D * y * y
        x = np.arange(1, isqrt(t + T) + 3, dtype=np.int64)
        N = x * x - t
        ok = N != 0
        ok &= (N >= -T) & (N <= T)
        if parity == 1:
            ok &= x % 2 == 1
        ok &= np.gcd(x, y) == 1
        xs_o.append(x[ok])
        ys_o.append(np.full(int(ok.sum()), y, dtype=np.int64))
        ns_o.append(N[ok])
    if not xs_o:
        return []
    return _triples(np.concatenate(xs_o), np.concatenate(ys_o), np.concatenate(ns_o))


def _triples(xs, ys, ns):
    return list(zip(map(int, xs), map(int, ys), map(int, ns)))


def _naive(D, y_max, T, parity):
    return _triples(*_kernels.smallnorm_naive_i64(D, y_max, T, parity))


_NONSQUARE = st.integers(2, 1999).filter(lambda D: isqrt(D) ** 2 != D)


@given(D=_NONSQUARE, parity=st.sampled_from([0, 1]), y_max=st.integers(1, 80),
       data=st.data())
@example(D=13, parity=1, y_max=80, data=None)  # D ≡ 1 (mod 4)
@example(D=1999, parity=0, y_max=80, data=None)  # D ≡ 3 (mod 4)
@example(D=94, parity=0, y_max=1, data=None)
@settings(max_examples=150, deadline=None)
def test_naive_scan_matches_reference_loop(D, parity, y_max, data):
    Ts = [0, isqrt(16 * D)] if data is None else [data.draw(st.integers(0, isqrt(16 * D)))]
    for T in Ts:
        got = _naive(D, y_max, T, parity)
        assert got == _reference_naive_scan(D, y_max, T, parity)
        if T == 0:
            assert got == []


@given(D=_NONSQUARE, parity=st.sampled_from([0, 1]), y_max=st.integers(1, 30),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_naive_scan_py_matches_kernel(D, parity, y_max, data):
    T = data.draw(st.integers(0, isqrt(16 * D)))
    got = _naive_scan_py(D, y_max, T, parity)
    assert got == _naive(D, y_max, T, parity)
    assert got == _reference_naive_scan(D, y_max, T, parity)


@given(D=_NONSQUARE, parity=st.sampled_from([0, 1]), y_max=st.integers(1, 300),
       pad=st.integers(0, 64), data=st.data())
@example(D=13, parity=1, y_max=300, pad=64, data=None)
@example(D=2, parity=0, y_max=1, pad=0, data=None)
@settings(max_examples=120, deadline=None)
def test_window_kernel_matches_python_scan(D, parity, y_max, pad, data):
    Ts = [0, isqrt(16 * D)] if data is None else [data.draw(st.integers(0, isqrt(16 * D)))]
    for T in Ts:
        assert _triples(*_kernels.smallnorm_window_i64(D, y_max, T, pad, parity)) \
            == _window_scan_py(D, y_max, T, pad, parity)


@pytest.mark.parametrize("parity", [0, 1])
def test_window_kernel_across_y_blocks(parity):
    D, pad = 13, 64
    rows = _kernels.GRID_CELLS // (2 * pad + 1)  # y values in one grid
    y_max = 2 * rows + 5
    T = 8 * y_max  # a few survivors in every row up to y_max
    got = _triples(*_kernels.smallnorm_window_i64(D, y_max, T, pad, parity))
    assert got == _window_scan_py(D, y_max, T, pad, parity)
    ys = {y for _, y, _ in got}
    assert min(ys) <= rows * (1 + parity) < max(ys)  # more than one grid


def test_window_kernel_memory_is_bounded():
    D, pad = 13, 3
    T = isqrt((D - 1) // 4)  # |N| < sqrt(D)/2

    def peak(y_max):
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            _kernels.smallnorm_window_i64(D, y_max, T, pad, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * 10 ** 6) <= 1.25 * peak(10 ** 6)


def test_enumerate_small_norm_above_int64_guard():
    m = (1 << 29) + 2
    D = m * m + 1  # ≡ 1 (mod 4), so both den = 1 and den = 2 run
    y_max, bound = 2, Fraction(1, 1 << 20)  # |N| < 2^-20 sqrt(D), about 512
    assert D * (y_max + 3) ** 2 * 4 >= _kernels.INT64_SAFE
    got = enumerate_small_norm(D, bound, y_max)
    assert (QuadElem(D, m, 1), -1) in [(e.mu, e.norm) for e in got]
    assert got == naive_enumerate(D, bound, y_max)


def test_naive_scan_near_int64_limit():
    m = (1 << 30) - 1
    D, T = m * m + 1, 100  # D*2^2 + T < INT64_SAFE
    got = _naive(D, 2, T, 0)
    assert (m, 1, -1) in got and (2 * m, 2, -4) not in got  # gcd(2m, 2) = 2
    assert got == _naive_scan_py(D, 2, T, 0)
    assert all(gcd(x, y) == 1 and x * x - D * y * y == n for x, y, n in got)
    edge = _kernels.INT64_SAFE - 1 - T  # D*y_max^2 + T == INT64_SAFE - 1
    assert _naive(edge, 1, T, 0) == _naive_scan_py(edge, 1, T, 0)


def test_naive_scan_rejects_int64_overflow():
    T = 5
    with pytest.raises(ValueError):
        _kernels.smallnorm_naive_i64(_kernels.INT64_SAFE - T, 1, T, 0)
    with pytest.raises(ValueError):
        _kernels.smallnorm_naive_i64(2, isqrt(_kernels.INT64_SAFE // 2) + 1, 0, 1)
