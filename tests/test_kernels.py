import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import _kernels, smallnorm
from quadcert.qarith import QuadElem, _trial_square_scan
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
    """The benchmark-only kernel and the production engine agree on status
    and witness; on a clean scan the kernel may stop with a prime <= sqrt(n)
    left that the engine divides out (2310 leaves 11 against 1)."""
    cases = [  # n, bound, (status, witness), kernel cofactor, engine cofactor
        (12, 100, (0, 2), 6, 6),
        (10, 100, (1, 0), 5, 5),
        (49, 100, (0, 7), 7, 7),
        (2 * 3 * 5 * 7 * 11, 100, (1, 0), 11, 1),
        (3 ** 3, 100, (0, 3), 9, 9),
        (101 * 101 * 7, 1000, (0, 101), 101, 101),
    ]
    for n, bound, (status, p), kernel_cof, engine_cof in cases:
        assert _kernels.trial_square_scan_i64(n, bound) == (status, p, kernel_cof), (n, bound)
        assert _trial_square_scan(n, bound) == (status, p, engine_cof), (n, bound)


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


@pytest.mark.parametrize("m, table", [(64, _kernels._SQ64), (63, _kernels._SQ63),
                                      (65, _kernels._SQ65), (11, _kernels._SQ11)])
def test_sieve_tables_are_the_squares(m, table):
    assert table.shape == (m,)
    assert set(np.flatnonzero(table).tolist()) == {i * i % m for i in range(m)}


# large D, and D next to a square so that y = 1 rows hold squares
_WIDE_D = st.one_of(
    st.integers(2, 10 ** 12),
    st.builds(lambda m, k: m * m + k, st.integers(2, 10 ** 6), st.integers(-2000, 2000)),
).filter(lambda D: D >= 2 and isqrt(D) ** 2 != D)


@given(D=st.one_of(_NONSQUARE, _WIDE_D), parity=st.sampled_from([0, 1]),
       y_max=st.integers(1, 30), data=st.data())
@example(D=10 ** 12 - 1, parity=1, y_max=20, data=None)  # D = m^2 - 1, T = 5000
@settings(max_examples=100, deadline=None)
def test_naive_scan_py_matches_kernel(D, parity, y_max, data):
    T = 5000 if data is None else data.draw(
        st.one_of(st.integers(0, isqrt(16 * D)), st.integers(0, 5000)))
    got = _naive_scan_py(D, y_max, T, parity)
    assert got == _naive(D, y_max, T, parity)
    if D < 2000:  # the reference loop walks every x up to y sqrt(D)
        assert got == _reference_naive_scan(D, y_max, T, parity)


@pytest.mark.parametrize("parity", [0, 1])
def test_naive_kernel_dense_rows(parity):
    D, y_max, T = 2, 5, 5000  # T >> y sqrt(D): each x <= 70 prime to y is a hit
    got = _naive(D, y_max, T, parity)
    assert got == _naive_scan_py(D, y_max, T, parity)
    assert got == _reference_naive_scan(D, y_max, T, parity)
    for y in range(1, y_max + 1, 1 + parity):
        assert sum(1 for _, yh, _ in got if yh == y) >= 15
    for m in (64, 63, 65, 11):  # hits in every square class of each modulus
        classes = {i * i % m for i in range(parity, 2 * m, 1 + parity)}  # odd i if parity
        assert {x * x % m for x, _, _ in got} == classes


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


def _peak(kernel, *args):
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_kernel_memory_is_bounded():
    D, pad = 13, 3
    T = isqrt((D - 1) // 4)  # |N| < sqrt(D)/2

    def peak(y_max):
        return _peak(_kernels.smallnorm_window_i64, D, y_max, T, pad, 0)

    assert peak(4 * 10 ** 6) <= 1.25 * peak(10 ** 6)


@pytest.mark.parametrize("kernel", ["window", "naive"])
def test_kernel_memory_does_not_grow_with_row_width(kernel):
    def peak(width):  # one row of about 2 * width cells, wider than GRID_CELLS
        if kernel == "window":
            return _peak(_kernels.smallnorm_window_i64, 13, 1, 1, width, 0)
        return _peak(_kernels.smallnorm_naive_i64, 13, 1, width, 0)

    assert peak(1 << 21) <= 1.25 * peak(1 << 19)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("cut", [3, 4])
def test_kernels_across_column_chunks(parity, cut):
    # a row of 2T + 1 > GRID_CELLS columns is split into chunks, and the
    # second one starts at n = off = cut, so the hits n = 3 (x = 4, off = 1)
    # and off = 3 (x = 6) of D = 13, y = 1 sit on either side of the cut
    D, T = 13, _kernels.GRID_CELLS - cut
    got = _naive(D, 3, T, parity)
    assert got == _reference_naive_scan(D, 3, T, parity)
    assert got == _triples(*_kernels.smallnorm_window_i64(D, 3, T, T, parity))
    if parity == 0:
        assert (4, 1, 3) in got and (6, 1, 23) in got


def test_naive_kernel_skips_n_zero_for_square_D():
    got = _naive(9, 4, 20, 0)
    assert got == _naive_scan_py(9, 4, 20, 0)
    assert got and all(n != 0 for _, _, n in got)


def test_window_pad_past_int64_takes_python_path(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("int64 window kernel called past its range")

    calls = []
    kernel = _kernels.smallnorm_window_i64
    monkeypatch.setattr(_kernels, "smallnorm_window_i64", no_kernel)
    monkeypatch.setattr(smallnorm, "_window_scan_py", lambda *args: calls.append(args) or [])
    assert enumerate_small_norm(2, Fraction(1 << 32), 1) == []  # pad about 2^32
    ((D, y_max, T, pad, parity),) = calls
    assert T < _kernels.INT64_SAFE
    assert (isqrt(D) + pad) ** 2 >= 1 << 63  # (x0 + pad)^2 would overflow int64
    with pytest.raises(ValueError):  # called directly, the kernel refuses too
        kernel(D, y_max, T, pad, parity)


@pytest.mark.parametrize("y_max, pad", [(1, 0), (2, 5), (7, 64)])
def test_window_kernel_range_edge(y_max, pad):
    """The kernel runs while (isqrt(D y_max^2) + pad + 1)^2 < INT64_SAFE,
    whatever T, and raises ValueError from the first D past it."""
    x = isqrt(_kernels.INT64_SAFE - 1) - pad - 1  # largest isqrt(D y_max^2) inside
    D = ((x + 1) ** 2 - 1) // y_max ** 2  # the largest D with isqrt(D y_max^2) <= x
    for T in (0, isqrt(16 * D), _kernels.INT64_SAFE, 1 << 70):  # T >= 2^62 keeps all
        assert _triples(*_kernels.smallnorm_window_i64(D, y_max, T, pad, 0)) \
            == _window_scan_py(D, y_max, T, pad, 0)
    with pytest.raises(ValueError):
        _kernels.smallnorm_window_i64(D + 1, y_max, 0, pad, 0)


@st.composite
def _near_range_windows(draw):
    """(D, y_max, pad) with 2^60 <= D y_max^2 and x_hi^2 < 2^62, x_hi being
    isqrt(D y_max^2) + pad + 1: within a factor 4 of the kernel's limit."""
    y_max = draw(st.integers(1, 40))
    pad = draw(st.integers(0, 64))
    x_top = isqrt(_kernels.INT64_SAFE - 1) - pad - 1
    D = draw(st.integers(-(-(1 << 60) // y_max ** 2), ((x_top + 1) ** 2 - 1) // y_max ** 2))
    return D, y_max, pad


@given(window=_near_range_windows(), parity=st.sampled_from([0, 1]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_window_kernel_matches_python_scan_near_int64_range(window, parity, data):
    D, y_max, pad = window
    T = data.draw(st.one_of(st.integers(0, isqrt(16 * D)), st.just(1 << 62)))
    assert _triples(*_kernels.smallnorm_window_i64(D, y_max, T, pad, parity)) \
        == _window_scan_py(D, y_max, T, pad, parity)


def test_enumerate_small_norm_above_int64_guard():
    m = (1 << 30) + 2
    D = m * m + 1  # ≡ 1 (mod 4), so both den = 1 and den = 2 run
    y_max, bound = 2, Fraction(1, 1 << 20)  # |N| < 2^-20 sqrt(D), about 1024
    # past both kernels' ranges: the window and the naive scan run in Python
    assert isqrt(D * y_max * y_max) ** 2 >= _kernels.INT64_SAFE
    assert D * y_max * y_max >= _kernels.INT64_SAFE
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
