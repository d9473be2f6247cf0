from math import isqrt

import numpy as np

from quadcert import _kernels


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
