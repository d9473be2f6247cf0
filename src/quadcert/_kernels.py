"""Hot int64 kernels, written with numpy.

Only machine-word work lives here: surd period computation, trial-division
scans and the small-norm window/naive scans, all guarded to int64 range by
the callers.  Certificate arithmetic is arbitrary precision and never
enters this module.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# largest value the int64 kernels accept; callers fall back to bignum paths
INT64_SAFE = 1 << 62


def _isqrt64(n):
    if n < 2:
        return n
    x = int(np.sqrt(np.float64(n)))
    while x * x > n:
        x -= 1
    while (x + 1) * (x + 1) <= n:
        x += 1
    return x


def surd_period_i64(D: int, k: int, out: np.ndarray) -> int:
    """Write the period of sqrt(D) (k = isqrt(D)) into out; its length, or
    -1 when out is too short."""
    m, d, a = 0, 1, k
    n = 0
    cap = out.shape[0]
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (k + m) // d
        if n >= cap:
            return -1
        out[n] = a
        n += 1
        if d == 1:
            return n


def trial_square_scan_i64(n: int, bound: int):
    """Remove each prime factor <= bound once; detect a repeated one.

    Returns (status, p, cofactor): status 0 -> p*p divides the input;
    status 1 -> clean scan."""
    CHUNK = 1 << 16
    n = int(n)
    if n % 2 == 0:
        n //= 2
        if n % 2 == 0:
            return 0, 2, n
    d = 3
    while d <= bound and d * d <= n:
        hi = min(bound, d + 2 * (CHUNK - 1), _isqrt64(n))
        ds = np.arange(d, hi + 1, 2, dtype=np.int64)
        if ds.size == 0:
            break
        hits = ds[n % ds == 0]
        for dv in hits.tolist():
            if dv * dv > n:  # the cofactor shrank below this divisor's square
                return 1, 0, n
            if n % dv == 0:  # smaller hits may have divided this out already
                n //= dv
                if n % dv == 0:
                    return 0, dv, n
        d = hi + 2
    return 1, 0, n


def smallnorm_window_i64(D, y_max, T, pad, parity):
    """x near y*sqrt(D) keeping 0 < |N| <= T, N = x^2 - D y^2, gcd(x, y) = 1.

    T is the exact integer threshold precomputed by the caller; parity=1
    restricts to odd x, odd y (half-integer elements).  Returns (xs, ys, ns)
    sorted by (y, x)."""
    if T >= INT64_SAFE:
        raise ValueError("threshold exceeds the int64 kernel range")
    ys_all = np.arange(1, y_max + 1, dtype=np.int64)
    if parity == 1:
        ys_all = ys_all[ys_all % 2 == 1]
    t = D * ys_all * ys_all
    x0 = np.sqrt(t.astype(np.float64)).astype(np.int64)
    x0 = np.where(x0 * x0 > t, x0 - 1, x0)
    x0 = np.where((x0 + 1) * (x0 + 1) <= t, x0 + 1, x0)
    xs, ys, ns = [], [], []
    for off in range(-pad, pad + 1):
        x = x0 + off
        ok = x >= 1
        N = x * x - t
        ok &= N != 0
        ok &= (N >= -T) & (N <= T)
        if parity == 1:
            ok &= x % 2 == 1
        ok &= np.gcd(x, ys_all) == 1
        xs.append(x[ok])
        ys.append(ys_all[ok])
        ns.append(N[ok])
    xs = np.concatenate(xs)
    ys = np.concatenate(ys)
    ns = np.concatenate(ns)
    order = np.lexsort((xs, ys))
    return xs[order], ys[order], ns[order]


def smallnorm_naive_i64(D, y_max, T, parity):
    """Exhaustive norm-equation scan; deliberately no window trick.

    For each y and each n with 0 < |n| <= T, s = D*y^2 + n is tested for
    being a perfect square x^2 with x >= 1; every x with
    0 < |x^2 - D y^2| <= T is found that way.  Same filters and output
    format as smallnorm_window_i64, in (y, x) order.  Raises ValueError
    unless D*y_max^2 + T < INT64_SAFE, so (x + 1)^2 cannot overflow."""
    if D * y_max * y_max + T >= INT64_SAFE:
        raise ValueError("D*y_max^2 + T exceeds the int64 kernel range")
    ys_all = np.arange(1, y_max + 1, dtype=np.int64)
    if parity == 1:
        ys_all = ys_all[ys_all % 2 == 1]
    n_all = np.arange(-T, T + 1, dtype=np.int64)
    n_all = n_all[n_all != 0]
    xs_o, ys_o, ns_o = [], [], []
    block = max(1, (1 << 20) // max(1, n_all.size))  # cells per temporary
    for lo in range(0, ys_all.size, block):
        y = ys_all[lo:lo + block, None]
        s = D * y * y + n_all
        x = np.sqrt(np.maximum(s, 0).astype(np.float64)).astype(np.int64)
        # the float root is within one of isqrt(s); the correction makes x
        # exactly isqrt(s) without relying on IEEE rounding of the root
        x -= x * x > s
        x += (x + 1) * (x + 1) <= s
        # row-major order is (y, n) order, and x grows with n within a row
        row, col = np.nonzero((x * x == s) & (x >= 1))
        xh, yh = x[row, col], y[row, 0]
        ok = np.gcd(xh, yh) == 1
        if parity == 1:
            ok &= xh % 2 == 1
        xs_o.append(xh[ok])
        ys_o.append(yh[ok])
        ns_o.append(n_all[col][ok])
    if not xs_o:
        z = np.array([], dtype=np.int64)
        return z, z, z
    return np.concatenate(xs_o), np.concatenate(ys_o), np.concatenate(ns_o)
