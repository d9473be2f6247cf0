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
    """Reference full (x, y) scan; deliberately no window trick.

    Same output format as smallnorm_window_i64, in (y, x) order."""
    if T >= INT64_SAFE:
        raise ValueError("threshold exceeds the int64 kernel range")
    xs_o, ys_o, ns_o = [], [], []
    for y in range(1, y_max + 1):
        if parity == 1 and y % 2 == 0:
            continue
        t = D * y * y
        x_hi = _isqrt64(t + T) + 2  # beyond this N = x^2 - t exceeds T
        x = np.arange(1, x_hi + 1, dtype=np.int64)
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
        z = np.array([], dtype=np.int64)
        return z, z, z
    return np.concatenate(xs_o), np.concatenate(ys_o), np.concatenate(ns_o)
