"""Hot int64 kernels, written with numpy.

Only machine-word work lives here: the small-norm window and naive scans.
Each has one int64 range rule and raises ValueError past it; `smallnorm`
checks the same rule first and scans Python integers past it.  Certificate
arithmetic, the squarefree trial scan included, is arbitrary precision and
never enters this module.

This is the one module that imports numpy at its top.  `smallnorm` imports
it when a scan first runs, not with the package, so numpy and the residue
tables below are loaded then.

`surd_period_i64`, `trial_square_scan_i64` (with its helper `_isqrt64`) and
`BACKEND` have no production caller: `contfrac` expands every period with
its plain Python loop, which is faster, and `qarith` runs one trial-division
engine for every n.  They stay only while the pipeline benchmark
(`perfbench/`) binds them.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

BACKEND = "numpy"

# the bound of the small-norm kernels' range rules: within it no int64 overflows
INT64_SAFE = 1 << 62

# cells in one int64 grid of the small-norm scans (8 MiB a temporary)
GRID_CELLS = 1 << 20


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


def _squares_mod(m):
    squares = {i * i % m for i in range(m)}
    return np.array([r in squares for r in range(m)])


# quadratic-residue tables of the naive scan's sieve, built when this module
# is first imported: a perfect square is a square modulo every m, so a cell
# whose s misses one of them is no square
_SQ64, _SQ63, _SQ65, _SQ11 = (_squares_mod(m) for m in (64, 63, 65, 11))


def _tiles(y_max, step, lo, hi):
    """Cover the grid (y = 1, 1 + step, ... <= y_max) x (columns lo..hi) in
    row-major order with tiles of at most GRID_CELLS cells; yields (y, cols)
    as int64 aranges.  Whole rows share a tile while they fit; a wider row
    is split into column chunks, one row a tile, each chunk built on its
    own, so no temporary grows with the width."""
    width = min(hi - lo + 1, GRID_CELLS)
    span = (GRID_CELLS // width) * step  # y range of one tile
    for y0 in range(1, y_max + 1, span):
        y = np.arange(y0, min(y0 + span, y_max + 1), step, dtype=np.int64)
        for c0 in range(lo, hi + 1, width):
            yield y, np.arange(c0, min(c0 + width, hi + 1), dtype=np.int64)


def _concat(xs_o, ys_o, ns_o):
    if not xs_o:
        z = np.array([], dtype=np.int64)
        return z, z, z
    return np.concatenate(xs_o), np.concatenate(ys_o), np.concatenate(ns_o)


def smallnorm_window_i64(D, y_max, T, pad, parity):
    """x near y*sqrt(D) keeping 0 < |N| <= T, N = x^2 - D y^2, gcd(x, y) = 1.

    T is the exact integer threshold precomputed by the caller; parity=1
    restricts to odd x, odd y (half-integer elements).  Returns (xs, ys, ns)
    sorted by (y, x).  Raises ValueError unless
    (isqrt(D y_max^2) + pad + 1)^2 < INT64_SAFE, which bounds every square,
    D y^2 and |N| the scan computes; T may be any integer.

    The candidates are x = isqrt(D y^2) + off for |off| <= pad, scanned as
    (y, offset) tiles of at most GRID_CELLS cells, so memory grows with
    neither y_max nor pad.  The exact integer filters run first, |N| <= T
    on the whole tile and x >= 1, N != 0 and the parity on what passes; gcd
    runs only on the survivors.  Tiles are row-major in (y, off), which is
    (y, x) order, so no sort is needed."""
    if (isqrt(D * y_max * y_max) + pad + 1) ** 2 >= INT64_SAFE:
        raise ValueError("(isqrt(D*y_max^2) + pad + 1)^2 exceeds the int64 kernel range")
    xs_o, ys_o, ns_o = [], [], []
    for y, offs in _tiles(y_max, 2 if parity == 1 else 1, -pad, pad):
        t = D * y * y
        x0 = np.sqrt(t.astype(np.float64)).astype(np.int64)
        x0 -= x0 * x0 > t  # exactly isqrt(t), as in smallnorm_naive_i64
        x0 += (x0 + 1) * (x0 + 1) <= t
        N = x0[:, None] + offs
        N *= N
        N -= t[:, None]
        idx = np.flatnonzero(np.abs(N) <= T)
        row, col = np.divmod(idx, offs.size)
        x, yh, n = x0[row] + offs[col], y[row], N.ravel()[idx]
        ok = (x >= 1) & (n != 0)
        if parity == 1:
            ok &= x % 2 == 1
        x, yh, n = x[ok], yh[ok], n[ok]
        ok = np.gcd(x, yh) == 1
        xs_o.append(x[ok])
        ys_o.append(yh[ok])
        ns_o.append(n[ok])
    return _concat(xs_o, ys_o, ns_o)


def smallnorm_naive_i64(D, y_max, T, parity):
    """Exhaustive norm-equation scan; deliberately no window trick.

    For each y and each n with 0 < |n| <= T, s = D*y^2 + n is tested for
    being a perfect square x^2 with x >= 1; every x with
    0 < |x^2 - D y^2| <= T is found that way.  Same filters and output
    format as smallnorm_window_i64, in (y, x) order.  Raises ValueError
    unless D*y_max^2 + T < INT64_SAFE, so (x + 1)^2 cannot overflow.

    Every (y, n) cell is visited, in (y, n) tiles of at most GRID_CELLS
    cells, so memory grows with neither y_max nor T.  An exact
    quadratic-residue sieve runs first: s must be a square mod 64 (about
    19% of cells pass), then mod 63, 65 and 11, and s >= 1.  A perfect
    square passes every such test, so the sieve drops only non-squares.
    The exact square test below decides on the cells left (about 1%)."""
    if D * y_max * y_max + T >= INT64_SAFE:
        raise ValueError("D*y_max^2 + T exceeds the int64 kernel range")
    xs_o, ys_o, ns_o = [], [], []
    for y, n in _tiles(y_max, 2 if parity == 1 else 1, -T, T):
        s = (D * y * y)[:, None] + n
        idx = np.flatnonzero(_SQ64[s & 63])
        s = s.ravel()[idx]
        ok = _SQ63[s % 63] & _SQ65[s % 65] & _SQ11[s % 11] & (s >= 1)
        idx, s = idx[ok], s[ok]
        x = np.sqrt(s.astype(np.float64)).astype(np.int64)
        # the float root is within one of isqrt(s); the correction makes x
        # exactly isqrt(s) without relying on IEEE rounding of the root
        x -= x * x > s
        x += (x + 1) * (x + 1) <= s
        sq = x * x == s
        # tiles are row-major in (y, n), and x grows with n within a row
        row, col = np.divmod(idx[sq], n.size)
        xh, yh, nh = x[sq], y[row], n[col]
        ok = (nh != 0) & (np.gcd(xh, yh) == 1)
        if parity == 1:
            ok &= xh % 2 == 1
        xs_o.append(xh[ok])
        ys_o.append(yh[ok])
        ns_o.append(nh[ok])
    return _concat(xs_o, ys_o, ns_o)
