"""Exhaustive enumeration of ring-of-integers elements in an embedding box.

Target set: all c in O_K with |sigma_1(c)| <= S1 and |sigma_2(c)| <= S2 for
positive rationals S1, S2, where c = x + y*omega over the integral basis
{1, omega} (omega = sqrt(D), or (1+sqrt(D))/2 when D ≡ 1 mod 4).

One production engine, `box_enumerate_gauss`: Lagrange-reduce the basis
under the box-normalized form F(c) = (sigma_1(c)/S1)^2 + (sigma_2(c)/S2)^2
and Fincke-Pohst the ellipse F <= 2, which contains the whole box.  The form
is scaled to integer pairs (a, b) meaning (a + b*sqrt(D))/L over one common
denominator per box, so the reduction and the line walk take no gcd: every
comparison is an integer sign test and every floor one isqrt and one
floor division.  The reduction is a unimodular change of basis and every
bound is an outer bound, so completeness does not depend on how good the
reduction is.  The certificate pair boxes are astronomically skewed
(y-ranges ~2^67 with sub-unit widths); this engine visits O(1) candidates.

`box_enumerate_scan` walks y and intersects the two x-intervals, each bound
one `_floor_pair` on integers.  It is independent of the reduction and
serves as the tests' cross-check on boxes with a small y-range; production
never calls it.  Nothing here uses the rational type `qd.QD`.

Candidates are yielded as (x, y) basis coordinates after an exact box
membership test on integers; callers apply their own exact predicates on top.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

from .qarith import QuadElem, isqrt
from .qd import _floor_pair, _sign_pair, frac_sqrt_outer

# largest y-range the test cross-check `box_enumerate_scan` accepts: it pays
# four exact floors per y, where the Gauss engine pays per candidate line
YSCAN_LIMIT = 1500


def coords_to_elem(D: int, x: int, y: int) -> QuadElem:
    """x + y*omega as a QuadElem."""
    if D % 4 == 1:
        return QuadElem(D, 2 * x + y, y, 2)
    return QuadElem(D, x, y, 1)


def box_enumerate_scan(D: int, S1: Fraction, S2: Fraction) -> List[Tuple[int, int]]:
    """y-scan engine, the tests' cross-check.  Exact interval intersection
    per y; raises if the y-range exceeds YSCAN_LIMIT."""
    S1, S2 = Fraction(S1), Fraction(S2)
    S = S1 + S2
    wa, wd = (1, 2) if D % 4 == 1 else (0, 1)  # omega = (wa + sqrt(D))/wd
    # |y| * (omega - omega') <= S1 + S2, with omega - omega' = 2*sqrt(D)/wd
    y_hi = _floor_pair(0, S.numerator * wd, 2 * S.denominator * D, D) + 1
    if y_hi > YSCAN_LIMIT:
        raise ValueError(f"y-range {y_hi} too large for the scan engine")

    def x_range(bnd: Fraction, y: int, wb: int) -> Tuple[int, int]:
        # floor(-S - y*w) and floor(S - y*w) + 1 for S = n/d and
        # w = (wa + wb*sqrt(D))/wd, that is omega (wb = 1) or omega' (wb = -1)
        n, d = bnd.numerator * wd, bnd.denominator
        a, b = -y * d * wa, -y * d * wb
        return _floor_pair(a - n, b, d * wd, D), _floor_pair(a + n, b, d * wd, D) + 1

    in_box = _in_box(D, S1, S2)
    out = []
    for y in range(-y_hi, y_hi + 1):
        # x in [-S1 - y w, S1 - y w] ∩ [-S2 - y w', S2 - y w']
        lo1, hi1 = x_range(S1, y, 1)
        lo2, hi2 = x_range(S2, y, -1)
        lo, hi = max(lo1, lo2) - 1, min(hi1, hi2) + 1
        for x in range(lo, hi + 1):
            if in_box(x, y):
                out.append((x, y))
    out.sort()
    return out


def _in_box(D: int, S1: Fraction, S2: Fraction) -> Callable[[int, int], bool]:
    """Exact membership test (x, y) -> |sigma_h(x + y*omega)| <= S_h, h = 1, 2.

    With c = (A + B*sqrt(D))/den and S_h = p/q, |sigma_1(c)| <= p/q holds iff
    den*p - q*A - q*B*sqrt(D) >= 0 and den*p + q*A + q*B*sqrt(D) >= 0; the
    conjugate flips the sign of B.  Four integer sign tests, no QD objects.
    """
    half = D % 4 == 1
    den = 2 if half else 1
    S1, S2 = Fraction(S1), Fraction(S2)
    P1, q1 = den * S1.numerator, S1.denominator
    P2, q2 = den * S2.numerator, S2.denominator

    def in_box(x: int, y: int) -> bool:
        A = 2 * x + y if half else x
        a1, b1, a2, b2 = q1 * A, q1 * y, q2 * A, q2 * y
        return (_sign_pair(P1 - a1, -b1, D) >= 0 and _sign_pair(P1 + a1, b1, D) >= 0
                and _sign_pair(P2 - a2, b2, D) >= 0 and _sign_pair(P2 + a2, -b2, D) >= 0)

    return in_box


def _floor_quot(x: Tuple[int, int], y: Tuple[int, int], D: int) -> int:
    """floor(x/y) for integer pairs (a, b) meaning a + b*sqrt(D), y of
    nonzero norm: x/y = x*conj(y)/N(y)."""
    (xa, xb), (ya, yb) = x, y
    return _floor_pair(xa * ya - xb * yb * D, xb * ya - xa * yb,
                       ya * ya - yb * yb * D, D)


def box_enumerate_gauss(D: int, S1: Fraction, S2: Fraction) -> List[Tuple[int, int]]:
    """Gauss-reduced Fincke-Pohst engine; complete for any box shape.

    With S_h = p_h/q_h the form is scaled by L = p1^2 p2^2 (4 L when
    D ≡ 1 mod 4), so every Gram entry is an integer pair (a, b) meaning
    (a + b*sqrt(D))/L and no gcd is taken in the reduction or the walk.
    """
    S1, S2 = Fraction(S1), Fraction(S2)
    p1, q1 = S1.numerator, S1.denominator
    p2, q2 = S2.numerator, S2.denominator
    # L*F(c) = al*sigma_1(c)^2 + be*sigma_2(c)^2; the Gram entries
    # A = F(u), B0 = F(u, v), C = F(v) start at u = 1, v = omega
    al, be = (q1 * p2) ** 2, (q2 * p1) ** 2
    if D % 4 == 1:
        # 2*omega = 1 + sqrt(D), 4*omega^2 = 1 + D + 2*sqrt(D)
        L = 4 * (p1 * p2) ** 2
        A = (4 * (al + be), 0)
        B0 = (2 * (al + be), 2 * (al - be))
        C = ((al + be) * (1 + D), 2 * (al - be))
    else:
        L = (p1 * p2) ** 2
        A, B0, C = (al + be, 0), (0, al - be), ((al + be) * D, 0)

    def less(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
        return _sign_pair(x[0] - y[0], x[1] - y[1], D) < 0

    # Lagrange/Gauss reduction, the Gram entries updated in place;
    # terminates because F(v) strictly decreases
    u, v = (1, 0), (0, 1)
    while True:
        if less(C, A):
            u, v, A, C = v, u, C, A
        # mu = round(B0/A) = floor((2 B0 + A)/(2 A))
        mu = _floor_quot((2 * B0[0] + A[0], 2 * B0[1] + A[1]), (2 * A[0], 2 * A[1]), D)
        if mu != 0:
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
            C = (C[0] - 2 * mu * B0[0] + mu * mu * A[0],
                 C[1] - 2 * mu * B0[1] + mu * mu * A[1])
            B0 = (B0[0] - mu * A[0], B0[1] - mu * A[1])
        if not less(C, A):
            break
    # the basis is reduced (|2 B0| <= A <= C), so u is a shortest nonzero
    # vector: if F(u) = A/L > 2, the ellipse F <= 2 around the box holds
    # only the origin, which is what the walk would return
    if _sign_pair(A[0] - 2 * L, A[1], D) > 0:
        return [(0, 0)]
    # L^2 * det; rational, = L^2 (omega - omega')^2 / (S1 S2)^2
    det = (A[0] * C[0] + A[1] * C[1] * D - B0[0] * B0[0] - B0[1] * B0[1] * D,
           A[0] * C[1] + A[1] * C[0] - 2 * B0[0] * B0[1])
    two_LA = (2 * L * A[0], 2 * L * A[1])
    # |n| <= sqrt(2A/det) on F <= 2
    n_max = isqrt(max(_floor_quot(two_LA, det, D), 0))
    L2, T = L * L, 1 << 24
    TA = (A[0] * T, A[1] * T)
    in_box = _in_box(D, S1, S2)
    out = []
    for n in range(-n_max, n_max + 1):
        # L^2 (2A - det n^2): |A m + B0 n| <= sqrt of its value
        da, db = two_LA[0] - det[0] * n * n, two_LA[1] - det[1] * n * n
        if _sign_pair(da, db, D) < 0:
            continue
        # outer bound sd = (s + 1)/T on sqrt(disc), T = 2^24: an integer
        # floor would explode the m-range whenever disc < 1
        s = isqrt(_floor_pair(da * T * T, db * T * T, L2, D)) + 1
        ca, cb = -n * B0[0] * T, -n * B0[1] * T
        lo = _floor_quot((ca - s * L, cb), TA, D) - 1
        hi = _floor_quot((ca + s * L, cb), TA, D) + 2
        for m in range(lo, hi + 1):
            x = m * u[0] + n * v[0]
            y = m * u[1] + n * v[1]
            if in_box(x, y):
                out.append((x, y))
    out.sort()
    return out


def box_enumerate(D: int, S1: Fraction, S2: Fraction) -> List[Tuple[int, int]]:
    """All (x, y) with x + y*omega inside the embedding box, sorted.

    A window S_h <= 0 admits at most c = 0, so it is answered without the
    Gauss engine, which divides by S_h.
    """
    if S1 < 0 or S2 < 0:
        return []
    if S1 == 0 or S2 == 0:
        return [(0, 0)]
    return box_enumerate_gauss(D, S1, S2)


# binary digits past the point in the sqrt_embedding_bounds windows
_EMBED_BITS = 24


def sqrt_embedding_bounds(beta: QuadElem) -> Tuple[Fraction, Fraction]:
    """Outer rational bounds (S1, S2) on sqrt(sigma_h(beta)) for totally
    positive beta.

    sigma_2(beta) is computed as N(beta)/sigma_1(beta) through a rational
    lower bound on sigma_1, so S2 stays tight even when the conjugate is
    vanishingly small (which is exactly the certificate situation).  Both
    sigma_1 bounds are exact floors of (a + b*sqrt(D))/den scaled by a power
    of two.
    """
    if not beta.is_totally_positive():
        raise ValueError("beta must be totally positive")
    D, a, b, den = beta.D, beta.a, beta.b, beta.den
    e2 = 2 * _EMBED_BITS
    S1 = Fraction(isqrt(_floor_pair(a << e2, b << e2, den, D)) + 1, 1 << _EMBED_BITS)
    bits = _EMBED_BITS
    lo1 = _floor_pair(a << bits, b << bits, den, D)
    while lo1 <= 0:  # sigma_1 smaller than the resolution: sharpen
        bits *= 2
        lo1 = _floor_pair(a << bits, b << bits, den, D)
    s2_outer = Fraction(beta.norm() << bits, lo1)  # >= sigma_2
    S2 = frac_sqrt_outer(s2_outer, _EMBED_BITS)
    return S1, S2
