"""Exact arithmetic in Q(sqrt(D)) with unrestricted rational coordinates.

`QD` represents (a + b*sqrt(D))/q with integer a, b and q > 0, normalized so
that gcd(a, b, q) = 1.  In the package only the representability decider in
`certify` uses it (Gram matrix, UDU^T factorisation, coordinate boxes, the
last coordinate's `sqrt_in_field`); the tests use it as their oracle.  The
public ring-of-integers type with den in {1, 2} lives in `qarith`.

Also here, on bare integers, are the generation side's two exact primitives
on a + b*sqrt(D): `_sign_pair` (integer sign bookkeeping and one squaring)
and `_floor_pair` (one isqrt and one floor division).  `QuadElem`, `QD`,
`contfrac` and `latbox` all decide through them; the verifier keeps its own.
`sqrt_in_field` takes its square roots on integers too.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def _sign_pair(a: int, b: int, D: int) -> int:
    """Sign of a + b*sqrt(D) for integers a, b and nonsquare D > 0."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    if a > 0:  # b < 0
        return 1 if a * a > b * b * D else -1
    return 1 if a * a < b * b * D else -1


def _floor_pair(a: int, b: int, r: int, D: int) -> int:
    """floor((a + b*sqrt(D))/r) for integers a, b, r != 0 and nonsquare D.

    Exact with no fix-up: floor(x/r) = floor(floor(x)/r) for r > 0, and
    floor(b*sqrt(D)) is an isqrt.
    """
    if r < 0:
        a, b, r = -a, -b, -r
    t = isqrt(b * b * D)
    if b < 0:
        t = -t - 1  # b*sqrt(D) is irrational, so its floor lies below -isqrt
    return (a + t) // r


class QD:
    __slots__ = ("D", "a", "b", "q")

    def __init__(self, D: int, a, b=0, q: int = 1):
        # exact type tests: isinstance against the Rational ABC is slow here
        if type(a) is not int or type(b) is not int:
            fa, fb = Fraction(a), Fraction(b)
            den = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
            a = fa.numerator * (den // fa.denominator)
            b = fb.numerator * (den // fb.denominator)
            q = q * den
        if q < 0:
            a, b, q = -a, -b, -q
        if q != 1:
            g = gcd(gcd(abs(a), abs(b)), q)
            if g > 1:
                a, b, q = a // g, b // g, q // g
        self.D = D
        self.a = a
        self.b = b
        self.q = q

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, D: int, value) -> "QD":
        if isinstance(value, QD):
            if value.D != D:
                raise ValueError("QD field mismatch")
            return value
        return cls(D, value)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = QD.of(self.D, other)
        return QD(self.D, self.a * o.q + o.a * self.q, self.b * o.q + o.b * self.q, self.q * o.q)

    def __neg__(self):
        return QD(self.D, -self.a, -self.b, self.q)

    def __sub__(self, other):
        o = QD.of(self.D, other)
        return QD(self.D, self.a * o.q - o.a * self.q, self.b * o.q - o.b * self.q, self.q * o.q)

    def __mul__(self, other):
        o = QD.of(self.D, other)
        return QD(self.D, self.a * o.a + self.b * o.b * self.D,
                  self.a * o.b + self.b * o.a, self.q * o.q)

    def inverse(self) -> "QD":
        # 1/((a + b√D)/q) = q(a - b√D)/(a² - b²D)
        n = self.a * self.a - self.b * self.b * self.D
        if n == 0:
            raise ZeroDivisionError("QD inverse of zero")
        if n < 0:
            return QD(self.D, -self.q * self.a, self.q * self.b, -n)
        return QD(self.D, self.q * self.a, -self.q * self.b, n)

    def __truediv__(self, other):
        return self * QD.of(self.D, other).inverse()

    def conj(self) -> "QD":
        return QD(self.D, self.a, -self.b, self.q)

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        return _sign_pair(self.a, self.b, self.D)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        o = QD.of(self.D, other)
        return self.a * o.q == o.a * self.q and self.b * o.q == o.b * self.q

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rounding and radicals ----------------------------------------------

    def floor(self) -> int:
        """Exact floor of the real value under the leading embedding."""
        return _floor_pair(self.a, self.b, self.q, self.D)

    def round_nearest(self) -> int:
        return (self + Fraction(1, 2)).floor()

    def sqrt_floor(self) -> int:
        """floor(sqrt(self)) for self >= 0: floor(sqrt(x)) = isqrt(floor(x))."""
        if self.sign() < 0:
            raise ValueError("sqrt_floor of a negative value")
        return isqrt(max(self.floor(), 0))

    def upper_frac(self, extra_bits: int = 16) -> Fraction:
        """Rational upper bound on the real value, within 2**-extra_bits."""
        scale = 1 << extra_bits
        return Fraction((self * scale).floor() + 1, scale)

    def __repr__(self):
        return f"QD({self.D}, {self.a}, {self.b}, {self.q})"


def frac_sqrt_outer(x: Fraction, extra_bits: int = 16) -> Fraction:
    """Rational upper bound on sqrt(x), tight to a relative 2**-extra_bits."""
    if x < 0:
        raise ValueError("sqrt of negative")
    if x == 0:
        return Fraction(0)
    # scale so that the isqrt argument carries enough significant bits
    shift = extra_bits + max(0, (x.denominator.bit_length() - x.numerator.bit_length()) // 2 + 1)
    s = 1 << shift
    n = isqrt((x.numerator * s * s) // x.denominator) + 1
    return Fraction(n, s)


def _exact_isqrt(n: int):
    """The square root of n if n is a perfect square (n >= 0), else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def sqrt_in_field(theta: QD):
    """Exact square root of theta in Q(sqrt(D)), or None if none exists.

    With theta = (a + b*sqrt(D))/q, A = a*q and B = b*q, a root
    (g + h*sqrt(D)) solves g**2 + D*h**2 = A/q**2 and 2*g*h = B/q**2.  For
    B != 0 the norm A**2 - D*B**2 must be a square m**2; then 2*(A + m) or
    2*(A - m) is a square s**2 (tried in that order), and the root is
    (s**2 + 2*B*sqrt(D))/(2*q*s).  For B = 0 the root is rational or a
    rational multiple of sqrt(D).
    """
    D, q = theta.D, theta.q
    A, B = theta.a * q, theta.b * q
    if B == 0:
        r = _exact_isqrt(A)
        if r is not None:
            return QD(D, r, 0, q)
        r = _exact_isqrt(A * D)
        return None if r is None else QD(D, 0, r, q * D)
    m = _exact_isqrt(A * A - D * B * B)
    if m is None:
        return None
    for t in (A + m, A - m):
        s = _exact_isqrt(2 * t)
        if not s:  # no root, or t = 0, which gives no root with B != 0
            continue
        cand = QD(D, s * s, 2 * B, 2 * q * s)
        if cand * cand == theta:
            return cand
    return None
