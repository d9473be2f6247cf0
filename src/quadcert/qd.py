"""Exact arithmetic in Q(sqrt(D)) with unrestricted rational coordinates.

`QD` represents (a + b*sqrt(D))/q with integer a, b and q > 0, normalized so
that gcd(a, b, q) = 1.  It serves the representability decider (Gram matrix,
UDU^T factorisation, coordinate boxes, `sqrt_in_field`) and the
tests' y-scan oracle; the public ring-of-integers type with den in {1, 2}
lives in `qarith`.

Also here, on bare integers, are the generation side's two exact primitives
on a + b*sqrt(D): `_sign_pair` (integer sign bookkeeping and one squaring)
and `_floor_pair` (one isqrt and one floor division).  `QuadElem`, `QD`,
`contfrac` and `latbox` all decide through them; the verifier keeps its own.
No floating point anywhere.
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
        if isinstance(value, Fraction):
            return cls(D, value.numerator, 0, value.denominator)
        return cls(D, value)

    def _like(self, a, b, q) -> "QD":
        return QD(self.D, a, b, q)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = QD.of(self.D, other)
        return self._like(self.a * o.q + o.a * self.q, self.b * o.q + o.b * self.q, self.q * o.q)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + (-QD.of(self.D, other))

    def __rsub__(self, other):
        return QD.of(self.D, other) - self

    def __mul__(self, other):
        o = QD.of(self.D, other)
        return self._like(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.q * o.q,
        )

    __rmul__ = __mul__

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

    def __rtruediv__(self, other):
        return QD.of(self.D, other) * self.inverse()

    def conj(self) -> "QD":
        return self._like(self.a, -self.b, self.q)

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        return _sign_pair(self.a, self.b, self.D)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        o = QD.of(self.D, other)
        return self.a * o.q == o.a * self.q and self.b * o.q == o.b * self.q

    def __hash__(self):
        return hash((self.D, self.a, self.b, self.q))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

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


def frac_sqrt_exact(x: Fraction):
    """sqrt(x) as a Fraction if x is the square of a rational, else None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


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


def sqrt_in_field(theta: QD):
    """Exact square root of theta in Q(sqrt(D)), or None if none exists.

    Solves (g + h*sqrt(D))**2 = e + f*sqrt(D): the norm e**2 - D*f**2 must be
    a rational square m**2, and then g**2 is one of (e +- m)/2.
    """
    D = theta.D
    s = theta.sign()
    if s < 0 and theta.conj().sign() < 0:
        return None
    e = Fraction(theta.a, theta.q)
    f = Fraction(theta.b, theta.q)
    if f == 0:
        g = frac_sqrt_exact(e)
        if g is not None:
            return QD(D, g, Fraction(0))
        h2 = e / D
        h = frac_sqrt_exact(h2)
        if h is not None:
            return QD(D, Fraction(0), h)
        return None
    m2 = e * e - D * f * f
    m = frac_sqrt_exact(m2)
    if m is None:
        return None
    for g2 in ((e + m) / 2, (e - m) / 2):
        if g2 < 0:
            continue
        g = frac_sqrt_exact(g2)
        if g is None or g == 0:
            continue
        h = f / (2 * g)
        cand = QD(D, g, h)
        if cand * cand == theta:
            return cand
    return None
