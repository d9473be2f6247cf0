import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert.qarith import QuadElem
from quadcert.qd import QD, _sign_pair, frac_sqrt_exact, frac_sqrt_outer, sqrt_in_field
from quadcert.verify import _vsign


def test_basic_arithmetic():
    x = QD(5, 1, 1, 2)  # golden ratio
    assert x * x == x + 1
    assert (x - x).is_zero()
    assert x.conj() == QD(5, 1, -1, 2)
    assert (x / x) == QD(5, 1)
    assert x.inverse() * x == QD(5, 1)


def test_mixed_int_and_fraction_coordinates():
    # one Fraction coordinate is enough to take the rational branch
    assert QD(5, 1, Fraction(1, 2)) == QD(5, 2, 1, 2)
    assert QD(5, Fraction(3, 4), 1) == QD(5, 3, 4, 4)
    x = QD(5, 1, Fraction(1, 2))
    assert (x.a, x.b, x.q) == (2, 1, 2)


def test_floor_and_round():
    rng = random.Random(7)
    import math

    for _ in range(400):
        D = rng.choice([2, 3, 5, 13, 61])
        a = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 999))
        b = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 999))
        x = QD(D, a, b)
        approx = float(a) + float(b) * math.sqrt(D)
        got = x.floor()
        assert abs(got - math.floor(approx)) <= 1  # float sanity only
        assert QD(D, got) <= x < QD(D, got + 1)
        rn = x.round_nearest()
        assert QD(D, Fraction(2 * rn - 1, 2)) <= x <= QD(D, Fraction(2 * rn + 1, 2))


def test_sqrt_floor():
    x = QD(2, 0, 3)  # 3 sqrt(2) = 4.24...
    assert x.sqrt_floor() == 2
    assert QD(2, 49).sqrt_floor() == 7
    assert QD(2, 50).sqrt_floor() == 7


def test_frac_sqrt_bounds():
    for v in (Fraction(2), Fraction(1, 3), Fraction(10 ** 30, 7), Fraction(1, 10 ** 25)):
        hi = frac_sqrt_outer(v)
        assert v <= hi * hi
        assert (hi * Fraction(999, 1000)) ** 2 < v  # tight


def test_frac_sqrt_exact():
    assert frac_sqrt_exact(Fraction(49, 16)) == Fraction(7, 4)
    assert frac_sqrt_exact(Fraction(2)) is None
    assert frac_sqrt_exact(Fraction(-1)) is None


def test_sqrt_in_field():
    # (3 + sqrt(13))/2 squared
    c = QD(13, Fraction(3, 2), Fraction(1, 2))
    theta = c * c
    got = sqrt_in_field(theta)
    assert got is not None and (got == c or got == -c)
    # rational square
    assert sqrt_in_field(QD(13, 9)) == QD(13, 3)
    # D * square: sqrt(13)
    assert sqrt_in_field(QD(13, 13)) == QD(13, 0, 1)
    # non-squares
    assert sqrt_in_field(QD(13, 7)) is None
    assert sqrt_in_field(QD(13, 1, 1)) is None
    assert sqrt_in_field(QD(13, -1)) is None


def test_upper_lower_frac():
    x = QD(2, 0, 1)  # sqrt(2)
    hi = x.upper_frac()
    lo = hi - Fraction(1, 1 << 16)  # within 2**-16
    assert lo * lo < 2 < hi * hi


ints = st.integers(-60, 60) | st.integers(-10 ** 40, 10 ** 40)


@settings(max_examples=400, deadline=None)
@given(D=st.sampled_from([2, 3, 5, 7, 13, 61, 94, 2011, 2 ** 61 + 1]), a=ints, b=ints)
@example(D=2, a=0, b=0)
@example(D=2, a=3, b=-2)  # 9 > 8
@example(D=2, a=-3, b=2)
@example(D=13, a=10 ** 40, b=-(10 ** 40) // 3)
def test_sign_primitives_agree(D, a, b):
    """Generation's sign (and QuadElem's, which delegates to it) and the
    verifier's own equal sign(a|a| + b|b|D), the sign of a + b*sqrt(D) since
    t -> t|t| is increasing."""
    v = a * abs(a) + b * abs(b) * D
    want = (v > 0) - (v < 0)
    assert _sign_pair(a, b, D) == want
    assert QuadElem(D, a, b).sign() == want
    assert _vsign(a, b, D) == want
