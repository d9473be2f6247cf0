from math import isqrt

import pytest

from quadcert.contfrac import (
    FractionBoundCheck,
    NormBoundCheck,
    PeriodCapExceeded,
    alpha,
    bound_checks_stream,
    check_fraction_bounds,
    check_norm_bounds,
    convergents,
    expand_sqrt,
    interlacing_check,
)
from quadcert.qarith import QuadElem

from .conftest import squarefree_sieve
from .test_kernels import _reference_period


def test_expand_examples():
    assert (expand_sqrt(2).k, expand_sqrt(2).period) == (1, (2,))
    assert (expand_sqrt(3).k, expand_sqrt(3).period) == (1, (1, 2))
    assert (expand_sqrt(13).k, expand_sqrt(13).period) == (3, (1, 1, 1, 1, 6))


def test_expand_rejects_bad_input():
    for bad in (0, 1, 4, 9, 10 ** 20):
        with pytest.raises(ValueError):
            expand_sqrt(bad)


def test_expand_step_cap():
    with pytest.raises(PeriodCapExceeded):
        expand_sqrt(94, max_steps=3)  # period of sqrt(94) has 16 terms


def test_convergent_examples():
    e3 = expand_sqrt(3)
    cs = convergents(e3, 2)
    assert [(c.p, c.q) for c in cs] == [(1, 1), (2, 1)]
    e13 = expand_sqrt(13)
    cs = convergents(e13, 5)
    assert [c.p for c in cs] == [3, 4, 7, 11, 18]
    assert [c.q for c in cs] == [1, 1, 2, 3, 5]
    for D in (2, 7, 61):
        c0 = convergents(expand_sqrt(D), 1)[0]
        assert (c0.p, c0.q) == (expand_sqrt(D).k, 1)


def test_alpha_examples():
    e3 = expand_sqrt(3)
    a1 = alpha(e3, 1)
    assert a1 == QuadElem(3, 2, 1) and a1.is_totally_positive()
    a0 = alpha(e3, 0)
    assert a0 == QuadElem(3, 1, 1) and not a0.is_totally_positive()
    a4 = alpha(expand_sqrt(13), 4)
    assert a4 == QuadElem(13, 18, 5) and a4.norm() == -1


def test_fraction_bound_examples():
    assert check_fraction_bounds(expand_sqrt(13), 0) == check_fraction_bounds(expand_sqrt(13), 0)
    for D, i in ((13, 0), (2, 0), (3, 1)):
        fb = check_fraction_bounds(expand_sqrt(D), i)
        assert fb.lower_holds and fb.upper_holds


def test_norm_bound_examples():
    e13 = expand_sqrt(13)
    nb = check_norm_bounds(e13, 1)
    assert (nb.lower_holds, nb.upper_holds, nb.norm) == (True, True, 3)
    nb = check_norm_bounds(e13, 4)
    assert (nb.lower_holds, nb.upper_holds, nb.norm) == (True, True, -1)
    nb = check_norm_bounds(expand_sqrt(2), 0)
    assert (nb.lower_holds, nb.upper_holds, nb.norm) == (True, True, -1)


def test_interlacing_examples():
    assert interlacing_check(expand_sqrt(13), 8)
    assert interlacing_check(expand_sqrt(2), 6)
    assert interlacing_check(expand_sqrt(3), 4)
    with pytest.raises(ValueError):
        interlacing_check(expand_sqrt(13), 3)


def test_period_invariants_small_sweep():
    for D in squarefree_sieve(800):
        e = expand_sqrt(D)
        e.validate()  # symmetry, final 2k, positivity
        assert e.period == expand_sqrt(D).period  # idempotent
        # minimality: no proper divisor-length block repeats
        s = e.s
        for ell in range(1, s):
            if s % ell == 0 and e.period[:ell] * (s // ell) == e.period:
                assert ell == s


def test_determinant_sign_recurrence_invariants():
    for D in (2, 3, 13, 61, 94, 9973):
        e = expand_sqrt(D)
        n = 2 * e.s + 2
        cs = convergents(e, n)
        for a, b in zip(cs, cs[1:]):
            assert b.p * a.q - a.p * b.q == (-1) ** (b.i - 1)
        for c in cs:
            N = c.p * c.p - D * c.q * c.q
            assert (N > 0) == (c.i % 2 == 1)
        # alpha recurrence
        for i in range(2, n):
            lhs = alpha(e, i)
            rhs = e.u(i) * alpha(e, i - 1) + alpha(e, i - 2)
            assert lhs == rhs
        # Pell identity
        assert alpha(e, e.s - 1).norm() == (-1) ** e.s


def _pointwise_bounds(e, i):
    """Reference: both bound checks at index i from a fresh convergent list."""
    c = convergents(e, i + 1)[i]
    u = e.u(i + 1)
    N = c.p * c.p - e.D * c.q * c.q
    aN = abs(N)
    # p + q sqrt(D) < (u+2) q N  and  u q N < p + q sqrt(D)
    fb = FractionBoundCheck(
        lower_holds=QuadElem(e.D, (u + 2) * c.q * aN - c.p, -c.q).sign() > 0,
        upper_holds=QuadElem(e.D, u * c.q * aN - c.p, -c.q).sign() < 0,
    )
    nb = NormBoundCheck(
        lower_holds=(aN * (2 * u + 5)) ** 2 > 16 * e.D,
        upper_holds=(aN * (2 * u - 1)) ** 2 < 16 * e.D,
        norm=N,
    )
    return fb, nb


def test_bound_stream_matches_pointwise():
    for D in (2, 13, 61, 94):
        e = expand_sqrt(D)
        for c, fb, nb in bound_checks_stream(e, 2 * e.s):
            assert (fb, nb) == _pointwise_bounds(e, c.i)
            assert fb == check_fraction_bounds(e, c.i)
            assert nb == check_norm_bounds(e, c.i)
    with pytest.raises(ValueError):
        check_norm_bounds(expand_sqrt(13), -1)


def test_expand_needs_no_kernel(monkeypatch):
    from quadcert import _kernels

    def refuse(*args):
        raise AssertionError("expand_sqrt called the int64 kernel")

    monkeypatch.setattr(_kernels, "surd_period_i64", refuse)
    for D in range(2, 20000):
        if isqrt(D) ** 2 != D:
            assert list(expand_sqrt(D).period) == _reference_period(D), D
