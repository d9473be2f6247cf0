from fractions import Fraction

import pytest

from quadcert.contfrac import expand_sqrt
from quadcert.qarith import QuadElem
from quadcert.smallnorm import (
    audit_lemma,
    enumerate_small_norm,
    naive_enumerate,
    power_trace,
    ramified_divisibility,
    ramified_primes,
)

from .conftest import squarefree_sieve


def _coords(elems):
    return [(e.mu.a, e.mu.b, e.mu.den) for e in elems]


def test_enumerate_examples_d13():
    els = enumerate_small_norm(13, Fraction(1, 2), 5)
    den1 = [e for e in els if e.mu.den == 1]
    assert _coords(den1) == [(18, 5, 1)]
    assert den1[0].norm == -1
    assert enumerate_small_norm(13, Fraction(1, 8), 5) == []


def test_enumerate_d2_strict_bound_is_empty():
    # min |N| over Z[sqrt(2)] is 1 > sqrt(2)/2, so the strict bound gives nothing
    assert enumerate_small_norm(2, Fraction(1, 2), 12) == []
    # at |N| < sqrt(2) the Pell solutions appear
    els = enumerate_small_norm(2, 1, 12)
    assert _coords(els) == [(1, 1, 1), (3, 2, 1), (7, 5, 1), (17, 12, 1)]
    assert [e.norm for e in els] == [-1, 1, -1, 1]


def test_enumerate_half_coordinates():
    els = enumerate_small_norm(13, "half", 50)
    assert (3, 1, 2) in _coords(els)  # (3+sqrt(13))/2, norm -1
    assert all(e.mu.a % 2 == 1 and e.mu.b % 2 == 1 for e in els if e.mu.den == 2)


def test_primitivity_and_canonical_form():
    for e in enumerate_small_norm(61, "half", 200):
        from math import gcd

        assert gcd(e.mu.a, e.mu.b) == 1 or e.mu.den == 2
        assert e.mu.a > 0 and e.mu.b > 0
        assert 0 < abs(e.norm)
        assert 4 * e.norm * e.norm < 61


@pytest.mark.parametrize("D", [13, 2, 5, 61, 94, 393])
def test_naive_oracle_agrees(D):
    for bound in (Fraction(1, 2), Fraction(1, 8)):
        a = enumerate_small_norm(D, bound, 300)
        b = naive_enumerate(D, bound, 300)
        assert [(x.mu, x.norm) for x in a] == [(x.mu, x.norm) for x in b]


def _fraction_key(e):
    """(b/den, a) as exact rationals."""
    return e.mu.b / Fraction(e.mu.den), e.mu.a


@pytest.mark.parametrize("D", [13, 21, 61, 293, 445])
def test_enumerations_keep_the_fraction_order(D):
    for enumerate_ in (enumerate_small_norm, naive_enumerate):
        els = enumerate_(D, "half", 300)
        assert {e.mu.den for e in els} == {1, 2}, enumerate_
        keys = [_fraction_key(e) for e in els]
        # distinct keys, so this order is the only one the old key allows
        assert keys == sorted(set(keys)), enumerate_


def test_audit_examples():
    assert audit_lemma(13, 50).all_matched
    assert audit_lemma(2, 50).all_matched
    # D = 5: part b is active but vacuous (min |N| = 1 > sqrt(5)/8)
    rep5 = audit_lemma(5, 50)
    assert rep5.all_matched
    assert rep5.part_b == ()
    # D = 293: (17+sqrt(293))/2 has norm -1 < sqrt(293)/8 and matches alpha_0/2
    rep = audit_lemma(293, 50)
    assert rep.all_matched and rep.part_b
    half = [m for m in rep.part_b
            if (m.mu.a, m.mu.b, m.mu.den) == (17, 1, 2)]
    assert half and half[0].classified_as.multiplier == Fraction(1, 2)


def test_audit_small_sweep():
    for D in squarefree_sieve(150):
        assert audit_lemma(D, 200).all_matched, D


def test_audit_part_b_is_the_eighth_bound_scan():
    # part b filters the half-bound scan; it must hold exactly what an
    # enumeration at the eighth bound finds
    for D in squarefree_sieve(500):
        if D % 4 != 1:
            continue
        part_b = audit_lemma(D, 1000).part_b
        eighth = enumerate_small_norm(D, Fraction(1, 8), 1000)
        assert [(e.mu, e.norm) for e in part_b] == [(e.mu, e.norm) for e in eighth], D


def test_ramified_examples():
    assert ramified_divisibility(QuadElem(13, 0, 1), 13) == [13]
    assert ramified_divisibility(QuadElem(13, 18, 5), 13) == []
    assert ramified_divisibility(QuadElem(3, 1, 1), 3) == [2]
    assert ramified_primes(13) == [13]
    assert ramified_primes(3) == [2, 3]
    assert ramified_primes(10) == [2, 5]
    with pytest.raises(ValueError):
        ramified_divisibility(QuadElem(12, 1, 1), 12)  # not squarefree


def test_ramified_membership_vs_norm():
    # norm divisibility alone is not membership; the residue test decides
    x = QuadElem(5, 5, 0)  # norm 25, divisible by the ramified ideal
    assert ramified_divisibility(x, 5) == [5]
    y = QuadElem(5, 1, 1, 2)  # unit
    assert ramified_divisibility(y, 5) == []


def test_power_trace_examples():
    e2 = expand_sqrt(2)
    rep = power_trace(e2, 0, 2)
    assert rep.power == QuadElem(2, 3, 2)
    assert rep.located_index == 1
    e13 = expand_sqrt(13)
    rep = power_trace(e13, 4, 2)
    assert rep.power == QuadElem(13, 649, 180)
    assert rep.norm_ok and rep.primitive
    assert rep.located_index == 9 and rep.u_at_j == 6
    rep = power_trace(e13, 1, 2)
    assert rep.power == QuadElem(13, 29, 8)
    assert not rep.norm_ok
    assert rep.located_index is None


def test_power_trace_located_norm_bound_link():
    # if located, the norm bound at j holds for |N|^m
    from quadcert.contfrac import check_norm_bounds

    e = expand_sqrt(2)
    rep = power_trace(e, 1, 3)
    if rep.located_index is not None:
        nb = check_norm_bounds(e, rep.located_index)
        assert nb.lower_holds and nb.upper_holds
