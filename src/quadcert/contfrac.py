"""Continued-fraction expansion of sqrt(D), convergents, and bound checks.

The expansion uses the classical surd recurrence

    m_{n+1} = d_n a_n - m_n,   d_{n+1} = (D - m_{n+1}^2)/d_n,
    a_{n+1} = floor((k + m_{n+1})/d_{n+1}),

starting from (m, d, a) = (0, 1, k) with k = floor(sqrt(D)); the minimal
period of sqrt(D) ends exactly at the first index with d = 1, where the
partial quotient is 2k.  The recurrence runs on Python integers for every
D: no int64 kernel, which over the nonsquare D < 20000 was 2.5x slower than
this loop.

Convergents follow p_{i+1} = u_{i+1} p_i + p_{i-1} (and likewise q) with
p_0 = k, q_0 = 1 and u read cyclically: u_j = 2k when s | j, else the
period entry.  The attached quadratic integers alpha_i = p_i + q_i sqrt(D)
are totally positive exactly for odd i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from .qarith import QuadElem, is_square, isqrt
from .qd import _sign_pair


class PeriodCapExceeded(Exception):
    """Expansion exceeded the caller-imposed step cap (set by `derive_D`'s
    round trip and by `build_certificate`)."""


@dataclass(frozen=True)
class SurdExpansion:
    """k = floor(sqrt(D)) plus the minimal period (u_1, ..., u_s) of sqrt(D)."""

    D: int
    k: int
    period: tuple

    @property
    def s(self) -> int:
        return len(self.period)

    @property
    def r(self) -> int:
        return self.s // 2  # ceil((s - 1)/2) for s >= 1

    def u(self, j: int) -> int:
        """Partial quotient u_j of the infinite expansion, any j >= 0."""
        if j < 0:
            raise ValueError("u index must be >= 0")
        if j == 0:
            return self.k
        return self.period[(j - 1) % self.s]

    def validate(self) -> None:
        s = self.s
        assert self.period[-1] == 2 * self.k, "period must end with 2k"
        assert all(u >= 1 for u in self.period)
        for i in range(1, s):
            assert self.period[i - 1] == self.period[s - 1 - i], "period not symmetric"


@dataclass(frozen=True)
class Convergent:
    i: int
    p: int
    q: int


def expand_sqrt(D: int, max_steps: Optional[int] = None) -> SurdExpansion:
    """Minimal-period continued fraction of sqrt(D) for nonsquare D >= 2.

    max_steps aborts with PeriodCapExceeded once the period provably exceeds
    it; `derive_D` and `build_certificate` cap a derived D's expansion at the
    intended period this way.  The verifier has its own `_v_expand`.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    if is_square(D):
        raise ValueError(f"D = {D} is a perfect square")
    k = isqrt(D)
    m, d, a = 0, 1, k
    period: List[int] = []
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (k + m) // d
        period.append(a)
        if d == 1:
            return SurdExpansion(D, k, tuple(period))
        if max_steps is not None and len(period) >= max_steps:
            raise PeriodCapExceeded(f"period of sqrt({D}) exceeds {max_steps}")


def convergent_iter(e: SurdExpansion) -> Iterator[Convergent]:
    """Infinite stream of convergents, indices 0, 1, 2, ..."""
    p_prev, q_prev = 1, 0  # p_{-1}, q_{-1}
    p, q = e.k, 1
    i = 1
    yield Convergent(0, p, q)
    while True:
        u = e.u(i)
        p_prev, p = p, u * p + p_prev
        q_prev, q = q, u * q + q_prev
        yield Convergent(i, p, q)
        i += 1


def convergents(e: SurdExpansion, n: int) -> List[Convergent]:
    """First n convergents of sqrt(D)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for c in convergent_iter(e):
        out.append(c)
        if len(out) == n:
            return out


def alpha(e: SurdExpansion, i: int) -> QuadElem:
    """alpha_i = p_i + q_i sqrt(D); totally positive iff i is odd."""
    if i < 0:
        raise ValueError("index must be >= 0")
    c = convergents(e, i + 1)[i]
    return QuadElem(e.D, c.p, c.q)


@dataclass(frozen=True)
class FractionBoundCheck:
    lower_holds: bool
    upper_holds: bool


def check_fraction_bounds(e: SurdExpansion, i: int) -> FractionBoundCheck:
    """Exact test of 1/((u_{i+1}+2) q_i^2) < |p_i/q_i - sqrt(D)| < 1/(u_{i+1} q_i^2).

    The i-th check of bound_checks_stream.
    """
    return _bound_checks_at(e, i)[1]


@dataclass(frozen=True)
class NormBoundCheck:
    lower_holds: bool
    upper_holds: bool
    norm: int


def check_norm_bounds(e: SurdExpansion, i: int) -> NormBoundCheck:
    """Exact test of 2 sqrt(D)/(u_{i+1}+2.5) < |N(alpha_i)| < 2 sqrt(D)/(u_{i+1}-0.5).

    The i-th check of bound_checks_stream.
    """
    return _bound_checks_at(e, i)[2]


def _bound_checks_at(e: SurdExpansion, i: int):
    if i < 0:
        raise ValueError("index must be >= 0")
    for item in bound_checks_stream(e, i + 1):
        pass
    return item


def bound_checks_stream(e: SurdExpansion, n: int):
    """(convergent, FractionBoundCheck, NormBoundCheck) for indices i < n.

    Fraction bounds: with N = |N(alpha_i)| the distance |p_i/q_i - sqrt(D)|
    is N/(q_i (p_i + q_i sqrt(D))), so both bounds reduce to single
    comparisons of an integer against q_i sqrt(D).  Norm bounds: doubling
    clears the .5 terms, so (|N|(2u+5))^2 and (|N|(2u-1))^2 are compared
    against 16 D.
    """
    for c in convergent_iter(e):
        if c.i >= n:
            return
        u_next = e.u(c.i + 1)
        N = c.p * c.p - e.D * c.q * c.q
        aN = abs(N)
        fb = FractionBoundCheck(
            # p + q sqrt(D) < (u+2) q N
            lower_holds=_sign_pair((u_next + 2) * c.q * aN - c.p, -c.q, e.D) > 0,
            # u q N < p + q sqrt(D)
            upper_holds=_sign_pair(u_next * c.q * aN - c.p, -c.q, e.D) < 0,
        )
        nb = NormBoundCheck(
            lower_holds=(aN * (2 * u_next + 5)) ** 2 > 16 * e.D,
            upper_holds=(aN * (2 * u_next - 1)) ** 2 < 16 * e.D,
            norm=N,
        )
        yield c, fb, nb


def interlacing_check(e: SurdExpansion, n: int) -> bool:
    """Even convergents increase below sqrt(D), odd decrease above, for i < n."""
    if n < 4:
        raise ValueError("need n >= 4")
    cs = convergents(e, n)
    for c in cs:
        side = _sign_pair(c.p, -c.q, e.D)  # p - q sqrt(D)
        if c.i % 2 == 0 and side >= 0:
            return False
        if c.i % 2 == 1 and side <= 0:
            return False
    for a, b in zip(cs, cs[2:]):
        # compare p_a/q_a vs p_b/q_b by cross-multiplication
        diff = a.p * b.q - b.p * a.q
        if a.i % 2 == 0 and diff >= 0:
            return False
        if a.i % 2 == 1 and diff <= 0:
            return False
    return True
