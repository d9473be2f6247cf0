"""Small-norm elements, the lemma audit, ramified primes, power traces.

Elements mu = (x + y*sqrt(D))/den with 0 < |N(mu)| below a bound lam*sqrt(D)
are enumerated canonically (x > 0, y > 0, content 1; den = 2 allowed only
for D ≡ 1 mod 4 with x, y odd).  Up to sign and conjugation every small-norm
element has such a representative, so the audit against the convergent
elements alpha_i needs only positive multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from . import _kernels
from .contfrac import SurdExpansion, alpha as _alpha, convergent_iter, expand_sqrt
from .qarith import (
    QuadElem,
    _RhoBudget,
    _smallest_prime_factor,
    is_square,
    isqrt,
    squarefree_status,
)

BOUND_HALF = Fraction(1, 2)
BOUND_EIGHTH = Fraction(1, 8)


@dataclass(frozen=True)
class Match:
    index: int
    conjugate: bool
    multiplier: Fraction


@dataclass(frozen=True)
class SmallNormElement:
    mu: QuadElem
    norm: int
    classified_as: Optional[Match] = None


def _norm_bound_parts(bound) -> Tuple[int, int]:
    """bound as a rational multiple lam of sqrt(D); returns (num^2, den^2)."""
    if isinstance(bound, str):
        bound = {"half": BOUND_HALF, "eighth": BOUND_EIGHTH}[bound]
    lam = Fraction(bound)
    if lam <= 0:
        raise ValueError("bound must be positive")
    return lam.numerator ** 2, lam.denominator ** 2


def _sort_key(e: SmallNormElement) -> Tuple[int, int]:
    """(b/den, a) in integers: 2b/den orders as b/den does, and den is 1 or 2."""
    return e.mu.b * (2 // e.mu.den), e.mu.a


def enumerate_small_norm(D: int, bound, y_max: int) -> List[SmallNormElement]:
    """Primitive mu = (x + y sqrt(D))/den, 1 <= y <= y_max, 0 < |N(mu)| < bound*sqrt(D).

    Candidates x sit in the exact window around y*sqrt(D) (the window is
    wider than |x - y sqrt(D)| < bound*den^2/y can reach, with one extra
    candidate on each side); the norm filter is exact.  Half-coordinates
    (den = 2, x and y odd) are included iff D ≡ 1 (mod 4).
    """
    if is_square(D) or D < 2:
        raise ValueError("D must be a nonsquare integer >= 2")
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    bn2, bd2 = _norm_bound_parts(bound)
    out = []
    for den in (1, 2) if D % 4 == 1 else (1,):
        dd2 = den * den
        # |N| < lam*sqrt(D)  <=>  |x^2 - D y^2| < lam*den^2*sqrt(D); the strict
        # comparison collapses to the exact integer threshold T
        T = isqrt((bn2 * dd2 * dd2 * D - 1) // bd2)
        # window half-width: |x - y sqrt D| < lam*den^2/y <= lam*den^2
        pad = (isqrt((bn2 * dd2 * dd2) // bd2) + 1) + 2
        parity = 1 if den == 2 else 0
        x_hi = isqrt(D * y_max * y_max) + pad + 1  # largest x the window squares
        if (D * (y_max + 3) ** 2 * 4 < _kernels.INT64_SAFE and T < _kernels.INT64_SAFE
                and x_hi * x_hi < _kernels.INT64_SAFE):
            xs, ys, ns = _kernels.smallnorm_window_i64(D, y_max, T, pad, parity)
            triples = [(int(x), int(y), int(n)) for x, y, n in zip(xs, ys, ns)]
        else:
            triples = _window_scan_py(D, y_max, T, pad, parity)
        for x, y, n in triples:
            assert n == x * x - D * y * y
            out.append(SmallNormElement(QuadElem(D, x, y, den), n // dd2))
    out.sort(key=_sort_key)
    return out


def _window_scan_py(D, y_max, T, pad, parity):
    triples = []
    for y in range(1, y_max + 1):
        if parity and y % 2 == 0:
            continue
        t = D * y * y
        x0 = isqrt(t)
        for x in range(max(1, x0 - pad), x0 + pad + 1):
            if parity and x % 2 == 0:
                continue
            n = x * x - t
            if n == 0:
                continue
            if -T <= n <= T and gcd(x, y) == 1:
                triples.append((x, y, n))
    return triples


def naive_enumerate(D: int, bound, y_max: int) -> List[SmallNormElement]:
    """Reference exhaustive scan over the norm equation x^2 - D y^2 = n.

    Every y <= y_max and every n with 0 < |n| <= T is tried; no window
    shortcut.  Kept deliberately independent of enumerate_small_norm so
    the two can audit each other.
    """
    bn2, bd2 = _norm_bound_parts(bound)
    out = []
    for den in (1, 2) if D % 4 == 1 else (1,):
        dd2 = den * den
        T = isqrt((bn2 * dd2 * dd2 * D - 1) // bd2)
        parity = 1 if den == 2 else 0
        if D * y_max * y_max + T < _kernels.INT64_SAFE:
            xs, ys, ns = _kernels.smallnorm_naive_i64(D, y_max, T, parity)
            triples = [(int(x), int(y), int(n)) for x, y, n in zip(xs, ys, ns)]
        else:
            triples = _naive_scan_py(D, y_max, T, parity)
        for x, y, n in triples:
            out.append(SmallNormElement(QuadElem(D, x, y, den), n // dd2))
    out.sort(key=_sort_key)
    return out


def _naive_scan_py(D, y_max, T, parity):
    """Python-int form of _kernels.smallnorm_naive_i64, for any size."""
    triples = []
    for y in range(1, y_max + 1):
        if parity and y % 2 == 0:
            continue
        t = D * y * y
        for n in range(-T, T + 1):
            s = t + n
            if n == 0 or s < 1:
                continue
            x = math.isqrt(s)
            if x * x == s and (not parity or x % 2 == 1) and gcd(x, y) == 1:
                triples.append((x, y, n))
    return triples


# ---------------------------------------------------------------------------
# lemma audit: every small-norm element is n*alpha_i (after canonicalization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    D: int
    y_max: int
    part_a: Tuple[SmallNormElement, ...]
    part_b: Tuple[SmallNormElement, ...]  # empty unless D ≡ 1 (mod 4)

    @property
    def unmatched(self) -> List[SmallNormElement]:
        return [e for e in self.part_a + self.part_b if e.classified_as is None]

    @property
    def all_matched(self) -> bool:
        return not self.unmatched


def _match_against_alphas(e: SurdExpansion, elems: List[SmallNormElement],
                          half_multipliers: bool) -> List[SmallNormElement]:
    """Attach Match records; multiplier n is integral, or half-integral when allowed."""
    if not elems:
        return []
    biggest = max(el.mu.a * 2 // el.mu.den + 1 for el in elems)
    alphas = []
    for c in convergent_iter(e):
        alphas.append((c.i, c.p, c.q))
        if c.p > biggest:
            break
    out = []
    for el in elems:
        a, b, den = el.mu.a, el.mu.b, el.mu.den
        found = None
        for i, p, q in alphas:
            # mu = n*alpha_i  <=>  a*q == b*p with n = b/(den*q)
            d2 = den * q
            if a * q == b * p and (b % d2 == 0 or (half_multipliers and (2 * b) % d2 == 0)):
                found = Match(index=i, conjugate=False, multiplier=Fraction(b, d2))
                break
        out.append(SmallNormElement(el.mu, el.norm, found))
    return out


def classify_elements(D: int, elems: List[SmallNormElement]) -> List[SmallNormElement]:
    """Attach alpha-multiple matches to arbitrary enumerated elements.

    Half-integer multipliers are admitted whenever D ≡ 1 (mod 4), matching
    the ring of integers.
    """
    e = expand_sqrt(D)
    return _match_against_alphas(e, elems, half_multipliers=D % 4 == 1)


def audit_lemma(D: int, y_max: int) -> AuditReport:
    """Check every enumerated small-norm element against {n*alpha_i, n*alpha_i'}.

    Part a: den=1 elements below sqrt(D)/2, integer multipliers.  Part b
    (D ≡ 1 mod 4 only): everything below sqrt(D)/8 with half-integer
    multipliers allowed.  Canonical representatives make conjugate matches
    implicit (the canonical form of n*alpha_i' is n*alpha_i).  One scan at
    the half bound serves both parts: its window contains the eighth-bound
    one, and |N| < sqrt(D)/8 is exactly 64*N^2 < D.
    """
    e = expand_sqrt(D)
    elems = enumerate_small_norm(D, BOUND_HALF, y_max)
    part_a_raw = [el for el in elems if el.mu.den == 1]
    part_a = _match_against_alphas(e, part_a_raw, half_multipliers=False)
    part_b = []
    if D % 4 == 1:
        part_b_raw = [el for el in elems if 64 * el.norm * el.norm < D]
        part_b = _match_against_alphas(e, part_b_raw, half_multipliers=True)
    return AuditReport(D=D, y_max=y_max, part_a=tuple(part_a), part_b=tuple(part_b))


# ---------------------------------------------------------------------------
# ramified primes
# ---------------------------------------------------------------------------

def _factor(n: int) -> List[int]:
    """Prime factors of n (squarefree n expected), ascending, within one rho
    budget."""
    out = []
    budget = _RhoBudget()
    while n > 1:
        p = _smallest_prime_factor(n, budget)
        out.append(p)
        while n % p == 0:
            n //= p
    return sorted(set(out))


def ramified_primes(D: int) -> List[int]:
    """Primes ramified in Q(sqrt(D)) for squarefree D: p | D, plus 2 when
    D ≡ 2, 3 (mod 4)."""
    ps = set(_factor(D))
    if D % 4 in (2, 3):
        ps.add(2)
    return sorted(ps)


def ramified_divisibility(x: QuadElem, D: int) -> List[int]:
    """Ramified primes whose prime ideal divides (x).

    Membership in the ramified ideal above p is an explicit residue test:
    for p | D the ideal is (p, sqrt(D)) and x = (a + b sqrt D)/den lies in it
    iff p | a; for p = 2 with D ≡ 3 (mod 4) the ideal is (2, 1 + sqrt D) and
    the test is a ≡ b (mod 2).
    """
    if x.D != D:
        raise ValueError("element is over a different field")
    sf = squarefree_status(D, mode="exact")
    if not sf.proved:
        raise ValueError(f"D = {D} is not squarefree (witness {sf.witness})")
    out = []
    for p in ramified_primes(D):
        if p == 2 and D % 4 == 3:
            member = (x.a - x.b) % 2 == 0
        elif p == 2 and D % 4 == 2:
            member = x.a % 2 == 0
        else:
            # den is 1 or 2 and p here is odd when D ≡ 1 (mod 4): den invertible
            member = x.a % p == 0
        if member:
            assert x.norm() % p == 0  # N(ideal) = p divides N(x)
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# power trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerTraceReport:
    power: QuadElem
    primitive: bool
    norm_ok: bool
    located_index: Optional[int]
    u_at_j: Optional[int]


def power_trace(e: SurdExpansion, i: int, m: int) -> PowerTraceReport:
    """alpha_i^m: primitivity, the |N| < sqrt(D)/2 norm check, and location.

    When the power is primitive with small norm and value > 1 it must itself
    be a convergent element alpha_j; the location scan reports j and u_{j+1}.
    Absence of a location is data, not an error.
    """
    if i < 0 or m < 1:
        raise ValueError("need i >= 0 and m >= 1")
    a = _alpha(e, i)
    p = a ** m
    primitive = gcd(p.a, p.b) == 1  # alpha powers live in Z[sqrt(D)]
    n = p.norm()
    norm_ok = 4 * n * n < e.D  # |N| < sqrt(D)/2
    located = None
    u_at = None
    # location is attempted for every primitive power > 1; norm_ok is the
    # condition under which success is guaranteed, not a gate
    if primitive and (p - QuadElem(e.D, 1, 0)).sign() > 0:
        for c in convergent_iter(e):
            if c.p == p.a and c.q == p.b:
                located = c.i
                u_at = e.u(c.i + 1)
                break
            if c.p > p.a:
                break
    return PowerTraceReport(power=p, primitive=primitive, norm_ok=norm_ok,
                            located_index=located, u_at_j=u_at)
