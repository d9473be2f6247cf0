"""Friesen's parity criterion, D from (k, symmetric period), and constructors.

A symmetric sequence (u_1, ..., u_{s-1}) prescribes the period of sqrt(D)
as (u_1, ..., u_{s-1}, 2k).  With q_i the k-independent convergent
denominators (q_0 = 1, q_1 = u_1, ...), the parity criterion asks that

    q_{s-2}   or   (q_{s-2}^2 - (-1)^s) / q_{s-1}

be even; the division is exact for every symmetric sequence and is asserted
before parity is read.

derive_D computes the purely periodic value x = [overline(u_1..u_{s-1}, 2k)]
as the fixed point of the Moebius map of the matrix product over the period,
solves for D, and then trusts nothing but the expand_sqrt round trip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Tuple

from .contfrac import PeriodCapExceeded, expand_sqrt
from .qarith import (
    DEFAULT_TRIAL_BOUND,
    SquarefreeStatus,
    SquarefreeUndetermined,
    check_trial_bound,
    squarefree_status,
)


class ConstructionError(Exception):
    """No admissible sequence variant found within the search window."""


@dataclass(frozen=True)
class SymSequence:
    """Symmetric sequence (u_1, ..., u_{s-1}); may be empty (s = 1)."""

    values: tuple

    def __post_init__(self):
        v = self.values
        if any((not isinstance(u, int)) or u < 1 for u in v):
            raise ValueError("sequence entries must be positive integers")
        if any(v[i] != v[len(v) - 1 - i] for i in range(len(v))):
            raise ValueError(f"sequence is not symmetric: {v}")

    @property
    def s(self) -> int:
        return len(self.values) + 1

    @property
    def r(self) -> int:
        return self.s // 2  # ceil((s - 1)/2) for s >= 1

    @classmethod
    def parse(cls, text: str) -> "SymSequence":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(t) for t in text.split(",")))

    def __str__(self):
        return ",".join(str(u) for u in self.values)


@dataclass(frozen=True)
class FieldHit:
    k: int
    D: int
    squarefree: SquarefreeStatus
    roundtrip_verified: bool


def _denominators(seq: SymSequence) -> List[int]:
    """q_0, ..., q_{s-1} for the k-independent part of the period."""
    qs = [1]
    q_prev = 0
    for u in seq.values:
        qs.append(u * qs[-1] + q_prev)
        q_prev = qs[-2]
    return qs


def _friesen_terms(seq: SymSequence) -> Tuple[int, int, int]:
    """(q_{s-2}, q_{s-1}, E) with E = (q_{s-2}^2 - (-1)^s)/q_{s-1}, exact."""
    qs = _denominators(seq)
    s = seq.s
    q_sm1 = qs[-1]
    q_sm2 = qs[-2] if len(qs) >= 2 else 0
    num = q_sm2 * q_sm2 - (-1) ** s
    if num % q_sm1 != 0:
        raise AssertionError(
            f"internal error: ({q_sm2}^2 - (-1)^{s}) not divisible by {q_sm1}"
        )
    return q_sm2, q_sm1, num // q_sm1


def parity_condition(seq: SymSequence) -> bool:
    """Friesen's criterion: q_{s-2} or (q_{s-2}^2 - (-1)^s)/q_{s-1} is even."""
    q_sm2, _, E = _friesen_terms(seq)
    return q_sm2 % 2 == 0 or E % 2 == 0


def derive_D(k: int, seq: SymSequence) -> Optional[int]:
    """D with sqrt(D) = [k; overline(u_1, ..., u_{s-1}, 2k)], minimal period.

    Returns None when the fixed-point computation gives no integer D, or the
    candidate's minimal period collapses to something shorter; a successful
    return is always round-trip verified through expand_sqrt.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # matrix product over the full period (u_1..u_{s-1}, 2k), in evaluation
    # order: M <- M * [[u,1],[1,0]]
    A, B, C, E = 1, 0, 0, 1
    for u in tuple(seq.values) + (2 * k,):
        A, B, C, E = u * A + B, A, u * C + E, C
    # x = (A x + B)/(C x + E); with x = (sqrt(D)+k)/t, t = D - k^2, the
    # irrational part forces t = 2kC/(A - E)
    if A - E <= 0:
        return None
    if (2 * k * C) % (A - E) != 0:
        return None
    t = (2 * k * C) // (A - E)
    if not (1 <= t <= 2 * k):
        return None
    D = k * k + t
    # rational part of the fixed-point equation must vanish identically
    assert C * (D + k * k) + (E - A) * k * t - B * t * t == 0
    try:
        e = expand_sqrt(D, max_steps=seq.s + 1)
    except (ValueError, PeriodCapExceeded):
        return None
    if e.k == k and e.period == tuple(seq.values) + (2 * k,):
        return D
    return None


def admissible_k(seq: SymSequence) -> Optional[Tuple[int, int]]:
    """(k0, m): k values with an integral fixed point are k ≡ k0 (mod m).

    Solves 2 q_{s-2} k ≡ -E (mod q_{s-1}).  Returns None when the congruence
    is insoluble — then no k admits the period at all (e.g. (1, 1), where
    the fixed point is never an integer).  (1, 1) result means every k.
    """
    q_sm2, q_sm1, E = _friesen_terms(seq)
    if q_sm1 == 1:
        return 1, 1
    g = gcd(2 * q_sm2, q_sm1)
    if E % g != 0:
        return None
    m = q_sm1 // g
    k0 = (-(E // g) * pow((2 * q_sm2) // g, -1, m)) % m
    if k0 == 0:
        k0 = m
    return k0, m


def search_k(
    seq: SymSequence,
    k_range: Tuple[int, int],
    sf_mode: str = "exact",
    sf_bound: int = DEFAULT_TRIAL_BOUND,
) -> List[FieldHit]:
    """All k in [k_range[0], k_range[1]] with a derive_D success.

    Each hit is annotated with its squarefree status (verdict 'undetermined'
    when the exact classification exceeds the rho budget — hits are
    reported, never suppressed) and the round-trip flag.  The search walks
    the admissibility progression; derive_D stays the per-k authority.
    An sf_bound that check_trial_bound refuses raises ValueError.
    """
    lo, hi = k_range
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    check_trial_bound(sf_bound)
    if not parity_condition(seq):
        warnings.warn(
            f"sequence ({seq}) fails the parity criterion: squarefree hits "
            "are not guaranteed (search proceeds)",
            stacklevel=2,
        )
    prog = admissible_k(seq)
    if prog is None:
        return []
    k0, m = prog
    first = k0 if k0 >= lo else k0 + ((lo - k0 + m - 1) // m) * m
    hits = []
    for k in range(first, hi + 1, m):
        D = derive_D(k, seq)
        if D is None:
            continue
        try:
            sf = squarefree_status(D, mode=sf_mode, bound=sf_bound)
        except SquarefreeUndetermined:
            sf = SquarefreeStatus("undetermined", bound=sf_bound, mode=sf_mode)
        hits.append(FieldHit(k=k, D=D, squarefree=sf, roundtrip_verified=True))
    return hits


def _symmetric_fill(core: List[int], s: int) -> Tuple[int, ...]:
    """Length s-1 palindrome from core u_1..u_r (central once or twice)."""
    r = len(core)
    if s - 1 == 2 * r - 1:
        return tuple(core + core[-2::-1])
    if s - 1 == 2 * r:
        return tuple(core + core[::-1])
    raise ValueError("inconsistent (core, s)")


def construct_sequence(M: int, base: str = "minimal") -> SymSequence:
    """Symmetric sequence with r >= 2M+1, parity satisfied, rapid growth.

    base='minimal' uses u_1 = 2, u_{i+1} = u_i^3; base='threes' uses
    u_i = 3^(3^(i-1)).  The period length s is the smallest with
    s ≡ 2 (mod 3) and ceil((s-1)/2) >= 2M+1.  If parity failed for the
    default palindrome, the central entry is scaled by small multipliers
    until the criterion holds (growth conditions are re-checked); running
    out of the window raises ConstructionError rather than silently fixing.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if base not in ("minimal", "threes"):
        raise ValueError(f"unknown base {base!r}")
    # the largest witness index is 2M+1, and the pair argument needs the
    # growth condition through u_{2M+2}; symmetry kills growth at u_r, so the
    # core must cube strictly through index r = 2M+2 (r = 2M+1 really does
    # produce violators: alpha_{r-1} lands inside the (1, r) box)
    r_min = 2 * M + 2
    if base == "threes":
        # the power-of-three family additionally keeps s ≡ 2 (mod 3): the
        # least such s >= 2*r_min (central entry once or twice)
        s = 2 * r_min + (2 - 2 * r_min) % 3
    else:
        s = 2 * r_min  # central element once
    r = s // 2
    if base == "minimal":
        core = [2]
        for _ in range(r - 1):
            core.append(core[-1] ** 3)
    else:
        core = [3 ** (3 ** i) for i in range(r)]
    for mult in (1, 2, 3, 4, 5, 8, 16, 27, 32, 64):
        scaled = core[:-1] + [core[-1] * mult]
        # growth must survive the scaling (it can only be helped, but check)
        assert scaled[0] >= 2
        assert all(scaled[i + 1] >= scaled[i] ** 3 for i in range(r - 1))
        seq = SymSequence(_symmetric_fill(scaled, s))
        if parity_condition(seq):
            return seq
    raise ConstructionError(
        f"no parity-satisfying variant for M={M}, base={base} within the window"
    )
