"""Exact arithmetic for elements of Q(sqrt(D)) and integer utilities.

`QuadElem` models (a + b*sqrt(D))/den with den in {1, 2}; den = 2 is legal
only when D ≡ 1 (mod 4) and a ≡ b (mod 2), i.e. exactly the extra elements
of the ring of integers Z[(1+sqrt(D))/2].  Every comparison is
`qd._sign_pair` on the numerator (den > 0 cannot change a sign) — no
floating point in any decision path.

Also here: `isqrt` (re-exported from `math`), squarefree testing (exact
proof or trial division to a bound, capped at MAX_TRIAL_BOUND), and a
deterministic Miller-Rabin for the range where it is a proof.

The trial scan, one engine for every n, reduces products of primes mod n.
The first call sieves the primes; the products of the segments up to
DEFAULT_TRIAL_BOUND (the last one cut short there) stay in `_SEGMENT_BLOCKS`
(about 2 MB), so later calls in the process, for any n, only reduce them.
One gcd serves a run of segments, and only a segment whose residue shares a
prime with n is sieved again, to walk its primes.  A segment's blocks
become one product the first time a scan reuses it, and a stored product
is reduced by a short ladder of products with 2**m mod n (`_fold_ladder`,
`_fold_mod`) instead of a long division.  The table depends
on the primes alone.  The sieve helpers, the only code here that runs on
numpy, import it when first called: the first scan loads it, to sieve its
base primes, and a process that never scans does not.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import Optional

from .qd import _sign_pair


class SquarefreeUndetermined(Exception):
    """Exact squarefree classification found no proof: a probable prime beyond
    the deterministic Miller-Rabin range, or no split within RHO_BUDGET."""


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# QuadElem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadElem:
    """(a + b*sqrt(D))/den, an element of the ring of integers of Q(sqrt(D))."""

    D: int
    a: int
    b: int
    den: int = 1

    def __post_init__(self):
        if self.D < 2 or is_square(self.D):
            raise ValueError(f"D must be a nonsquare integer >= 2, got {self.D}")
        if self.den not in (1, 2):
            raise ValueError("den must be 1 or 2")
        if self.den == 2:
            if self.a % 2 == 0 and self.b % 2 == 0:
                # canonical form: reduce den=2 with even coordinates
                object.__setattr__(self, "a", self.a // 2)
                object.__setattr__(self, "b", self.b // 2)
                object.__setattr__(self, "den", 1)
            elif self.D % 4 != 1 or (self.a - self.b) % 2 != 0:
                raise ValueError(
                    f"({self.a}+{self.b}*sqrt({self.D}))/2 is not an algebraic integer"
                )

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "QuadElem") -> "QuadElem":
        if not isinstance(other, QuadElem):
            if isinstance(other, int):
                return QuadElem(self.D, other, 0)
            raise TypeError(f"cannot combine QuadElem with {type(other).__name__}")
        if other.D != self.D:
            raise ValueError(f"mixed fields: sqrt({self.D}) vs sqrt({other.D})")
        return other

    def __add__(self, other):
        o = self._check(other)
        if self.den == o.den:
            return QuadElem(self.D, self.a + o.a, self.b + o.b, self.den)
        x, y = (self, o) if self.den == 2 else (o, self)
        return QuadElem(self.D, x.a + 2 * y.a, x.b + 2 * y.b, 2)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.D, -self.a, -self.b, self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        o = self._check(other)
        a = self.a * o.a + self.b * o.b * self.D
        b = self.a * o.b + self.b * o.a
        den = self.den * o.den
        if den == 4:
            # product of two half-integral elements is integral over den=2
            assert a % 2 == 0 and b % 2 == 0
            a, b, den = a // 2, b // 2, 2
        return QuadElem(self.D, a, b, den)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, int) or m < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = QuadElem(self.D, 1, 0)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.D, self.a, -self.b, self.den)

    def norm(self) -> int:
        """N(x) = x * x'; an integer for every element of O_K."""
        n = self.a * self.a - self.b * self.b * self.D
        assert n % (self.den * self.den) == 0
        return n // (self.den * self.den)

    def trace(self) -> int:
        t = 2 * self.a
        assert t % self.den == 0
        return t // self.den

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value under the leading embedding, exactly."""
        return _sign_pair(self.a, self.b, self.D)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conjugate().sign() > 0

    def __repr__(self):
        return f"QuadElem({self.D}, {self.a}, {self.b}, den={self.den})"

    def __str__(self):
        return format_elem(self)


def succ(x: QuadElem, y) -> bool:
    """x ≻ y: strictly greater under both real embeddings."""
    d = x - (y if isinstance(y, QuadElem) else QuadElem(x.D, y, 0))
    return d.sign() > 0 and d.conjugate().sign() > 0


def succeq(x: QuadElem, y) -> bool:
    """x ⪰ y: x ≻ y or x = y (exact equality as field elements)."""
    yy = y if isinstance(y, QuadElem) else QuadElem(x.D, y, 0)
    return x == yy or succ(x, yy)


# ---------------------------------------------------------------------------
# textual element format: "a+b*sqrt(D)" and "(a+b*sqrt(D))/2"
# ---------------------------------------------------------------------------

_ELEM_RE = re.compile(
    r"""^\s*
    (?P<paren>\()?\s*
    (?P<a>[+-]?\d+)?\s*
    (?:(?P<sgn>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?sqrt\(\s*(?P<D>\d+)\s*\))?\s*
    (?(paren)\)\s*/\s*(?P<den>2))\s*$""",
    re.VERBOSE,
)


def _max_str_digits() -> int:
    """The process's int/str digit limit (4300 by default, at least 640 when
    set, 0 for none; Pythons before the limit have none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def to_decimal(n: int) -> str:
    """n in decimal at any length, without touching the process-wide int/str
    limit: split at a power of ten into halves until str() takes each part."""
    limit = _max_str_digits()
    # an int below 2**(3*L) has at most 0.91*L + 1 <= L digits for L >= 640
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's log10(2) * bits digits
    hi, lo = divmod(abs(n), 10 ** k)
    return ("-" if n < 0 else "") + to_decimal(hi) + to_decimal(lo).zfill(k)


def from_decimal(text: str) -> int:
    """int(text), also for a digit string past the int/str limit: that one
    is split in halves until int() takes each part.  Anything else int()
    refuses raises int()'s ValueError."""
    limit = _max_str_digits()
    m = re.fullmatch(r"\s*([+-]?)(\d+)\s*", text)
    if m is None or not limit or len(m[2]) <= limit:
        return int(text)
    digits = m[2]
    k = len(digits) // 2
    n = from_decimal(digits[:-k]) * 10 ** k + from_decimal(digits[-k:])
    return -n if m[1] == "-" else n


def format_elem(x: QuadElem) -> str:
    core = (f"{to_decimal(x.a)}{'+' if x.b >= 0 else '-'}{to_decimal(abs(x.b))}"
            f"*sqrt({to_decimal(x.D)})")
    if x.den == 2:
        return f"({core})/2"
    return core


def parse_elem(text: str, D: Optional[int] = None) -> QuadElem:
    """Parse "a+b*sqrt(D)" or "(a+b*sqrt(D))/2"; bare "sqrt(D)" is allowed.

    Plain integers parse too, but then D must be supplied by the caller.
    """
    m = _ELEM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse element: {text!r}")
    a = from_decimal(m.group("a")) if m.group("a") is not None else 0
    if m.group("D") is not None:
        d_found = from_decimal(m.group("D"))
        if D is not None and d_found != D:
            raise ValueError(f"element is over sqrt({to_decimal(d_found)}), "
                             f"expected sqrt({to_decimal(D)})")
        D = d_found
        b = from_decimal(m.group("b")) if m.group("b") is not None else 1
        if m.group("sgn") == "-":
            b = -b
    else:
        if m.group("paren"):
            raise ValueError(f"cannot parse element: {text!r}")
        b = 0
        if D is None:
            raise ValueError("plain integer element needs an explicit D")
    den = 2 if m.group("den") else 1
    return QuadElem(D, a, b, den)


# ---------------------------------------------------------------------------
# primality / factoring support for squarefree testing
# ---------------------------------------------------------------------------

# deterministic Miller-Rabin witness bound (Sorenson & Webster)
_MR_PROVEN_BOUND = 3317044064679887385961981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Pollard-Brent work one squarefree classification may spend over all its
# seeds and recursive splits; the verifier re-classifies D with it, so it is
# fixed.  An iteration mod n of b bits costs ceil(b^2 / 2^20), one up to
# 1,024 bits and then about as fast as its multiply-and-reduce grows, so the
# budget runs out within seconds at any size.  The honest M = 1 certificate
# needs 510, the small fields D = 94 ... 5806 none.
RHO_BUDGET = 100_000


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_proved(n: int) -> Optional[bool]:
    """True/False when provable (n below the deterministic MR bound), else None."""
    if n < _MR_PROVEN_BOUND:
        return _miller_rabin(n)
    if not _miller_rabin(n):
        return False  # a MR failure is always a compositeness proof
    return None


class _RhoBudget:
    """Pollard-Brent work left to one squarefree classification, shared by
    all of its seeds and recursive splits."""

    def __init__(self):
        self.left = RHO_BUDGET


def _brent_rho(n: int, seed: int, budget: _RhoBudget) -> Optional[int]:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor, or
    None when it fails or the budget cannot pay for its next round."""
    if n % 2 == 0:
        return 2
    y = seed % n or 1
    c = (seed * 2654435761 + 1) % n or 1
    cost = (n.bit_length() ** 2 + (1 << 20) - 1) >> 20  # per iteration, see RHO_BUDGET
    m = 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        if budget.left < 2 * r * cost:  # a round takes at most 2r iterations
            return None
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        budget.left -= r * cost
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(m, r - k)
            for _ in range(step):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            budget.left -= step * cost
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g if 1 < g < n else None


def _perfect_power_root(n: int, bound: int) -> Optional[int]:
    """m with m**e == n for the smallest e >= 2 that has one, or None; n has
    no prime factor <= bound.

    The smallest such e is prime, and every root exceeds bound, so only
    prime e with (bound + 1)**e <= n can have one; e_max bounds those from
    the bit lengths (2**k <= bound + 1 for its divisor k).  Not the smallest
    root: 64 gives 8 (e = 2), not 2; callers need only some root.
    """
    bits = n.bit_length()
    e_max = (bits - 1) // ((bound + 1).bit_length() - 1)
    for e in range(2, e_max + 1):
        if not is_prime_proved(e):
            continue
        lo, hi = 2, 1 << (bits // e + 1)
        while lo <= hi:
            mid = (lo + hi) // 2
            p = mid ** e
            if p == n:
                return mid
            if p < n:
                lo = mid + 1
            else:
                hi = mid - 1
    return None


def _smallest_prime_factor(n: int, budget: _RhoBudget) -> int:
    """Some prime factor of n > 1 (not necessarily smallest for rho splits)."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n and d < 100000:
        if n % d == 0:
            return d
        d += 2
    p = is_prime_proved(n)
    if p is True:
        return n
    if p is None:
        raise SquarefreeUndetermined(
            f"{n} is a probable prime beyond the deterministic range"
        )
    for seed in range(1, 8):
        f = _brent_rho(n, seed * 7919, budget)
        if f:
            return _smallest_prime_factor(f, budget)
    raise SquarefreeUndetermined(f"cannot extract a prime factor of {n}")


# ---------------------------------------------------------------------------
# squarefree status
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquarefreeStatus:
    """Outcome of a squarefree test.

    verdict: 'squarefree-proved' | 'not-squarefree' | 'probably-squarefree'
             | 'undetermined' (annotation-only, see search_k)
    witness: a prime p with p*p | n when verdict is 'not-squarefree'
    bound:   trial-division bound for 'probably-squarefree'/'undetermined'
    """

    verdict: str
    witness: Optional[int] = None
    bound: Optional[int] = None
    mode: str = "exact"

    @property
    def proved(self) -> bool:
        return self.verdict == "squarefree-proved"

    def to_json(self) -> dict:
        out = {"mode": self.mode, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = to_decimal(self.witness)
        if self.bound is not None:
            out["bound"] = int(self.bound)
        return out


DEFAULT_TRIAL_BOUND = 10 ** 7
# Largest squarefree trial bound a certificate may state: the scan's work and
# its sieve's base table grow with the bound.  The generator refuses a larger
# one and the verifier calls it malformed.
MAX_TRIAL_BOUND = 10 ** 9


def check_trial_bound(bound) -> None:
    """ValueError unless bound is an int, not a bool, in [2, MAX_TRIAL_BOUND]:
    the verifier calls a certificate stating any other bound malformed."""
    if type(bound) is not int or not 2 <= bound <= MAX_TRIAL_BOUND:
        raise ValueError(f"squarefree bound must be an integer in [2, {MAX_TRIAL_BOUND}]")


# odd numbers per sieve segment: a cold scan holds one segment and the
# sieve's base table, never every prime up to the trial bound
_SIEVE_SEGMENT = 1 << 15
# int64 pair products of primes (each prime < 2**31 since bounds stay within
# MAX_TRIAL_BOUND) multiplied together into one block product
_PAIR_BLOCK = 64
# most segments whose residues share one gcd with n: runs double up to it
_RUN_SEGMENTS = 64

# The block products of the sieve segments a scan to DEFAULT_TRIAL_BOUND
# meets, the last one cut short at that bound, keyed by the segment's first
# odd number.  Scans fill it lazily and later scans reduce it mod n
# instead of re-sieving.  The first scan that reuses a segment replaces its
# blocks by a one-tuple, their product (about 94,000 bits), reduced by the
# ladder fold from then on, while a one-shot process never pays for building
# it.  The table depends only on the primes, never on n, so generator and
# verifier share it; full, it holds 153 segments in about 2 MB whatever
# bound is scanned.
_SEGMENT_BLOCKS: dict = {}


def _odd_primes_upto(r: int) -> list:
    """Odd primes <= r by a plain sieve: the segmented sieve's base table."""
    import numpy as np

    flags = np.ones(r + 1, dtype=bool)
    flags[:3] = False
    flags[4::2] = False
    for p in range(3, isqrt(r) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = False
    return np.flatnonzero(flags).tolist()


def _sieve_segment(lo: int, size: int, base: list):
    """The odd primes among the `size` odd numbers from odd lo, in order, as
    an int64 array; base holds the odd primes up to the square root of the
    last of them."""
    import numpy as np

    hi = lo + 2 * size  # flags[i] stands for the odd number lo + 2*i < hi
    flags = np.ones(size, dtype=bool)
    for p in base:
        if p * p >= hi:
            break
        # first odd multiple of p that is >= max(lo, p*p)
        s = p * max(p, -(-lo // p) | 1)
        flags[(s - lo) // 2::p] = False
    return np.flatnonzero(flags) * 2 + lo


def _block_products(primes) -> tuple:
    """Products of consecutive runs of 2*_PAIR_BLOCK primes, in order."""
    import numpy as np

    if len(primes) % 2:
        primes = np.append(primes, 1)
    pairs = (primes[0::2] * primes[1::2]).tolist()
    return tuple(prod(pairs[i:i + _PAIR_BLOCK]) for i in range(0, len(pairs), _PAIR_BLOCK))


def _tree_product(xs) -> int:
    """prod(xs) by a balanced product tree: operands of equal size at each
    level, where a sequential product multiplies a growing one by a small one."""
    while len(xs) > 1:
        xs = [prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def _fold_ladder(n: int, top: int) -> list:
    """Rungs (m, 2**m % n, 2**m - 1) for `_fold_mod` on numbers of about
    `top` bits.  m starts halfway between top and n's bit length, halves its
    distance to that length at each rung, and stops once it is no longer half
    as long again as n: then the last remainder is short.  Empty when n is at
    least half as long as top."""
    nbits = n.bit_length()
    rungs = []
    m = (top + nbits) // 2
    while 2 * m > 3 * nbits:
        rungs.append((m, pow(2, m, n), (1 << m) - 1))
        m = (m + nbits) // 2
    return rungs


def _fold_mod(c: int, n: int, rungs: list) -> int:
    """c % n for rungs from `_fold_ladder(n0, ·)`, where n divides n0.

    Each rung replaces c by (c >> m)*(2**m % n0) + (c & (2**m - 1)), which is
    congruent to c mod n0 and shorter: a product where `c % n` would run a
    long division of all of c.
    """
    for m, r, mask in rungs:
        c = (c >> m) * r + (c & mask)
    return c % n


def _trial_square_scan(n: int, bound: int):
    """(status, p, cofactor) for n >= 1 of any size and bound in
    [2, MAX_TRIAL_BOUND].

    status 0: p is the smallest prime <= bound with p*p | n.  status 1: no
    such prime; the cofactor is n with 2 and every odd prime
    <= min(bound, isqrt(m)) that divides m, n's odd part, divided out once.
    Status and witness are those of plain trial division by every d <= bound.

    Bernstein's batching: reduce the product of each segment's primes mod n.
    Runs of 1, 2, 4, ... up to _RUN_SEGMENTS consecutive segments multiply
    their residues, folded back to about twice n's length after each
    multiply, and take one gcd with n: the product of the run's primes
    dividing n, usually 1.  Only a gcd above 1 walks the run's segments, in
    order, so the smallest witness still comes first.
    """
    if n % 2 == 0:
        n //= 2
        if n % 2 == 0:
            return 0, 2, n
    limit = min(bound, isqrt(n))
    base = _odd_primes_upto(isqrt(limit))  # under a millisecond
    # built once, at the first stored product and at the first run of two;
    # n only loses prime factors after that, so the rungs stay congruences
    # mod every later n
    rungs = run_rung = None
    run = []  # (lo, size, residue) of the segments since the last gcd
    run_len = 1
    lo = 3
    while lo <= limit:
        size = min(_SIEVE_SEGMENT, (limit - lo) // 2 + 1)
        hi = lo + 2 * size
        # the segment a scan to DEFAULT_TRIAL_BOUND meets at lo, the last
        # one cut short there, is the one the table may hold
        stored = size == min(_SIEVE_SEGMENT, (DEFAULT_TRIAL_BOUND - lo) // 2 + 1)
        blocks = _SEGMENT_BLOCKS.get(lo) if stored else None
        if blocks is None:
            primes = _sieve_segment(lo, size, base)
            blocks = _block_products(primes)
            if stored:
                _SEGMENT_BLOCKS[lo] = blocks
            acc = 1
            for c in blocks:
                # reducing a block longer than n first keeps the product small
                acc = acc * (c % n) % n
        else:
            if len(blocks) > 1:
                # the segment is being reused: store and fold one product
                blocks = _SEGMENT_BLOCKS[lo] = (_tree_product(blocks),)
            if rungs is None:
                rungs = _fold_ladder(n, blocks[0].bit_length())
            acc = _fold_mod(blocks[0], n, rungs)
        if run:
            if run_rung is None:  # one rung, at twice n's length
                run_rung = _fold_ladder(n, 3 * n.bit_length())[0]
            m, r, mask = run_rung
            run_acc *= acc
            run_acc = (run_acc >> m) * r + (run_acc & mask)
        else:
            run_acc = acc
        run.append((lo, size, acc))
        lo = hi
        if len(run) < run_len and lo <= limit:
            continue
        g = gcd(run_acc, n)
        if g > 1:
            for slo, ssize, sacc in run:
                gs = gcd(sacc, g)  # the segment's primes dividing n
                if gs == 1:
                    continue
                for p in _sieve_segment(slo, ssize, base).tolist():
                    if gs % p == 0:
                        n //= p
                        if n % p == 0:
                            return 0, p, n
                        gs //= p
                        if gs == 1:  # every prime of gs divided out
                            break
        run = []
        run_len = min(2 * run_len, _RUN_SEGMENTS)
    return 1, 0, n


def _classify_cofactor(c: int, trial_bound: int, budget: _RhoBudget) -> Optional[int]:
    """Return a prime p with p*p | c, or None when c is proved squarefree.

    c has no prime factor <= trial_bound.  Raises SquarefreeUndetermined when
    neither outcome can be proved within budget.
    """
    if c == 1:
        return None
    r = _perfect_power_root(c, trial_bound)
    if r is not None:
        return _smallest_prime_factor(r, budget)
    p = is_prime_proved(c)
    if p is True:
        return None
    if p is None:
        raise SquarefreeUndetermined(
            f"cofactor {c} is a probable prime beyond the deterministic range"
        )
    # c is proved composite and not a perfect power
    if c < trial_bound ** 3:
        # at most two prime factors, all > trial_bound; p^2 was excluded, so
        # c = p*q with p != q: squarefree
        return None
    # split and recurse on both halves
    for seed in range(1, 6):
        f = _brent_rho(c, seed * 104729, budget)
        if f is None:
            continue
        g = c // f
        d = gcd(f, g)
        if d > 1:
            return _smallest_prime_factor(d, budget)
        wa = _classify_cofactor(f, trial_bound, budget)
        if wa is not None:
            return wa
        return _classify_cofactor(g, trial_bound, budget)
    raise SquarefreeUndetermined(f"cannot factor cofactor {c} within budget")


def squarefree_status(n: int, mode: str = "exact",
                      bound: int = DEFAULT_TRIAL_BOUND) -> SquarefreeStatus:
    """Squarefree classification of n >= 1.

    mode='exact': full proof (trial division, then cofactor classification by
    perfect-power checks, deterministic Miller-Rabin and Pollard/Brent rho).
    Raises SquarefreeUndetermined rather than guessing.

    mode='probable': trial division by primes <= bound only; a square factor
    found there is still an exact 'not-squarefree' answer.

    A bound that check_trial_bound refuses raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("exact", "probable"):
        raise ValueError(f"unknown mode {mode!r}")
    check_trial_bound(bound)
    if n == 1:
        return SquarefreeStatus("squarefree-proved", mode=mode)
    st, p, cof = _trial_square_scan(n, bound)
    if st == 0:
        return SquarefreeStatus("not-squarefree", witness=p, bound=bound, mode=mode)
    if mode == "probable":
        return SquarefreeStatus("probably-squarefree", bound=bound, mode=mode)
    w = _classify_cofactor(cof, bound, _RhoBudget())
    if w is not None:
        return SquarefreeStatus("not-squarefree", witness=w, bound=bound, mode=mode)
    return SquarefreeStatus("squarefree-proved", bound=bound, mode=mode)
