import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadcert
from quadcert.qarith import (
    _PAIR_BLOCK,
    _SEGMENT_BLOCKS,
    _SIEVE_SEGMENT,
    DEFAULT_TRIAL_BOUND,
    MAX_TRIAL_BOUND,
    QuadElem,
    SquarefreeUndetermined,
    _fold_ladder,
    _fold_mod,
    _perfect_power_root,
    _trial_square_scan,
    format_elem,
    from_decimal,
    is_prime_proved,
    is_square,
    isqrt,
    parse_elem,
    squarefree_status,
    succ,
    succeq,
    to_decimal,
)

NONSQUARE_D = [2, 3, 5, 6, 7, 10, 13, 61, 94, 9973]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_decimal_conversions_under_the_least_int_str_limit():
    """Under a 640-digit int/str limit, the least Python allows, to_decimal
    and from_decimal give the text and the value they give under the
    default limit, and refuse what int() refuses."""
    rng = random.Random(640)
    values = [0, -7, 10 ** 640, 10 ** 641 - 1, -rng.getrandbits(2126), rng.getrandbits(30_000)]
    texts = [to_decimal(v) for v in values]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [to_decimal(v) for v in values] == texts
        assert [from_decimal(t) for t in texts] == values
        assert from_decimal(" +1_000 ") == 1000  # short text: int()'s own grammar
        assert from_decimal(" " * 1000 + "5") == 5
        assert from_decimal(" -" + "0" * 700 + "9" * 700) == 1 - 10 ** 700
        for bad in ("12a", "1" * 700 + "x", "--5", ""):
            with pytest.raises(ValueError):
                from_decimal(bad)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_elements_parse_under_the_least_int_str_limit():
    """parse_elem reads a, b and D through from_decimal, and parse_form its
    integer coefficients, so 700-digit elements and forms parse under a
    640-digit limit as they do under the default one."""
    from quadcert.certify import parse_form

    D = 10 ** 700 + 1
    xs = [QuadElem(D, 3 * 10 ** 700 + 1, 10 ** 650 + 1, 2), QuadElem(D, -10 ** 705, 7),
          QuadElem(D, 10 ** 700, 0)]
    texts = [format_elem(x) for x in xs]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [parse_elem(t) for t in texts] == xs
        assert parse_elem(to_decimal(10 ** 700), D) == xs[2]
        with pytest.raises(ValueError, match="expected sqrt"):
            parse_elem(texts[0], D + 4)
        form = parse_form(f"{to_decimal(10 ** 700)} x1^2 - 3 x1 x2", 5)
        assert form.coeff(1, 1) == QuadElem(5, 10 ** 700, 0)
    finally:
        sys.set_int_max_str_digits(old)


def test_norm_examples():
    assert QuadElem(2, 1, 1).norm() == -1
    assert QuadElem(5, 1, 1, 2).norm() == -1
    assert QuadElem(3, 2, 1).norm() == 1  # alpha_1 of sqrt(3)


def test_ring_op_examples():
    assert QuadElem(2, 1, 1).conjugate() == QuadElem(2, 1, -1)
    assert QuadElem(3, 2, 1) * QuadElem(3, 2, -1) == QuadElem(3, 1, 0)
    assert QuadElem(2, 1, 1) ** 2 == QuadElem(2, 3, 2)


def test_sign_examples():
    assert QuadElem(2, 1, -1).sign() == -1
    assert QuadElem(2, 0, 0).sign() == 0
    assert QuadElem(2, 3, -2).sign() == 1  # 9 > 8


def test_total_positivity_examples():
    assert QuadElem(3, 2, 1).is_totally_positive()
    assert not QuadElem(3, 1, 1).is_totally_positive()
    four = QuadElem(7, 4, 0)
    assert succeq(four, four)
    assert not succ(four, four)


def test_mixed_den_arithmetic():
    half = QuadElem(5, 1, 1, 2)
    assert half + half == QuadElem(5, 1, 1)
    assert half * 2 == QuadElem(5, 1, 1)
    assert (half * half) == QuadElem(5, 3, 1, 2)  # golden ratio squared
    assert half.trace() == 1


def test_invariants_rejected():
    with pytest.raises(ValueError):
        QuadElem(4, 1, 1)  # perfect square D
    with pytest.raises(ValueError):
        QuadElem(2, 1, 1, 2)  # D = 2 mod 4 has no half elements
    with pytest.raises(ValueError):
        QuadElem(5, 1, 2, 2)  # parity violation
    with pytest.raises(ValueError):
        QuadElem(2, 1, 1) + QuadElem(3, 1, 1)


def test_half_canonical_reduction():
    assert QuadElem(5, 2, 4, 2) == QuadElem(5, 1, 2)


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(24) == 4
    assert isqrt(10 ** 40) == 10 ** 20
    assert is_square(49) and not is_square(24)


def test_squarefree_examples():
    st12 = squarefree_status(12, mode="exact")
    assert st12.verdict == "not-squarefree" and st12.witness == 2
    assert squarefree_status(10, mode="exact").proved
    big = 10 ** 47 + 19  # 48-digit-ish input, probable mode
    assert squarefree_status(big, mode="probable", bound=10 ** 5).verdict == "probably-squarefree"


def test_squarefree_exact_large():
    # square of a large prime times a unit part: must find the witness
    p = 1000003
    st = squarefree_status(p * p * 7, mode="exact", bound=10)
    assert st.verdict == "not-squarefree" and st.witness == p
    # a cofactor past bound^3 that rho splits into 101 and 101 * 103: the
    # gcd of the halves is the witness
    st = squarefree_status(101 ** 2 * 103, mode="exact", bound=100)
    assert st.verdict == "not-squarefree" and st.witness == 101
    # a perfect square whose root is composite with both primes past the
    # small-factor trial loop: rho splits the root
    n = (100003 * 100019) ** 2
    st = squarefree_status(n, mode="exact", bound=100)
    assert st.verdict == "not-squarefree" and st.witness in (100003, 100019)
    assert n % st.witness ** 2 == 0


def test_squarefree_probable_catches_small_square():
    st = squarefree_status(4 * (10 ** 30 + 57), mode="probable")
    assert st.verdict == "not-squarefree" and st.witness == 2


def test_squarefree_undetermined_is_explicit():
    # probable-prime cofactor beyond the deterministic Miller-Rabin range
    p = 2 ** 89 - 1  # Mersenne prime, 27 digits
    with pytest.raises(SquarefreeUndetermined):
        squarefree_status(p, mode="exact", bound=10 ** 4)


def test_squarefree_agrees_with_sieve():
    from .conftest import squarefree_sieve

    sf = set(squarefree_sieve(3000))
    for n in range(2, 3000):
        assert squarefree_status(n, mode="exact").proved == (n in sf), n


_P62 = 2 ** 62 + 135  # the smallest prime above 2**62


def test_squarefree_bignum_branch_agrees_with_sieve():
    """m * P for a prime P > 2**62 takes the bignum scan; squarefree iff m is."""
    from .conftest import squarefree_sieve

    assert is_prime_proved(_P62)
    sf = set(squarefree_sieve(3000))
    for m in range(2, 3000):
        assert squarefree_status(m * _P62, mode="exact", bound=1000).proved == (m in sf), m


def _reference_trial_scan(n: int, bound: int):
    """The trial scan's former loop, kept as the oracle: one division per
    odd d <= bound, stopping early once d*d exceeds what is left of n."""
    d = 2
    while d <= bound and d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0, d, n
        d += 1 if d == 2 else 2
    return 1, 0, n


def _contract_cofactor(n: int, bound: int) -> int:
    """The cofactor `_trial_square_scan` promises on a clean scan of n: 2
    and every odd prime <= min(bound, isqrt(m)) dividing m, n's odd part,
    divided out once.  The loop on m to that limit leaves what it never
    reached, or a prime once it stops early on d*d > what is left; that
    prime lies at or below the limit exactly when it is one."""
    m = n // 2 if n % 2 == 0 else n
    limit = min(bound, isqrt(m))
    left = _reference_trial_scan(m, limit)[2]
    return 1 if left <= limit else left


def _prev_prime(x: int) -> int:
    while not is_prime_proved(x):
        x -= 1
    return x


def _next_prime(x: int) -> int:
    while not is_prime_proved(x):
        x += 1
    return x


_SEGMENT_EDGE = 3 + 2 * _SIEVE_SEGMENT  # first odd number of the second segment
_ODD_PRIMES = [p for p in range(3, 2000, 2) if is_prime_proved(p)]
_BLOCK_PRIMES = 2 * _PAIR_BLOCK  # primes per stored block product
# primes on both sides of the sieve's first segment edge and first block edge
_EDGE_PRIMES = [
    _prev_prime(_SEGMENT_EDGE - 1), _next_prime(_SEGMENT_EDGE),
    _ODD_PRIMES[_BLOCK_PRIMES - 1], _ODD_PRIMES[_BLOCK_PRIMES],
]


@functools.cache
def _full_table() -> dict:
    """The segment table as a first scan to DEFAULT_TRIAL_BOUND leaves it:
    every entry still a run of block products."""
    _SEGMENT_BLOCKS.clear()
    _trial_square_scan(3 * _P62, DEFAULT_TRIAL_BOUND)
    return dict(_SEGMENT_BLOCKS)


@functools.cache
def _promoted_table() -> dict:
    """The segment table after a second full scan: one product per entry."""
    _SEGMENT_BLOCKS.clear()
    _SEGMENT_BLOCKS.update(_full_table())
    _trial_square_scan(3 * _P62, DEFAULT_TRIAL_BOUND)
    return dict(_SEGMENT_BLOCKS)


# the table states a scan can meet: empty (it sieves every segment), blocks
# (it promotes each segment it reuses) and promoted (it folds one product);
# the stored ones reach past the bounds below, into a segment a scan cuts short
_TABLE_STATES = {"empty": dict, "blocks": _full_table, "promoted": _promoted_table}


@given(
    cofactor=st.one_of(st.integers(1, 2 ** 62), st.integers(2 ** 62, 2 ** 300)),
    bound=st.one_of(st.just(2), st.integers(3, 3 * _SEGMENT_EDGE)),
    plant=st.sampled_from(["none", "3", "edge", "largest<=bound", "smallest>bound"]),
    edge=st.sampled_from(_EDGE_PRIMES),
    hits=st.lists(st.sampled_from(_ODD_PRIMES[:40] + _EDGE_PRIMES), unique=True, max_size=3),
)
@example(cofactor=_P62, bound=3 * _SEGMENT_EDGE, plant="none", edge=3, hits=_EDGE_PRIMES[:3])
@example(cofactor=_P62, bound=_SEGMENT_EDGE, plant="smallest>bound", edge=3, hits=[3, 5])
@example(cofactor=_P62, bound=3 * _SEGMENT_EDGE, plant="edge", edge=_EDGE_PRIMES[1],
         hits=[_EDGE_PRIMES[0]])
@example(cofactor=_P62, bound=_EDGE_PRIMES[1], plant="largest<=bound", edge=3, hits=[])
@example(cofactor=1, bound=100, plant="none", edge=3, hits=[3, 5, 7, 11])  # 1155: 11 <= 33
@example(cofactor=2, bound=3, plant="none", edge=3, hits=[5])  # 10: nothing odd <= isqrt(5)
@example(cofactor=5, bound=100, plant="none", edge=3, hits=[3])  # 15: 3 = isqrt(15) goes
@settings(max_examples=150, deadline=None)
def test_bignum_scan_matches_reference_loop(cofactor, bound, plant, edge, hits):
    """Any n, below 2**62 or above, and any bound from 2, the least that
    `check_trial_bound` admits: status and witness of the reference loop,
    and on a clean scan the cofactor of the engine's contract, from every
    table state."""
    p = {"none": 1, "3": 3, "edge": edge,
         "largest<=bound": _prev_prime(bound),
         "smallest>bound": _next_prime(bound + 1)}[plant]
    n = cofactor * p * p
    for q in hits:  # prime factors the scan must divide out once and step past
        n *= q
    st_ref, w_ref, cof_ref = _reference_trial_scan(n, bound)
    got = []
    for state in _TABLE_STATES.values():
        table = state()
        _SEGMENT_BLOCKS.clear()
        _SEGMENT_BLOCKS.update(table)
        got.append(_trial_square_scan(n, bound))
    for st_new, w_new, cof_new in got:
        assert (st_new, w_new) == (st_ref, w_ref)
        if st_new == 1:
            assert cof_new == _contract_cofactor(n, bound)
        if plant != "none" and p <= bound:
            assert st_new == 0 and w_new <= p
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("state", list(_TABLE_STATES))
def test_planted_square_in_a_promoted_segment(state):
    """p*p planted mid-way through the third segment, with single prime
    factors on both sides of it: every table state gives the reference
    loop's witness and cofactor."""
    p = _next_prime(3 + 4 * _SIEVE_SEGMENT + 5000)
    lo = 3 + 4 * _SIEVE_SEGMENT  # the segment holding p
    n = _P62 * p * p * 3 * _EDGE_PRIMES[1] * _prev_prime(p - 2) * _next_prime(p + 2)
    bound = 3 + 8 * _SIEVE_SEGMENT
    want = _reference_trial_scan(n, bound)
    assert want == (0, p, n // (3 * _EDGE_PRIMES[1] * _prev_prime(p - 2) * p))
    _SEGMENT_BLOCKS.clear()
    _SEGMENT_BLOCKS.update(_TABLE_STATES[state]())
    entries = min(len(_SEGMENT_BLOCKS.get(lo, ())), 2)  # none, one product, blocks
    assert entries == {"empty": 0, "promoted": 1, "blocks": 2}[state]
    assert _trial_square_scan(n, bound) == want


_LAST_SEGMENT = 3 + 152 * 2 * _SIEVE_SEGMENT  # the stored segment cut at 10**7
_ABOVE_BOUND = _next_prime(DEFAULT_TRIAL_BOUND + 1)


@pytest.mark.parametrize("where", ["first", "promoted", "last"])
@pytest.mark.parametrize("bits", [972, 8741])
def test_planted_square_in_each_kind_of_stored_segment(bits, where):
    """p*p planted in the first segment, in a middle segment and in the
    stored last segment of an n about as long as the M = 2 and M = 3 D
    (972 and 8741 bits, so the ladder fold runs), after single prime factors
    in the first segment and in the segment before p's: every table state
    gives the witness and the cofactor known by construction."""
    lo = {"first": 3, "promoted": 3 + 152 * _SIEVE_SEGMENT, "last": _LAST_SEGMENT}[where]
    p = _next_prime(lo + 5000)
    singles = [3, 7, 19] + ([_prev_prime(lo - 2)] if lo > 3 else [])
    after = _next_prime(p + 2)  # divides n once, past the witness
    body = _P62 * _ABOVE_BOUND ** ((bits - 62) // 24)
    n = body * p * p * prod(singles) * after
    want = (0, p, body * p * after)
    assert 8 * abs(n.bit_length() - bits) < bits
    got = []
    for state in _TABLE_STATES.values():
        _SEGMENT_BLOCKS.clear()
        _SEGMENT_BLOCKS.update(state())
        got.append(_trial_square_scan(n, DEFAULT_TRIAL_BOUND))
    assert got == [want] * 3


@pytest.mark.parametrize("state", list(_TABLE_STATES))
def test_square_in_the_first_segment_ends_the_scan_there(state, monkeypatch):
    """Runs of segments start at one: a square of a first-segment prime, how
    the M = 2 k-search rejects most candidates, ends the scan after that
    segment's gcd, with the first segment its only one sieved or reduced."""
    from quadcert import qarith

    n = 9 * _P62 * _ABOVE_BOUND ** 38  # about 972 bits
    _SEGMENT_BLOCKS.clear()
    _SEGMENT_BLOCKS.update(_TABLE_STATES[state]())
    sieved, folded = [], []
    sieve, fold = qarith._sieve_segment, qarith._fold_mod
    monkeypatch.setattr(qarith, "_sieve_segment", lambda lo, *a: sieved.append(lo) or sieve(lo, *a))
    monkeypatch.setattr(qarith, "_fold_mod", lambda *a: folded.append(1) or fold(*a))
    assert _trial_square_scan(n, DEFAULT_TRIAL_BOUND) == (0, 3, n // 3)
    assert set(sieved) == {3} and len(folded) <= 1


@pytest.mark.parametrize("state", list(_TABLE_STATES))
def test_two_squares_in_one_run_of_segments(state):
    """Squares of primes from segments 40 and 50, both in the run of 32
    segments from 31, and single primes in segments 35 and 45 and past the
    second square: the run's one gcd walks its segments in order, so the
    smaller square is the witness, and the cofactor is n with the single
    prime before it and the witness divided out once."""
    at = [_next_prime(3 + 2 * _SIEVE_SEGMENT * i + 999) for i in (35, 40, 45, 50, 55)]
    single1, p, single2, q, single3 = at
    body = _P62 * _ABOVE_BOUND ** 38
    n = body * single1 * p * p * single2 * q * q * single3
    _SEGMENT_BLOCKS.clear()
    _SEGMENT_BLOCKS.update(_TABLE_STATES[state]())
    assert _trial_square_scan(n, DEFAULT_TRIAL_BOUND) == (0, p, n // (single1 * p))


@given(
    x_bits=st.integers(0, 200_000),
    n_bits=st.integers(64, 100_000),
    divisor=st.integers(1, 2 ** 20),
    top=st.one_of(st.just(None), st.integers(0, 200_000)),
    rnd=st.randoms(use_true_random=False),
)
@example(x_bits=94_000, n_bits=78_723, divisor=1, top=None, rnd=random.Random(1))  # M = 4: no rungs
@example(x_bits=200_000, n_bits=64, divisor=3, top=None, rnd=random.Random(2))
@example(x_bits=94_000, n_bits=972, divisor=1, top=None, rnd=random.Random(3))
@example(x_bits=0, n_bits=972, divisor=1, top=94_000, rnd=random.Random(4))
@settings(max_examples=60, deadline=None)
def test_ladder_fold_matches_remainder(x_bits, n_bits, divisor, top, rnd):
    """The ladder fold is x % n, for rungs built mod n or mod a multiple of
    n (the scan's n loses prime factors after its rungs are built), for x
    longer or shorter than the length the rungs were built for."""
    x = rnd.getrandbits(x_bits)
    n = rnd.getrandbits(n_bits) | 1 << (n_bits - 1) | 1
    top = x_bits if top is None else top
    n0 = n * (2 * divisor + 1)
    for base in (n, n0):
        rungs = _fold_ladder(base, top)
        if 2 * base.bit_length() >= top:
            assert rungs == []
        assert _fold_mod(x, n, rungs) == x % n


def _plain_primes(lo: int, hi: int) -> list:
    """Primes in [lo, hi) by trial-division base primes and a byte sieve."""
    small = [q for q in range(2, isqrt(hi) + 1) if all(q % d for d in range(2, isqrt(q) + 1))]
    flags = bytearray([1]) * (hi - lo)
    for q in small:
        start = max(q * q, -(-lo // q) * q)
        flags[start - lo::q] = bytes(len(range(start, hi, q)))
    return [lo + i for i, f in enumerate(flags) if f and lo + i > 1]


def test_segment_table_holds_full_segments_below_default_bound():
    """A scan cut inside a segment stores only the full segments before it;
    an unaligned scan past the default bound stores exactly the full
    segments with hi <= DEFAULT_TRIAL_BOUND, and a scan to the default bound
    also stores its last segment, cut short there.  A segment stored for the
    first time holds the products of its runs of primes; one the scan
    reuses holds a single product from then on.  Either way the entry
    multiplies out to the product of the segment's primes, as an independent
    sieve finds them."""
    stride = 2 * _SIEVE_SEGMENT
    full = [lo for lo in range(3, DEFAULT_TRIAL_BOUND, stride) if lo + stride <= DEFAULT_TRIAL_BOUND]
    assert len(full) == 152
    last = full[-1] + stride
    half = len(full) // 2
    mid = full[half]
    n = 3 * _P62  # no prime square up to the bounds; each scan runs to the end
    _SEGMENT_BLOCKS.clear()
    assert _trial_square_scan(n, mid + 2000) == (1, 0, _P62)  # stops inside mid
    assert sorted(_SEGMENT_BLOCKS) == full[:half]
    assert all(len(_SEGMENT_BLOCKS[lo]) > 1 for lo in full[:half])
    # the segment at `last` runs its full length here: not the stored one
    assert _trial_square_scan(n, DEFAULT_TRIAL_BOUND + 3 * 2 ** 16) == (1, 0, _P62)
    assert sorted(_SEGMENT_BLOCKS) == full
    assert all(len(_SEGMENT_BLOCKS[lo]) == 1 for lo in full[:half])  # reused
    assert all(len(_SEGMENT_BLOCKS[lo]) > 1 for lo in full[half:])  # stored
    primes = {lo: [q for q in _plain_primes(lo, lo + stride) if q > 2]
              for lo in (full[0], full[half - 1], mid, full[-1])}
    primes[last] = _plain_primes(last, DEFAULT_TRIAL_BOUND + 1)
    for lo in (mid, full[-1]):
        runs = tuple(prod(primes[lo][i:i + _BLOCK_PRIMES])
                     for i in range(0, len(primes[lo]), _BLOCK_PRIMES))
        assert _SEGMENT_BLOCKS[lo] == runs, lo
    before = dict(_SEGMENT_BLOCKS)
    assert _trial_square_scan(n, DEFAULT_TRIAL_BOUND) == (1, 0, _P62)
    assert sorted(_SEGMENT_BLOCKS) == full + [last]
    assert all(len(_SEGMENT_BLOCKS[lo]) == 1 for lo in full)
    assert len(_SEGMENT_BLOCKS[last]) > 1  # stored, not yet reused
    for lo in full:
        assert prod(_SEGMENT_BLOCKS[lo]) == prod(before[lo]), lo
    for lo, ps in primes.items():
        assert prod(_SEGMENT_BLOCKS[lo]) == prod(ps), lo
    # a scan that stops short of the default bound never folds the stored
    # last segment: its largest prime stays in the cofactor
    top = primes[last][-1]
    assert _trial_square_scan(n * top, top - 1) == (1, 0, _P62 * top)
    assert _trial_square_scan(n * top, DEFAULT_TRIAL_BOUND) == (1, 0, _P62)
    assert _SEGMENT_BLOCKS[last] == (prod(primes[last]),)  # reused: one product


def test_fresh_import_leaves_segment_table_empty():
    src = str(Path(quadcert.__file__).resolve().parent.parent)
    code = "import quadcert; from quadcert import qarith; print(len(qarith._SEGMENT_BLOCKS))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"


def test_first_scan_in_a_fresh_process_stores_blocks():
    """A one-shot process pays no promotion: its first bignum scan stores
    runs of block products, and only a second scan folds them into one."""
    src = str(Path(quadcert.__file__).resolve().parent.parent)
    code = ("from quadcert import qarith\n"
            "n = 3 * (2 ** 62 + 135)\n"
            "for _ in range(2):\n"
            "    qarith._trial_square_scan(n, 10 ** 6)\n"
            "    print(sorted({len(v) > 1 for v in qarith._SEGMENT_BLOCKS.values()}))\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[True]", "[False]"]


def test_bound_above_cap_is_refused():
    with pytest.raises(ValueError):
        squarefree_status(3 * _P62, mode="probable", bound=MAX_TRIAL_BOUND + 1)
    with pytest.raises(ValueError):
        squarefree_status(12, mode="exact", bound=MAX_TRIAL_BOUND + 1)


@pytest.mark.parametrize("bound", [0, 1, -5, True, "7"])
@pytest.mark.parametrize("mode", ["probable", "exact"])
def test_bound_the_verifier_calls_malformed_is_refused(mode, bound):
    with pytest.raises(ValueError, match="squarefree bound"):
        squarefree_status(10 ** 30 + 57, mode=mode, bound=bound)


def test_perfect_power_root_takes_the_smallest_exponent():
    # some root is all its callers need: 64 = 8**2 gives 8, not 2
    assert _perfect_power_root(64, 1) == 8
    assert _perfect_power_root(2 ** 15, 1) == 2 ** 5  # 15 = 3 * 5: cube root first
    assert _perfect_power_root(7 ** 5, 1) == 7
    assert _perfect_power_root(10 ** 30 + 57, 1) is None


@pytest.mark.parametrize("e", [2, 3, 5, 7, 11, 13])
def test_perfect_power_root_finds_roots_just_above_the_bound(e):
    """Only prime exponents e with (bound + 1)**e <= n are tried; a root
    just past the bound, alone or times a second such prime, is still found
    for every e up to that limit."""
    bound = DEFAULT_TRIAL_BOUND
    p = _next_prime(bound + 1)
    q = _next_prime(p + 1)
    for m in (p, p * q):
        assert _perfect_power_root(m ** e, bound) == m
        assert _perfect_power_root(m ** e * q, bound) is None
    assert _perfect_power_root(p ** 4, bound) == p ** 2


elem_strategy = st.tuples(
    st.sampled_from(NONSQUARE_D),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
)


@given(elem_strategy, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
@settings(max_examples=200)
def test_norm_is_multiplicative(t, a2, b2):
    D, a, b = t
    x = QuadElem(D, a, b)
    y = QuadElem(D, a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()


@given(elem_strategy)
@settings(max_examples=200)
def test_parse_format_roundtrip(t):
    D, a, b = t
    x = QuadElem(D, a, b)
    assert parse_elem(format_elem(x)) == x
    if D % 4 == 1:
        h = QuadElem(D, 2 * a + 1, 2 * b + 1, 2)
        assert parse_elem(format_elem(h)) == h


def test_parse_variants():
    assert parse_elem("sqrt(13)") == QuadElem(13, 0, 1)
    assert parse_elem("-3+2*sqrt(7)") == QuadElem(7, -3, 2)
    assert parse_elem("(3+1*sqrt(13))/2") == QuadElem(13, 3, 1, 2)
    assert parse_elem("4", D=7) == QuadElem(7, 4, 0)
    # a minus before sqrt is always the sign group's
    assert parse_elem("-sqrt(5)") == QuadElem(5, 0, -1)
    assert parse_elem("-2*sqrt(5)") == QuadElem(5, 0, -2)
    assert parse_elem("3-sqrt(5)") == QuadElem(5, 3, -1)
    assert parse_elem("(-1-sqrt(5))/2") == QuadElem(5, -1, -1, 2)
    with pytest.raises(ValueError):
        parse_elem("nonsense")
    with pytest.raises(ValueError):
        parse_elem("7")  # no D available


def _interval_sign(x: QuadElem, prec_bits: int = 80) -> int:
    """Directed-rounding interval oracle for the sign, test-only."""
    s = 1 << prec_bits
    r = isqrt(x.D * s * s)
    lo = Fraction(x.a, x.den) + Fraction(x.b * (r if x.b >= 0 else r + 1), s * x.den)
    hi = Fraction(x.a, x.den) + Fraction(x.b * (r + 1 if x.b >= 0 else r), s * x.den)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0 if x.a == 0 and x.b == 0 else None


def test_sign_matches_interval_oracle():
    rng = random.Random(20240905)
    checked = 0
    while checked < 10 ** 4:
        D = rng.choice(NONSQUARE_D)
        a = rng.randrange(-10 ** 18, 10 ** 18)
        b = rng.randrange(-10 ** 18, 10 ** 18)
        x = QuadElem(D, a, b)
        want = _interval_sign(x)
        if want is None:  # interval straddles zero: raise precision
            want = _interval_sign(x, prec_bits=160)
        assert want is not None
        assert x.sign() == want
        checked += 1


@given(st.lists(elem_strategy, min_size=3, max_size=3))
@settings(max_examples=150)
def test_succ_is_a_strict_partial_order(ts):
    xs = [QuadElem(2, a % 997, b % 997) for _, a, b in ts]
    x, y, z = xs
    assert not succ(x, x)
    if succ(x, y) and succ(y, z):
        assert succ(x, z)
    if succeq(x, y) and succeq(y, x):
        assert x == y
