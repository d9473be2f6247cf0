import pytest

from quadcert.contfrac import expand_sqrt
from quadcert.friesen import (
    SymSequence,
    admissible_k,
    construct_sequence,
    derive_D,
    parity_condition,
    search_k,
)


def test_symmetry_validation():
    SymSequence(())
    SymSequence((1,))
    SymSequence((1, 2, 1))
    with pytest.raises(ValueError):
        SymSequence((1, 2))
    with pytest.raises(ValueError):
        SymSequence((0, 0))


def test_parity_examples():
    assert parity_condition(SymSequence((1,))) is True
    assert parity_condition(SymSequence((1, 1))) is False
    assert parity_condition(SymSequence(())) is True


def test_derive_examples():
    assert derive_D(1, SymSequence((1,))) == 3
    assert derive_D(2, SymSequence((1,))) == 8
    assert derive_D(1, SymSequence((2,))) is None
    with pytest.raises(ValueError):
        derive_D(0, SymSequence((1,)))


def test_derive_matches_bruteforce_scan():
    # every (k, D) with D < 40000 whose period is seq + [2k], via raw expansion
    for seq in (SymSequence((2, 8, 2)), SymSequence((1, 2, 1)), SymSequence((3, 1, 3)),
                SymSequence((2, 2)), SymSequence((1, 1, 1))):
        want = []
        for D in range(2, 40000):
            try:
                e = expand_sqrt(D)
            except ValueError:
                continue
            if e.period == tuple(seq.values) + (2 * e.k,):
                want.append((e.k, D))
        got = [(k, derive_D(k, seq)) for k in range(1, 220)]
        got = [(k, D) for k, D in got if D is not None and D < 40000]
        assert got == want


def test_admissible_progression_is_complete():
    for seq in (SymSequence((2, 8, 2)), SymSequence((1,)), SymSequence(())):
        prog = admissible_k(seq)
        assert prog is not None
        k0, m = prog
        members = set(range(k0, 3000, m))
        for k in range(1, 3000):
            hit = derive_D(k, seq) is not None
            if hit:
                assert k in members
    # insoluble congruence: no k at all
    assert admissible_k(SymSequence((1, 1))) is None


def test_search_empty_sequence_family():
    hits = search_k(SymSequence(()), (1, 8), sf_mode="exact")
    assert [(h.k, h.D) for h in hits] == [(k, k * k + 1) for k in range(1, 9)]
    assert all(h.roundtrip_verified for h in hits)
    sf = {h.k: h.squarefree.verdict for h in hits}
    assert sf[1] == "squarefree-proved"
    assert sf[7] == "not-squarefree"  # 50 = 2 * 25


def test_search_seq1_flags_nonsquarefree():
    hits = search_k(SymSequence((1,)), (1, 5), sf_mode="exact")
    by_k = {h.k: h for h in hits}
    assert by_k[1].D == 3 and by_k[1].squarefree.proved
    assert by_k[2].D == 8 and by_k[2].squarefree.verdict == "not-squarefree"
    assert by_k[2].squarefree.witness == 2


def test_search_parity_failing_sequence_has_no_hits():
    with pytest.warns(UserWarning, match="parity"):
        assert search_k(SymSequence((1, 1)), (1, 50), sf_mode="exact") == []


def test_search_seq1_hits_every_k():
    hits = search_k(SymSequence((1,)), (1, 40), sf_mode="exact")
    assert [h.k for h in hits] == list(range(1, 41))
    assert all(h.D == h.k * h.k + 2 * h.k and h.roundtrip_verified for h in hits)


def test_construct_m1_minimal_matches_expected_shape():
    seq = construct_sequence(1, "minimal")
    assert seq.values == (2, 8, 512, 134217728, 512, 8, 2)
    assert seq.s == 8 and seq.r == 4
    assert parity_condition(seq)


def test_construct_m1_threes():
    seq = construct_sequence(1, "threes")
    assert seq.values == (3, 27, 19683, 3 ** 27, 19683, 27, 3)
    assert seq.s == 8 and seq.s % 3 == 2
    assert parity_condition(seq)


def test_construct_m2_minimal_growth_through_witnesses():
    seq = construct_sequence(2, "minimal")
    # r = 2M+2 so the growth condition holds at every witness pair index
    assert seq.r == 6
    core = seq.values[: seq.r]
    assert core[0] >= 2
    assert all(core[i + 1] == core[i] ** 3 for i in range(len(core) - 1))
    assert parity_condition(seq)


def test_construct_growth_and_parity_generic():
    for M in (1, 2):
        for base in ("minimal", "threes"):
            seq = construct_sequence(M, base)
            assert seq.r >= 2 * M + 2
            core = seq.values[: seq.r]
            assert all(core[i + 1] >= core[i] ** 3 for i in range(seq.r - 1))
            assert parity_condition(seq)
            if base == "threes":
                assert seq.s % 3 == 2


@pytest.mark.parametrize("base, b, lengths", [
    ("minimal", 2, (8, 12, 16, 20)),
    ("threes", 3, (8, 14, 17, 20)),
])
def test_construct_sequence_pinned(base, b, lengths):
    # M = 1..4: the palindrome on the core b^(3^i), i < r, with the central
    # entry once (s even) or twice (s odd) and unscaled in every case
    for M, s in enumerate(lengths, start=1):
        core = [b ** 3 ** i for i in range(s // 2)]
        tail = core[::-1] if s % 2 else core[-2::-1]
        assert construct_sequence(M, base).values == tuple(core + tail), (M, base)


def test_derive_roundtrip_key_invariant():
    # progression members are integrality-admissible but may still collapse
    # to a shorter minimal period (k = 4 gives D = 20 = [4; 2,8]); derive_D
    # must reject those and round-trip the survivors
    seq = SymSequence((2, 8, 2))
    k0, m = admissible_k(seq)
    assert derive_D(4, seq) is None
    hits = 0
    for t in range(8):
        k = k0 + t * m
        D = derive_D(k, seq)
        if D is None:
            continue
        hits += 1
        e = expand_sqrt(D)
        assert e.k == k and e.period == (2, 8, 2, 2 * k)
    assert hits >= 3


@pytest.mark.parametrize("bound", [-5, 0, 1, 10 ** 9 + 1, 10 ** 12, True, 10.0 ** 7])
def test_search_refuses_bound_outside_certificate_range(bound):
    # checked before any work, even where the range holds no field to test
    with pytest.raises(ValueError):
        search_k(SymSequence((1,)), (1, 3), sf_mode="probable", sf_bound=bound)
    with pytest.raises(ValueError):
        search_k(SymSequence((1, 1)), (1, 3), sf_mode="probable", sf_bound=bound)
