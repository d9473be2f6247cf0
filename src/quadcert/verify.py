"""Independent certificate verification.

Everything is recomputed from the certificate's (D, sequence, k, indices):
the expansion round trip, witness values, every pair enumeration, and the
squarefree status at the stated mode.  Stored bounds and candidate counts
are never trusted.  The enumeration here is a separate implementation from
the generation side: dyadic integer intervals around sqrt(D) (integer
endpoints over one power of two, no gcd) drive the reduction and the
Fincke-Pohst bounds, and only the final membership/succeq filters use exact
integer sign tests.  Shared with generation is nothing beyond the squarefree
classifier, its trial-bound cap and, in one process, the classifier's table
of prime block products, which depends only on the primes and never on D
(D is always rescanned here); `latbox` and `qd` are not imported.

Checks run cheapest-first so that tampered certificates are rejected before
the expensive squarefree recomputation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import List, Optional, Tuple

from .qarith import MAX_TRIAL_BOUND, SquarefreeUndetermined, squarefree_status


class MalformedCertificate(Exception):
    """Certificate cannot be parsed against the schema (exit code 2)."""


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[str] = None


_DEC_RE = re.compile(r"^-?\d+$")


def _is_int(v) -> bool:
    """A JSON integer; bool is a subclass of int but never a valid count."""
    return isinstance(v, int) and not isinstance(v, bool)


# Most digits a decimal field may have.  Parsing takes time quadratic in the
# length; the cap admits the M = 5 Friesen D (213,305 digits) and keeps the
# parse of a hostile field near 0.1 s (CPython 3.11 on a 2-core x86_64).
MAX_DIGITS = 250_000
# int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
_INT_DIGITS = 4000


def _int(text: str, what: str) -> int:
    """The value of a string that matches _DEC_RE, of at most MAX_DIGITS
    digits: a long one is split in halves until int() takes each part."""
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise MalformedCertificate(
            f"{what} has {digits} digits, over the verifier's cap of {MAX_DIGITS}")
    if len(text) <= _INT_DIGITS:
        return int(text)
    k = len(text) // 2  # the low half holds no sign
    hi, lo = _int(text[:-k], what), _int(text[-k:], what)
    return hi * 10 ** k + (-lo if text[0] == "-" else lo)


def _show(n: int) -> str:
    """n in decimal for a reason text, or its bit length past 4096 bits
    (1,234 digits), before str() could refuse it or swamp the text."""
    return str(n) if n.bit_length() <= 4096 else f"<{n.bit_length()}-bit integer>"


def _dec(obj, key, positive=True) -> int:
    v = obj.get(key)
    if not isinstance(v, str) or not _DEC_RE.match(v):
        raise MalformedCertificate(f"field {key!r} must be a decimal string")
    n = _int(v, f"field {key!r}")
    if positive and n < 1:
        raise MalformedCertificate(f"field {key!r} must be positive")
    return n


def _vsign(a: int, b: int, D: int) -> int:
    """Sign of a + b*sqrt(D), exact."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    if a > 0:
        return 1 if a * a > b * b * D else -1
    return 1 if a * a < b * b * D else -1


# ---------------------------------------------------------------------------
# verifier-side box enumeration on dyadic integer intervals
# ---------------------------------------------------------------------------

def _sqrt_outer(x: Fraction, extra_bits: int) -> Fraction:
    """Rational upper bound on sqrt(x) for x > 0, relative 2**-extra_bits."""
    shift = extra_bits + max(0, (x.denominator.bit_length() - x.numerator.bit_length()) // 2 + 1)
    s = 1 << shift
    return Fraction(isqrt((x.numerator * s * s) // x.denominator) + 1, s)


def _iv_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _iv_scale(x, c: int):
    if c >= 0:
        return (x[0] * c, x[1] * c)
    return (x[1] * c, x[0] * c)


def _iv_sq(x):
    if x[0] >= 0:
        return (x[0] * x[0], x[1] * x[1])
    if x[1] <= 0:
        return (x[1] * x[1], x[0] * x[0])
    return (0, max(x[0] * x[0], x[1] * x[1]))


class _PrecisionExhausted(Exception):
    """No attempt up to the precision cap gave a rigorous determinant bound."""


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _vbox_enumerate(D: int, S1: Fraction, S2: Fraction) -> List[Tuple[int, int]]:
    """All (x, y) with |sigma_h(x + y*omega)| <= S_h; interval-driven.

    The reduction uses midpoint Gram values (any unimodular basis is valid);
    the enumeration bounds use interval endpoints, so completeness never
    depends on the approximation quality.  Precision starts at D's bit length
    and doubles; the M = 2 and M = 3 certificate boxes finish at one or two
    times D's bit length.  Four times the input size caps the work, and past
    it the box is refused.
    """
    cap = 4 * (D.bit_length() + _bits(S1) + _bits(S2)) + 256
    prec = max(96, D.bit_length())
    while True:
        got = _vbox_attempt(D, S1, S2, prec)
        if got is not None:
            return got
        if prec >= cap:
            raise _PrecisionExhausted(
                f"box enumeration found no rigorous bound below {cap} bits")
        prec = min(2 * prec, cap)


@lru_cache(maxsize=16)
def _vsqrt_scaled(D: int, prec: int) -> int:
    """isqrt(D * 4**prec): the same for every box of one field at one
    precision, and at M = 4 the costliest step of a box attempt."""
    return isqrt(D << (2 * prec))


def _vbox_gram(D, S1, S2, prec):
    """(K, G11, G12, G22): integer intervals that enclose K times the Gram
    entries of F(c) = (sigma_1(c)/S1)^2 + (sigma_2(c)/S2)^2 on {1, omega}.

    With S_h = n_h/d_h and E = 2**prec (2**(prec+1) when D ≡ 1 mod 4),
    K = (n1 n2 E)^2 makes every endpoint an integer: only sqrt(D), known to
    2**-prec, is inexact.
    """
    e = 1 << prec
    r = _vsqrt_scaled(D, prec)  # r <= e*sqrt(D) < r + 1
    if D % 4 == 1:
        E = 2 * e
        w = (e + r, e + r + 1)  # E * (1 + sqrt(D))/2
        wc = (e - r - 1, e - r)
    else:
        E = e
        w = (r, r + 1)
        wc = (-r - 1, -r)
    n1, d1 = S1.numerator, S1.denominator
    n2, d2 = S2.numerator, S2.denominator
    al, be = (d1 * n2) ** 2, (d2 * n1) ** 2  # K*F = (al sigma_1^2 + be sigma_2^2) E^2
    g11 = (al + be) * E * E
    G12 = ((al * w[0] + be * wc[0]) * E, (al * w[1] + be * wc[1]) * E)
    w2, wc2 = _iv_sq(w), _iv_sq(wc)
    G22 = (al * w2[0] + be * wc2[0], al * w2[1] + be * wc2[1])
    return (n1 * n2 * E) ** 2, (g11, g11), G12, G22


def _vbox_attempt(D, S1, S2, prec):
    """One pass with sqrt(D) known to 2**-prec, or None when the intervals
    are too wide for a rigorous lower bound on the determinant.  Gram values
    are integers over K (`_vbox_gram`)."""
    half = D % 4 == 1
    K, G11, G12, G22 = _vbox_gram(D, S1, S2, prec)

    def gram_iv(p, q):
        out = _iv_scale(G11, p[0] * q[0])
        out = _iv_add(out, _iv_scale(G12, p[0] * q[1] + p[1] * q[0]))
        return _iv_add(out, _iv_scale(G22, p[1] * q[1]))

    # a, b, c: twice the midpoints of gram_iv(u, u), (u, v), (v, v), updated
    # in place; exact, since an interval's endpoint sum is bilinear in (p, q)
    u, v = (1, 0), (0, 1)
    a, b, c = sum(G11), sum(G12), sum(G22)
    for _ in range(512):
        if c < a:
            u, v, a, c = v, u, c, a
        if a <= 0:
            break  # degenerate midpoint; rigorous bounds below stay valid
        mu = (2 * b + a) // (2 * a)  # round(b / a)
        if mu == 0:
            break
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        c, b = c - 2 * mu * b + mu * mu * a, b - mu * a
    if c < a:
        u, v = v, u
    A = gram_iv(u, u)
    B0 = gram_iv(u, v)
    C = gram_iv(v, v)
    if A[0] <= 0 or C[0] <= 0:
        return None  # A_lo*C_lo is a lower bound on A*C only for positive lows
    babs = max(abs(B0[0]), abs(B0[1]))
    det_lo = A[0] * C[0] - babs * babs  # <= K^2 * det
    if det_lo <= 0:
        return None  # precision too low for a rigorous determinant bound
    # on F <= 2: n^2 <= 2A/det and |A m + B0 n| <= sqrt(2A - det n^2)
    two_AK = 2 * A[1] * K
    n_max = isqrt(two_AK // det_lo)
    out = []
    for n in range(-n_max, n_max + 1):
        disc = two_AK - det_lo * n * n  # >= K^2 (2A - det n^2)
        if disc < 0:
            continue
        sd = isqrt(disc)
        if sd * sd < disc:
            sd += 1
        num_lo = min(-B0[0] * n, -B0[1] * n) - sd
        num_hi = max(-B0[0] * n, -B0[1] * n) + sd
        m_lo = min(-(-num_lo // A[0]), -(-num_lo // A[1]))
        m_hi = max(num_hi // A[0], num_hi // A[1])
        for m in range(m_lo, m_hi + 1):
            x = m * u[0] + n * v[0]
            y = m * u[1] + n * v[1]
            if _v_in_box(D, half, x, y, S1, S2):
                out.append((x, y))
    out.sort()
    return out


def _v_in_box(D, half, x, y, S1: Fraction, S2: Fraction) -> bool:
    # coordinates of x + y*omega over sqrt(D), scaled integral: (a + b sqrt D)/dn
    if half:
        a, b, dn = 2 * x + y, y, 2
    else:
        a, b, dn = x, y, 1
    for (bnd, bb) in ((S1, b), (S2, -b)):
        n, d = bnd.numerator, bnd.denominator
        # need |a + bb*sqrt(D)| * d <= n * dn
        if _vsign(n * dn - d * a, -d * bb, D) < 0:
            return False
        if _vsign(n * dn + d * a, d * bb, D) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# verifier-side expansion and convergents
# ---------------------------------------------------------------------------

def _v_expand(D: int, k: int, cap: int):
    """The period of sqrt(D) for nonsquare D with k = isqrt(D), aborting with
    None once its length passes cap."""
    m, d, a = 0, 1, k
    period = []
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (k + m) // d
        period.append(a)
        if d == 1:
            return period
        if len(period) > cap:
            return None


def _v_convergents(k: int, period: List[int], upto: int):
    """p_i, q_i for i = 0..upto with cyclic partial quotients."""
    s = len(period)
    ps, qs = [k], [1]
    p_prev, q_prev = 1, 0
    for i in range(1, upto + 1):
        u = period[(i - 1) % s]
        ps.append(u * ps[-1] + p_prev)
        qs.append(u * qs[-1] + q_prev)
        p_prev, q_prev = ps[-2], qs[-2]
    return ps, qs


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

_ALLOWED_SOUNDNESS = ("proved", "conditional")


def _parse_structure(obj) -> dict:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # also the digit limit, deep nesting
            raise MalformedCertificate(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedCertificate("certificate must be a JSON object")
    for key in ("version", "sequence", "k", "D", "squarefree", "M",
                "witnesses", "pairs", "conclusion"):
        if key not in obj:
            raise MalformedCertificate(f"missing field {key!r}")
    if not _is_int(obj["version"]) or obj["version"] != 1:
        raise MalformedCertificate(f"unsupported version {obj['version']!r}")
    if not isinstance(obj["sequence"], list) or not all(
            isinstance(u, str) and _DEC_RE.match(u) for u in obj["sequence"]):
        raise MalformedCertificate("sequence must be a list of decimal strings")
    if not _is_int(obj["M"]) or obj["M"] < 1:
        raise MalformedCertificate("M must be an integer >= 1")
    sf = obj["squarefree"]
    if not isinstance(sf, dict) or "mode" not in sf or "verdict" not in sf:
        raise MalformedCertificate("squarefree block must carry mode and verdict")
    if sf["mode"] not in ("exact", "probable"):
        raise MalformedCertificate(f"unknown squarefree mode {sf['mode']!r}")
    bound = sf.get("bound")
    if not _is_int(bound) or not 2 <= bound <= MAX_TRIAL_BOUND:
        raise MalformedCertificate(
            f"squarefree bound must be an integer in [2, {MAX_TRIAL_BOUND}]")
    if not isinstance(obj["witnesses"], list) or not isinstance(obj["pairs"], list):
        raise MalformedCertificate("witnesses and pairs must be lists")
    for w in obj["witnesses"]:
        if not isinstance(w, dict) or not _is_int(w.get("i")):
            raise MalformedCertificate("witness entries need integer index i")
        _dec(w, "p")
        _dec(w, "q")
    for p in obj["pairs"]:
        if not isinstance(p, dict) or not _is_int(p.get("i")) \
                or not _is_int(p.get("j")) \
                or not isinstance(p.get("violators"), list):
            raise MalformedCertificate("pair entries need i, j, violators")
        if not _is_int(p.get("candidates")) or p["candidates"] < 0:
            raise MalformedCertificate("pair candidates must be an integer >= 0")
    concl = obj["conclusion"]
    if not isinstance(concl, dict) or not _is_int(concl.get("excluded_rank_le")) \
            or not isinstance(concl.get("soundness"), str):
        raise MalformedCertificate("conclusion needs excluded_rank_le and soundness")
    return obj


def verify_certificate(obj) -> Verdict:
    """Recompute everything; accept only a fully consistent, violator-free
    certificate.  Raises MalformedCertificate for schema-level breakage."""
    obj = _parse_structure(obj)
    D = _dec(obj, "D")
    k = _dec(obj, "k")
    seq = [_int(u, "sequence entry") for u in obj["sequence"]]
    if any(u < 1 for u in seq):
        return Verdict(False, "sequence entries must be positive")
    if any(seq[t] != seq[len(seq) - 1 - t] for t in range(len(seq))):
        return Verdict(False, "sequence is not symmetric")

    # cheap field checks
    kk = isqrt(D)
    if kk * kk == D:
        return Verdict(False, f"D = {_show(D)} is a perfect square")
    if kk != k:
        return Verdict(False, f"k = {_show(k)} is not floor(sqrt(D))")

    # round trip with a step cap: a tampered D fails in O(len(seq)) steps
    period = _v_expand(D, k, cap=len(seq) + 1)
    if period is None or period != seq + [2 * k]:
        return Verdict(False, "expansion of sqrt(D) does not match the stated period")

    # conclusion consistency (cross-field, no recompute needed)
    M = obj["M"]
    concl = obj["conclusion"]
    soundness = concl["soundness"]
    if soundness not in _ALLOWED_SOUNDNESS:
        return Verdict(False, f"soundness {soundness!r} is not acceptable")
    wits = obj["witnesses"]
    if len(wits) != M + 1:
        return Verdict(False, f"expected {M + 1} witnesses, found {len(wits)}")
    if concl["excluded_rank_le"] != len(wits) - 1:
        return Verdict(False, "excluded rank does not match the witness count")
    sf = obj["squarefree"]
    if soundness == "proved" and not (sf["mode"] == "exact" and sf["verdict"] == "squarefree-proved"):
        return Verdict(False, "proved conclusion requires an exact squarefree proof")
    if soundness == "conditional" and sf["verdict"] != "probably-squarefree":
        return Verdict(False, "conditional conclusion requires a probable squarefree verdict")

    # witnesses: indices odd ascending, values recomputed
    idx = [w["i"] for w in wits]
    if any(i < 1 or i % 2 == 0 for i in idx) or sorted(set(idx)) != idx:
        return Verdict(False, f"witness indices must be distinct ascending odd: {idx}")
    # generated witnesses lie within one period; the cap bounds the
    # convergents built below
    if idx[-1] > len(period):
        return Verdict(False, f"witness index {idx[-1]} exceeds the period length {len(period)}")
    ps, qs = _v_convergents(k, period, idx[-1])
    for w in wits:
        i = w["i"]
        if ps[i] != _dec(w, "p") or qs[i] != _dec(w, "q"):
            return Verdict(False, f"witness alpha_{i} does not match the convergent")
        # totally positive: p - q*sqrt(D) > 0 for odd i
        if _vsign(ps[i], -qs[i], D) <= 0 or _vsign(ps[i], qs[i], D) <= 0:
            return Verdict(False, f"witness alpha_{i} is not totally positive")

    # pairs: complete coverage, independently re-enumerated, violator-free
    want_pairs = {(idx[a], idx[b]) for a in range(len(idx)) for b in range(a + 1, len(idx))}
    got_pairs = {(p["i"], p["j"]) for p in obj["pairs"]}
    if want_pairs != got_pairs or len(obj["pairs"]) != len(want_pairs):
        return Verdict(False, "pair list does not cover exactly all witness pairs")
    for p in obj["pairs"]:
        if p["violators"]:
            return Verdict(False, f"pair ({p['i']},{p['j']}) carries stored violators")
    for p in obj["pairs"]:
        i, j = p["i"], p["j"]
        bx = 4 * (ps[i] * ps[j] + qs[i] * qs[j] * D)
        by = 4 * (ps[i] * qs[j] + ps[j] * qs[i])
        try:
            viol = _v_violators(D, bx, by)
        except _PrecisionExhausted as exc:
            return Verdict(False, f"pair ({i},{j}): {exc}")
        if viol:
            shown = ", ".join(f"({', '.join(map(_show, c))})" for c in viol[:3])
            return Verdict(False, f"pair ({i},{j}) has violators: [{shown}]")

    # squarefree recomputation (the expensive step, deliberately last)
    try:
        re_sf = squarefree_status(D, mode=sf["mode"], bound=sf["bound"])
    except SquarefreeUndetermined:
        return Verdict(False, "squarefree status cannot be re-established")
    if re_sf.verdict != sf["verdict"]:
        return Verdict(False, f"squarefree verdict mismatch: recomputed {re_sf.verdict}")
    return Verdict(True, None)


def _v_violators(D: int, bx: int, by: int):
    """Nonzero c with beta ⪰ c^2, by exact comparison, for the totally
    positive beta = bx + by*sqrt(D) = 4*a_i*a_j.  The box bounds
    sqrt(sigma_h(beta)), with sigma_2(beta) = N(beta)/sigma_1(beta)."""
    r = _vsqrt_scaled(D, 64)  # r <= 2**64 * sqrt(D) < r + 1
    nb = bx * bx - by * by * D  # N(beta) > 0: both witnesses totally positive
    hi1 = Fraction((bx << 64) + by * (r + 1), 1 << 64)
    lo1 = Fraction((bx << 64) + by * r, 1 << 64)
    S1 = _sqrt_outer(hi1, 20)
    S2 = _sqrt_outer(Fraction(nb) / lo1, 20)
    half = D % 4 == 1
    out = []
    for x, y in _vbox_enumerate(D, S1, S2):
        if x == 0 and y == 0:
            continue
        if half:
            ca, cb, cd = 2 * x + y, y, 2
        else:
            ca, cb, cd = x, y, 1
        dd = cd * cd
        # beta - c^2 componentwise over denominator dd
        ra = bx * dd - (ca * ca + cb * cb * D)
        rb = by * dd - 2 * ca * cb
        s1 = _vsign(ra, rb, D)
        s2 = _vsign(ra, -rb, D)
        if (s1 > 0 and s2 > 0) or (s1 == 0 and s2 == 0):
            out.append((ca, cb, cd))
    return out


def verify_file(path: str) -> Verdict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return verify_certificate(text)
