"""Certificates that Q(sqrt(D)) admits no low-rank universal form.

A certificate packages a field (found through the Friesen machinery), a set
of totally positive witnesses alpha_{i_1}, ..., alpha_{i_w} from the
continued fraction of sqrt(D), and, for every pair, an exhaustive
enumeration of all c in O_K with sigma_h(c)^2 <= sigma_h(4 a_i a_j) showing
that no nonzero c satisfies 4 a_i a_j ⪰ c^2.  By the orthogonality argument
this excludes universal totally positive forms (and free O_K-lattices) of
rank <= w-1.  Soundness rests on the enumeration alone, never on the growth
of the constructed period.

Also here: exact total-positive-definiteness checks for n-ary forms over
O_K, an exhaustive representability decider, and the generator of all
totally positive integers up to a trace bound.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .contfrac import SurdExpansion, convergents, expand_sqrt
from .friesen import SymSequence, admissible_k, construct_sequence, derive_D
from .latbox import box_enumerate, coords_to_elem, sqrt_embedding_bounds
from .qarith import (
    DEFAULT_TRIAL_BOUND,
    QuadElem,
    SquarefreeStatus,
    SquarefreeUndetermined,
    check_trial_bound,
    format_elem,
    isqrt,
    parse_elem,
    squarefree_status,
    succeq,
    to_decimal,
)
from .qd import QD, frac_sqrt_outer, sqrt_in_field

CERT_VERSION = 1


class CertificateError(Exception):
    pass


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessSet:
    D: int
    indices: Tuple[int, ...]
    witnesses: Tuple[QuadElem, ...]


def select_witnesses(
    e: SurdExpansion,
    M: int,
    indices: Optional[Sequence[int]] = None,
    force: bool = False,
) -> WitnessSet:
    """M+1 totally positive convergent elements, default alpha_1, ..., alpha_{2M+1}.

    Explicit indices must number M+1, the witness count the verifier
    expects.  Indices must be odd and <= r unless force is set (forcing is
    how the negative controls are built; enumeration, not index placement,
    carries soundness).  Even forced, no index may pass the period length s,
    the verifier's cap on the convergents it rebuilds.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    idx = tuple(indices) if indices is not None else tuple(range(1, 2 * M + 2, 2))
    if len(idx) != M + 1:
        raise ValueError(f"M = {M} needs {M + 1} witness indices, got {len(idx)}")
    if len(idx) != len(set(idx)) or any(i < 1 or i % 2 == 0 for i in idx):
        raise ValueError(f"witness indices must be distinct odd positives: {idx}")
    if tuple(sorted(idx)) != idx:
        raise ValueError("witness indices must be ascending")
    if not force and idx[-1] > e.r:
        raise CertificateError(
            f"period too short: index {idx[-1]} > r = {e.r} for D = {e.D}"
        )
    if idx[-1] > e.s:
        raise CertificateError(
            f"witness index {idx[-1]} exceeds the period length {e.s} for D = {e.D}"
        )
    cs = convergents(e, idx[-1] + 1)
    ws = tuple(QuadElem(e.D, cs[i].p, cs[i].q) for i in idx)
    for w in ws:
        assert w.is_totally_positive()
    return WitnessSet(D=e.D, indices=idx, witnesses=ws)


# ---------------------------------------------------------------------------
# pair refutation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    beta: QuadElem
    s1_bound: Fraction
    s2_bound: Fraction
    candidates_tested: int
    violators: Tuple[QuadElem, ...]


def _box_violators(D: int, beta: QuadElem, S1: Fraction, S2: Fraction):
    pts = box_enumerate(D, S1, S2)
    assert (0, 0) in pts, "origin must always be a candidate"
    violators = []
    for x, y in pts:
        if x == 0 and y == 0:
            continue
        c = coords_to_elem(D, x, y)
        if succeq(beta, c * c):
            violators.append(c)
    violators.sort(key=lambda c: (c.a, c.b, c.den))
    return len(pts), tuple(violators)


def pair_refute(D: int, a: QuadElem, b: QuadElem, i: int = -1, j: int = -1) -> PairCheck:
    """Exhaustively enumerate c in O_K with sigma_h(c)^2 <= sigma_h(4ab), h = 1, 2.

    Returns every nonzero c with 4ab ⪰ c^2 (the equality branch counts).
    The box is enumerated once; the independent verifier re-enumerates it
    with its own engine, and `quadcert certify` runs that verifier before
    it writes a certificate.
    """
    if a.D != D or b.D != D:
        raise ValueError("witness field mismatch")
    if not (a.is_totally_positive() and b.is_totally_positive()):
        raise ValueError("pair_refute needs totally positive inputs")
    beta = a * b * 4
    S1, S2 = sqrt_embedding_bounds(beta)
    tested, violators = _box_violators(D, beta, S1, S2)
    return PairCheck(i=i, j=j, beta=beta, s1_bound=S1, s2_bound=S2,
                     candidates_tested=tested, violators=violators)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    version: int
    seq: SymSequence
    k: int
    D: int
    squarefree: SquarefreeStatus
    M: int
    witness_set: WitnessSet
    pair_checks: Tuple[PairCheck, ...]
    excluded_rank_le: int
    soundness: str  # 'proved' | 'conditional' | 'refuted'

    def conclusion_text(self) -> str:
        D = to_decimal(self.D)
        if self.soundness == "refuted":
            return (f"REFUTED: the chosen witnesses over Q(sqrt({D})) admit "
                    f"nonzero c with 4*a_i*a_j ⪰ c^2")
        cond = "" if self.soundness == "proved" else " (conditional on D being squarefree)"
        return (f"Q(sqrt({D})) admits no universal totally positive quadratic "
                f"form or O_K-lattice of rank <= {self.excluded_rank_le}{cond}")

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "sequence": [to_decimal(u) for u in self.seq.values],
            "k": to_decimal(self.k),
            "D": to_decimal(self.D),
            "squarefree": self.squarefree.to_json(),
            "M": self.M,
            "witnesses": [
                {"i": i, "p": to_decimal(w.a), "q": to_decimal(w.b)}
                for i, w in zip(self.witness_set.indices, self.witness_set.witnesses)
            ],
            "pairs": [
                {
                    "i": p.i,
                    "j": p.j,
                    "candidates": p.candidates_tested,
                    "violators": [format_elem(c) for c in p.violators],
                }
                for p in self.pair_checks
            ],
            "conclusion": {
                "excluded_rank_le": self.excluded_rank_le,
                "soundness": self.soundness,
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)


def build_certificate(
    M: int,
    base: str = "minimal",
    k_search: int = 64,
    sf_mode: Optional[str] = None,
    sf_bound: int = DEFAULT_TRIAL_BOUND,
    force_D: Optional[int] = None,
    indices: Optional[Sequence[int]] = None,
    threads: int = 1,
) -> Certificate:
    """Construct -> k-search -> witnesses -> all pair refutations.

    sf_mode defaults to 'exact' for M = 1 and 'probable' for M >= 2 (those D
    run to hundreds of digits).  force_D skips the construction and builds
    the certificate for the given field; combined with explicit indices this
    produces the negative controls.  Nothing here re-checks the pair
    enumerations: `quadcert certify` hands the certificate to the
    independent verifier before writing it.

    Pairs are checked serially, in (i, j) order.  threads accepts only 1: the
    pair work is pure-Python bignum arithmetic that holds the GIL, so a
    thread pool never paid for itself.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if threads != 1:
        raise ValueError("threads must be 1: pair checks run serially")
    check_trial_bound(sf_bound)
    if sf_mode is None:
        sf_mode = "exact" if M == 1 else "probable"
    if force_D is not None:
        e = expand_sqrt(force_D)
        seq = SymSequence(e.period[:-1])
        k, D = e.k, force_D
        sf = squarefree_status(D, mode=sf_mode, bound=sf_bound)
        if sf.verdict == "not-squarefree":
            raise CertificateError(f"D = {D} is not squarefree")
    else:
        seq = construct_sequence(M, base)
        prog = admissible_k(seq)
        if prog is None:
            raise CertificateError(f"sequence {seq} admits no k at all")
        k0, step = prog
        k = D = None
        sf = None
        for t in range(k_search):
            kc = k0 + t * step
            Dc = derive_D(kc, seq)
            if Dc is None:
                continue
            try:
                sfc = squarefree_status(Dc, mode=sf_mode, bound=sf_bound)
            except SquarefreeUndetermined:
                continue
            if sfc.verdict == "not-squarefree":
                continue
            k, D, sf = kc, Dc, sfc
            break
        if D is None:
            raise CertificateError(
                f"no admissible squarefree field within {k_search} progression steps"
            )
        e = expand_sqrt(D, max_steps=seq.s + 1)
    wset = select_witnesses(e, M, indices=indices, force=force_D is not None)
    pairs = [pair_refute(D, a, b, i=ii, j=jj)
             for (ii, a), (jj, b) in combinations(zip(wset.indices, wset.witnesses), 2)]
    if any(p.violators for p in pairs):
        soundness = "refuted"
    elif sf.proved:
        soundness = "proved"
    else:
        soundness = "conditional"
    return Certificate(
        version=CERT_VERSION,
        seq=seq,
        k=k,
        D=D,
        squarefree=sf,
        M=M,
        witness_set=wset,
        pair_checks=tuple(pairs),
        excluded_rank_le=len(wset.witnesses) - 1,
        soundness=soundness,
    )


# ---------------------------------------------------------------------------
# quadratic forms over O_K and the representability decider
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """Q(x) = sum_{i<=j} a_ij x_i x_j with a_ij in O_K; Gram b_ij = a_ij/2."""

    D: int
    n: int
    coeffs: Tuple[Tuple[int, int, QuadElem], ...]  # (i, j, a_ij), 1-based, i <= j

    def coeff(self, i: int, j: int) -> QuadElem:
        if i > j:
            i, j = j, i
        for a, b, c in self.coeffs:
            if (a, b) == (i, j):
                return c
        return QuadElem(self.D, 0, 0)

    def gram(self) -> List[List[QD]]:
        """Exact Gram matrix over Q(sqrt(D)); off-diagonal entries are halved."""
        D = self.D
        B = [[QD(D, 0) for _ in range(self.n)] for _ in range(self.n)]
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                c = self.coeff(i, j)
                if i == j:
                    B[i - 1][i - 1] = QD(D, c.a, c.b, c.den)
                else:
                    B[i - 1][j - 1] = B[j - 1][i - 1] = QD(D, c.a, c.b, 2 * c.den)
        return B

    def evaluate(self, v: Sequence[QuadElem]) -> QuadElem:
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        total = QuadElem(self.D, 0, 0)
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                c = self.coeff(i, j)
                if c.a == 0 and c.b == 0:
                    continue
                total = total + c * v[i - 1] * v[j - 1]
        return total

    def is_totally_positive_definite(self) -> bool:
        """Every pivot of the UDU^T factorisation is totally positive (Sylvester
        on trailing principal minors), exactly."""
        return _udu(self.gram()) is not None


def _udu(B: List[List[QD]]) -> Optional[Tuple[List[List[QD]], List[QD]]]:
    """B = U diag(d) U^T with U unit upper triangular, exactly over Q(sqrt(D)).

    Eliminates from the last coordinate, so Q(x) = sum_k d_k (x_k +
    sum_{j<k} U[j][k] x_j)^2 and term k involves only x_0..x_k.  Returns
    (U, d), or None at the first pivot that is not totally positive.
    """
    n = len(B)
    A = [row[:] for row in B]
    U = [[QD(row[0].D, 1 if i == j else 0) for j in range(n)] for i, row in enumerate(B)]
    d: List[QD] = [None] * n
    for k in range(n - 1, -1, -1):
        p = A[k][k]
        if p.sign() <= 0 or p.conj().sign() <= 0:
            return None
        d[k] = p
        for i in range(k):
            U[i][k] = A[i][k] / p
        for i in range(k):
            for j in range(k):
                A[i][j] = A[i][j] - U[i][k] * A[k][j]
    return U, d


def _inverse_diagonal(U: List[List[QD]], d: List[QD]) -> List[QD]:
    """Diagonal of B^-1 for B = U diag(d) U^T: with W = U^-1 (unit upper
    triangular, one back substitution per column), (B^-1)_tt =
    sum_{k<=t} W[k][t]^2 / d_k."""
    zero = QD(d[0].D, 0)
    diag = []
    for t in range(len(d)):
        w = {t: zero + 1}
        for k in range(t - 1, -1, -1):
            w[k] = -sum((U[k][j] * w[j] for j in range(k + 1, t + 1)), zero)
        diag.append(sum((w[k] * w[k] / d[k] for k in range(t + 1)), zero))
    return diag


@lru_cache(maxsize=16)
def _form_factor(form: QuadraticForm):
    """(U, d, diagonal of B^-1) of the form's Gram matrix B, or None when it
    is not totally positive definite.  Cached per form, so the rows are
    tuples: callers share them and must not change them."""
    factor = _udu(form.gram())
    if factor is None:
        return None
    U, d = factor
    return tuple(map(tuple, U)), tuple(d), tuple(_inverse_diagonal(U, d))


@dataclass(frozen=True)
class RepresentResult:
    status: str  # 'found' | 'impossible'
    vector: Optional[Tuple[QuadElem, ...]]
    candidates_per_coordinate: Tuple[int, ...]
    nodes_visited: int


def _elem_to_qd(x: QuadElem) -> QD:
    return QD(x.D, x.a, x.b, x.den)


def _qd_to_elem(x: QD) -> Optional[QuadElem]:
    """QD -> O_K element, or None when not an algebraic integer."""
    try:
        return QuadElem(x.D, x.a, x.b, x.q)
    except ValueError:  # QuadElem's own integrality rule refuses x
        return None


def totally_positive_up_to(D: int, trace_bound: int) -> List[QuadElem]:
    """All totally positive integers of O_K with trace <= trace_bound,
    sorted by (trace, norm)."""
    if trace_bound < 1:
        raise ValueError("trace_bound must be >= 1")
    out = []
    # den = 1: trace 2a; totally positive <=> a >= 1 and a^2 > b^2 D, that is
    # b^2 <= (a^2 - 1) // D
    for a in range(1, trace_bound // 2 + 1):
        bmax = isqrt((a * a - 1) // D)
        for b in range(-bmax, bmax + 1):
            x = QuadElem(D, a, b, 1)
            assert x.is_totally_positive()
            out.append(x)
    if D % 4 == 1:
        for a in range(1, trace_bound + 1, 2):
            bmax = isqrt((a * a - 1) // D)
            for b in range(-bmax, bmax + 1):
                if b % 2 == 0 or b == 0:
                    continue
                x = QuadElem(D, a, b, 2)
                assert x.is_totally_positive()
                out.append(x)
    out.sort(key=lambda x: (x.trace(), x.norm(), x.a, x.b))
    return out


def decide_represent(form: QuadraticForm, target: QuadElem) -> RepresentResult:
    """Exhaustive decision of Q(v) = target over O_K^n.

    One exact factorisation B = U diag(d) U^T (Fincke-Pohst order,
    eliminating from the last coordinate) does all the work.  Its pivots
    decide total positive definiteness.  The coordinate boxes come from the
    diagonal of B^-1 read off it, per embedding: sigma_h(x_t)^2 <=
    sigma_h(target) * (B^(h)^-1)_tt, outer-rounded.  The depth-first search
    adds one term d_t (x_t + l_t)^2 per node to the partial sum P and prunes
    when target - P is not totally nonnegative; the last coordinate is
    solved as x = +-sqrt(4 d (target - P))/(2 d) - l rather than enumerated.
    """
    D = form.D
    if target.D != D:
        raise ValueError("target field mismatch")
    factor = _form_factor(form)
    if factor is None:
        raise ValueError("form is not totally positive definite")
    if not target.is_totally_positive():
        raise ValueError("target must be totally positive")
    U, d, binv = factor
    n = form.n
    tgt = _elem_to_qd(target)
    # per-coordinate boxes
    def coordinate_box(t: int) -> Tuple[Fraction, Fraction]:
        th1 = (tgt * binv[t]).upper_frac(24)
        th2 = (tgt.conj() * binv[t].conj()).upper_frac(24)
        return (frac_sqrt_outer(max(th1, Fraction(0)), 24),
                frac_sqrt_outer(max(th2, Fraction(0)), 24))

    # coordinates with the same box share one enumeration (and one list)
    by_box: Dict[Tuple[Fraction, Fraction], List[Tuple[QuadElem, QD]]] = {}
    candidates: List[List[Tuple[QuadElem, QD]]] = []
    for t in range(n):
        box = coordinate_box(t)
        if box not in by_box:
            elems = [coords_to_elem(D, x, y) for x, y in box_enumerate(D, *box)]
            elems.sort(key=lambda c: ((c * c).trace(), c.a, c.b))
            by_box[box] = [(c, _elem_to_qd(c)) for c in elems]
        candidates.append(by_box[box])

    nodes = 0

    def dfs(t: int, head: List[Tuple[QuadElem, QD]], P: QD):
        nonlocal nodes
        l = sum((U[j][t] * head[j][1] for j in range(t)), QD(D, 0))
        if t == n - 1:
            nodes += 1
            # 4 d (target - P) is the discriminant of Q(head, x) = target in x;
            # which of its two roots sqrt_in_field returns fixes the vector
            root = sqrt_in_field((tgt - P) * d[t] * 4)
            if root is None:
                return None
            for rt in (root, -root):
                el = _qd_to_elem(rt / (d[t] * 2) - l)
                if el is not None:
                    vec = tuple(c for c, _ in head) + (el,)
                    assert form.evaluate(vec) == target
                    return vec
            return None
        for cand in candidates[t]:
            nodes += 1
            z = cand[1] + l
            Pc = P + d[t] * z * z
            rem = tgt - Pc
            if rem.sign() < 0 or rem.conj().sign() < 0:
                continue
            got = dfs(t + 1, head + [cand], Pc)
            if got is not None:
                return got
        return None

    vec = dfs(0, [], QD(D, 0))
    counts = tuple(len(c) for c in candidates)
    if vec is not None:
        return RepresentResult("found", vec, counts, nodes)
    # recompute the exhaustion bounds before declaring impossibility
    recheck = tuple(len(box_enumerate(D, *coordinate_box(t))) for t in range(n))
    assert recheck == counts
    return RepresentResult("impossible", None, counts, nodes)


# ---------------------------------------------------------------------------
# form parsing: "a11 x1^2 + a12 x1 x2 + ..."
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coef>.*?)\s*\*?\s*x(?P<v1>\d+)\s*(?:(?P<sq>\^\s*2)|\*?\s*x(?P<v2>\d+))$"
)


def _split_terms(text: str) -> List[Tuple[int, str]]:
    """(sign, term) pairs split at top-level signs; a sign with no term after
    it raises ValueError, so a truncated form never parses as another."""
    terms = []
    depth = 0
    cur = []
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and "".join(cur).strip():
            terms.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        elif depth == 0 and ch in "+-" and not "".join(cur).strip():
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur.append(ch)
    if "".join(cur).strip():
        terms.append((sign, "".join(cur).strip()))
    elif text.strip():  # only whitespace after the last top-level sign
        raise ValueError(f"form ends in a sign with no term after it: {text!r}")
    return terms


def parse_form(text: str, D: int) -> QuadraticForm:
    """Parse the mini-grammar "a11 x1^2 + a12 x1 x2 + ..." over Q(sqrt(D)).

    Coefficients use the textual element format (or plain integers) and
    default to 1; variables are x1, x2, ...; every term must be quadratic
    (xi^2 or xi xj).
    """
    coeffs: Dict[Tuple[int, int], QuadElem] = {}
    n = 0
    for sign_, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse form term {term!r}")
        v1 = int(m.group("v1"))
        v2 = int(m.group("v2")) if m.group("v2") else v1
        i, j = min(v1, v2), max(v1, v2)
        if i < 1:
            raise ValueError(f"variables are x1, x2, ...: {term!r}")
        coef_text = m.group("coef").strip().rstrip("*").strip()
        if not coef_text:
            c = QuadElem(D, 1, 0)
        elif re.fullmatch(r"[+-]?\d+", coef_text):
            c = QuadElem(D, int(coef_text), 0)
        else:
            # compound coefficients must be parenthesized to survive term
            # splitting; a bare "(...)" wrapper is not part of the element
            # format and is peeled here
            if coef_text.startswith("(") and coef_text.endswith(")"):
                depth = 0
                wrapper = True
                for pos, ch in enumerate(coef_text):
                    depth += (ch == "(") - (ch == ")")
                    if depth == 0 and pos < len(coef_text) - 1:
                        wrapper = False
                        break
                if wrapper:
                    coef_text = coef_text[1:-1]
            c = parse_elem(coef_text, D)
        if sign_ < 0:
            c = -c
        if (i, j) in coeffs:
            coeffs[(i, j)] = coeffs[(i, j)] + c
        else:
            coeffs[(i, j)] = c
        n = max(n, j)
    if n == 0:
        raise ValueError("empty form")
    cleaned = tuple(
        (i, j, c) for (i, j), c in sorted(coeffs.items()) if not (c.a == 0 and c.b == 0)
    )
    return QuadraticForm(D=D, n=n, coeffs=cleaned)
