"""Command-line front end.

Subcommands: cf, friesen-check, friesen-search, construct, certify, verify,
smallnorm, power-trace, represent, tp-list.  Every subcommand takes --json;
JSON output echoes the effective configuration, is canonically sorted, and
is independent of --threads, which only certify uses.  Exit codes: 0
success/accepted, 1 rejected (verify), 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from .certify import (
    build_certificate,
    decide_represent,
    pair_refute,
    parse_form,
    totally_positive_up_to,
)
from .contfrac import bound_checks_stream, expand_sqrt
from .friesen import SymSequence, construct_sequence, parity_condition, search_k
from .qarith import QuadElem, format_elem, parse_elem, squarefree_status
from .smallnorm import audit_lemma, classify_elements, enumerate_small_norm, power_trace
from .verify import MalformedCertificate, verify_file


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("QUADCERT_THREADS", "1")))
    except ValueError:
        return 1


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        payload["config"] = {
            "command": args.command,
            "threads": args.threads,
            "factor_budget": args.factor_budget,
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_sf_mode(text: str):
    if text == "exact":
        return "exact", 10 ** 7
    if text.startswith("probable"):
        bound = 10 ** 7
        if ":" in text:
            bound = int(text.split(":", 1)[1])
        return "probable", bound
    raise argparse.ArgumentTypeError(f"bad squarefree mode {text!r}")


def _parse_krange(text: str):
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def cmd_cf(args) -> int:
    e = expand_sqrt(args.D)
    n = args.terms if args.terms else 2 * e.s
    rows = []
    for c, fb, nb in bound_checks_stream(e, n):
        rows.append({
            "i": c.i, "p": str(c.p), "q": str(c.q),
            "norm": str(nb.norm),
            "fraction_bounds": [fb.lower_holds, fb.upper_holds],
            "norm_bounds": [nb.lower_holds, nb.upper_holds],
        })
    payload = {
        "D": str(args.D), "k": str(e.k), "period": [str(u) for u in e.period],
        "s": e.s, "r": e.r, "convergents": rows,
    }
    lines = [f"sqrt({args.D}) = [{e.k}; overline({','.join(map(str, e.period))})]  s={e.s} r={e.r}",
             f"{'i':>4} {'p_i':>24} {'q_i':>20} {'N(alpha_i)':>16} fbounds nbounds"]
    for row in rows:
        lines.append(f"{row['i']:>4} {row['p']:>24} {row['q']:>20} {row['norm']:>16} "
                     f"{str(row['fraction_bounds']):>14} {str(row['norm_bounds'])}")
    _emit(args, payload, lines)
    return 0


def cmd_friesen_check(args) -> int:
    seq = SymSequence.parse(args.seq)
    ok = parity_condition(seq)
    payload = {"sequence": [str(u) for u in seq.values], "parity_condition": ok}
    _emit(args, payload, [f"sequence ({seq}) : condition {'holds' if ok else 'fails'}"])
    return 0


def cmd_friesen_search(args) -> int:
    seq = SymSequence.parse(args.seq)
    mode, bound = args.squarefree
    warn = None
    if not parity_condition(seq):
        warn = "parity condition fails: squarefree hits are not guaranteed"
    lo, hi = args.k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warn line above already says it
        hits = search_k(seq, (lo, hi), sf_mode=mode, sf_bound=bound,
                        rho_budget=args.factor_budget)
    payload = {
        "sequence": [str(u) for u in seq.values],
        "k_range": [lo, hi],
        "hits": [
            {"k": str(h.k), "D": str(h.D), "squarefree": h.squarefree.to_json(),
             "roundtrip_verified": h.roundtrip_verified}
            for h in hits
        ],
    }
    if warn:
        payload["warning"] = warn
    lines = ([warn] if warn else []) + [
        f"k={h.k} D={h.D} {h.squarefree.verdict}" for h in hits
    ] + [f"{len(hits)} hit(s)"]
    _emit(args, payload, lines)
    return 0


def cmd_construct(args) -> int:
    seq = construct_sequence(args.M, args.base)
    payload = {
        "M": args.M, "base": args.base,
        "sequence": [str(u) for u in seq.values],
        "s": seq.s, "r": seq.r,
        "parity_condition": parity_condition(seq),
    }
    _emit(args, payload, [f"s={seq.s} r={seq.r} parity={payload['parity_condition']}",
                          f"({seq})"])
    return 0


def cmd_certify(args) -> int:
    mode, bound = args.squarefree if args.squarefree else (None, 10 ** 7)
    indices = [int(t) for t in args.indices.split(",")] if args.indices else None
    cert = build_certificate(
        args.M, base=args.base, k_search=args.k_search,
        sf_mode=mode, sf_bound=bound, rho_budget=args.factor_budget,
        force_D=args.force_D, indices=indices, threads=args.threads,
    )
    text = cert.dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    payload = cert.to_json()
    lines = [cert.conclusion_text()]
    if args.output:
        lines.append(f"certificate written to {args.output}")
    else:
        lines.append(text)
    _emit(args, payload, lines)
    return 0 if cert.soundness != "refuted" else 1


def _malformed(args, reason: str) -> int:
    _emit(args, {"verdict": "malformed", "reason": reason}, [f"MALFORMED: {reason}"])
    return 2


def cmd_verify(args) -> int:
    try:
        verdict = verify_file(args.certificate)
    except MalformedCertificate as exc:
        return _malformed(args, str(exc))
    except (OSError, UnicodeDecodeError) as exc:
        return _malformed(args, f"cannot read certificate: {exc}")
    if verdict.accepted:
        _emit(args, {"verdict": "accepted"}, ["ACCEPTED"])
        return 0
    _emit(args, {"verdict": "rejected", "reason": verdict.reason},
          [f"REJECTED: {verdict.reason}"])
    return 1


def cmd_smallnorm(args) -> int:
    bound = {"half": Fraction(1, 2), "eighth": Fraction(1, 8)}[args.bound]
    elems = classify_elements(args.D, enumerate_small_norm(args.D, bound, args.y_max))
    audit = audit_lemma(args.D, args.y_max)
    payload = {
        "D": str(args.D), "bound": args.bound, "y_max": args.y_max,
        "elements": [
            {"x": str(e.mu.a), "y": str(e.mu.b), "den": e.mu.den,
             "norm": str(e.norm),
             "match": None if e.classified_as is None else {
                 "i": e.classified_as.index,
                 "multiplier": str(e.classified_as.multiplier),
             }}
            for e in elems
        ],
        "audit_all_matched": audit.all_matched,
    }
    lines = [
        f"{format_elem(e.mu)}  norm {e.norm}"
        + (f"  = {e.classified_as.multiplier} * alpha_{e.classified_as.index}"
           if e.classified_as else "")
        for e in elems
    ]
    lines.append(f"{len(elems)} element(s); lemma audit "
                 f"{'all matched' if audit.all_matched else 'UNMATCHED PRESENT'}")
    _emit(args, payload, lines)
    return 0


def cmd_power_trace(args) -> int:
    e = expand_sqrt(args.D)
    rep = power_trace(e, args.i, args.m)
    payload = {
        "D": str(args.D), "i": args.i, "m": args.m,
        "power": format_elem(rep.power),
        "primitive": rep.primitive,
        "norm_ok": rep.norm_ok,
        "located_index": rep.located_index,
        "u_at_j": rep.u_at_j,
    }
    lines = [f"alpha_{args.i}^{args.m} = {format_elem(rep.power)}",
             f"primitive={rep.primitive} norm_ok={rep.norm_ok} "
             f"located_index={rep.located_index} u_at_j={rep.u_at_j}"]
    _emit(args, payload, lines)
    return 0


def cmd_represent(args) -> int:
    form = parse_form(args.form, args.D)
    target = parse_elem(args.target, args.D)
    res = decide_represent(form, target)
    payload = {
        "D": str(args.D), "form": args.form, "target": format_elem(target),
        "status": res.status,
        "vector": [format_elem(v) for v in res.vector] if res.vector else None,
        "candidates_per_coordinate": list(res.candidates_per_coordinate),
        "nodes_visited": res.nodes_visited,
    }
    if res.status == "found":
        lines = ["found: (" + ", ".join(format_elem(v) for v in res.vector) + ")"]
    else:
        lines = [f"impossible (exhausted {res.candidates_per_coordinate} boxes, "
                 f"{res.nodes_visited} nodes)"]
    _emit(args, payload, lines)
    return 0


def cmd_tp_list(args) -> int:
    elems = totally_positive_up_to(args.D, args.trace)
    payload = {
        "D": str(args.D), "trace_bound": args.trace,
        "elements": [{"elem": format_elem(x), "trace": str(x.trace()),
                      "norm": str(x.norm())} for x in elems],
    }
    lines = [f"{format_elem(x)}  trace {x.trace()} norm {x.norm()}" for x in elems]
    lines.append(f"{len(elems)} element(s)")
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadcert",
        description="continued fractions and universal-form exclusion "
                    "certificates over real quadratic fields",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--threads", type=int, default=_default_threads(),
                    help="worker threads for certify's pair checks "
                         "(default from QUADCERT_THREADS)")
    ap.add_argument("--factor-budget", type=int, default=40_000_000,
                    dest="factor_budget", help="rho iteration budget")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued fraction of sqrt(D)")
    p.add_argument("D", type=int)
    p.add_argument("--terms", type=int, default=0)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("friesen-check", help="parity criterion for a symmetric sequence")
    p.add_argument("seq")
    p.set_defaults(fn=cmd_friesen_check)

    p = sub.add_parser("friesen-search", help="k-search for fields with the given period")
    p.add_argument("seq")
    p.add_argument("--k", type=_parse_krange, required=True, metavar="a..b")
    p.add_argument("--squarefree", type=_parse_sf_mode, default=("exact", 10 ** 7),
                   metavar="exact|probable:B")
    p.set_defaults(fn=cmd_friesen_search)

    p = sub.add_parser("construct", help="symmetric sequence for rank exclusion")
    p.add_argument("-M", type=int, required=True)
    p.add_argument("--base", choices=("minimal", "threes"), default="minimal")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("certify", help="build a non-universality certificate")
    p.add_argument("-M", type=int, required=True)
    p.add_argument("--base", choices=("minimal", "threes"), default="minimal")
    p.add_argument("--k-search", type=int, default=64, dest="k_search")
    p.add_argument("--squarefree", type=_parse_sf_mode, default=None,
                   metavar="exact|probable:B")
    p.add_argument("--force-D", type=int, default=None, dest="force_D",
                   help="skip construction; certify this field (negative controls)")
    p.add_argument("--indices", default=None, help="comma-separated odd witness indices")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="independently verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("smallnorm", help="enumerate small-norm elements and audit")
    p.add_argument("D", type=int)
    p.add_argument("--bound", choices=("half", "eighth"), default="half")
    p.add_argument("--y-max", type=int, default=100, dest="y_max")
    p.set_defaults(fn=cmd_smallnorm)

    p = sub.add_parser("power-trace", help="alpha_i^m location among convergents")
    p.add_argument("D", type=int)
    p.add_argument("i", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_power_trace)

    p = sub.add_parser("represent", help="decide representability of a target")
    p.add_argument("D", type=int)
    p.add_argument("--form", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("tp-list", help="totally positive integers up to a trace bound")
    p.add_argument("D", type=int)
    p.add_argument("--trace", type=int, required=True)
    p.set_defaults(fn=cmd_tp_list)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
