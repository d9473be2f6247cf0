"""Per-layer metrics computed from the spans of one traced pass.

LAYER_METRICS is the layer -> end-to-end map: for each per-layer metric,
its unit, whether it is a work counter (counters must repeat exactly from
pass to pass), the end-to-end metric it should move and the workloads it
moves it on.  The self test checks that it names every per-layer metric in
BENCHMARK.json.
"""

from __future__ import annotations

from spans import self_times

LAYERS = ("friesen", "contfrac", "qarith", "certify", "latbox", "qd", "verify",
          "smallnorm", "kernels")

CERT = ("cert-m2", "cert-m3")
SWEEP = ("smallnorm-sweep",)
REPRESENT = ("represent-c8",)

# name: (unit, is_counter, end-to-end metric it should move, workloads)
LAYER_METRICS = {
    "qarith.squarefree_gen_s": ("s", False, "make_ms", CERT),
    "qarith.squarefree_gen_calls": ("count", True, "make_ms", CERT),
    "certify.k_accept_ratio": ("ratio", True, "make_ms", CERT),
    "qarith.squarefree_ver_s": ("s", False, "check_ms", CERT),
    "latbox.enum_s": ("s", False, "make_ms", CERT + REPRESENT),
    "latbox.doubling_s": ("s", False, "make_ms", CERT),
    "latbox.scan_s": ("s", False, "make_ms", CERT + REPRESENT),
    "latbox.scan_boxes": ("count", True, "make_ms", CERT + REPRESENT),
    "latbox.gauss_s": ("s", False, "make_ms", CERT),
    "latbox.gauss_boxes": ("count", True, "make_ms", CERT),
    "latbox.candidates": ("count", True, "make_ms", CERT + REPRESENT),
    "qarith.succeq_calls": ("count", True, "make_ms", CERT),
    "qarith.succeq_s": ("s", False, "make_ms", CERT),
    "verify.enum_s": ("s", False, "check_ms", CERT),
    "verify.enum_boxes": ("count", True, "check_ms", CERT),
    "verify.candidates": ("count", True, "check_ms", CERT),
    "verify.self_s": ("s", False, "check_ms", CERT),
    "qd.sqrt_in_field_s": ("s", False, "make_ms", REPRESENT),
    "qd.sqrt_in_field_calls": ("count", True, "make_ms", REPRESENT),
    "certify.represent_nodes": ("count", True, "make_ms", REPRESENT),
    "certify.represent_candidates": ("count", True, "make_ms", REPRESENT),
    "certify.represent_self_s": ("s", False, "make_ms", REPRESENT),
    "smallnorm.naive_s": ("s", False, "ops_per_s", SWEEP),
    "smallnorm.window_s": ("s", False, "ops_per_s", SWEEP),
    "smallnorm.audit_self_s": ("s", False, "make_ms", SWEEP),
    "kernels.naive_s": ("s", False, "ops_per_s", SWEEP),
    "kernels.window_s": ("s", False, "ops_per_s", SWEEP),
    "smallnorm.elements": ("count", True, "ops_per_s", SWEEP),
    "friesen.construct_s": ("s", False, "make_ms", CERT),
    "friesen.derive_D_s": ("s", False, "make_ms", CERT),
    "friesen.derive_D_calls": ("count", True, "make_ms", CERT),
    "contfrac.expand_s": ("s", False, "make_ms", CERT + SWEEP),
    "certify.witness_s": ("s", False, "make_ms", CERT),
}
for _layer in LAYERS:
    LAYER_METRICS.setdefault(f"{_layer}.self_s", ("s", False, "ops_per_s",
                                                  CERT + SWEEP + REPRESENT))
LAYER_METRICS["trace.spans"] = ("count", True, None, ())
LAYER_METRICS["trace.overhead_s"] = ("s", False, None, ())

COUNTERS = tuple(n for n, (_, is_counter, _, _) in LAYER_METRICS.items() if is_counter)


def pass_metrics(spans, op_kinds):
    """Every per-layer metric except trace.overhead_s, for one pass.

    op_kinds maps each op id to its kind; the k-search figures count only
    squarefree tests made while building the measured certificate, not the
    negative control's.
    """
    selfs = self_times(spans)
    total, own, count, sums = {}, {}, {}, {}
    for _, sid, _, name, t0, t1, attrs in spans:
        total[name] = total.get(name, 0) + (t1 - t0)
        own[name] = own.get(name, 0) + selfs[sid]
        count[name] = count.get(name, 0) + 1
        for key, value in (attrs or {}).items():
            if isinstance(value, int):
                sums[name, key] = sums.get((name, key), 0) + value
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, ns in own.items():
        layer_self[name.split(".", 1)[0]] += ns

    # the second certify.box span inside a pair is its doubling audit
    doubling_boxes = set()
    boxes_seen = {}
    for span in sorted(spans, key=lambda s: s[4]):
        if span[3] == "certify.box":
            k = boxes_seen.get(span[2], 0)
            boxes_seen[span[2]] = k + 1
            if k >= 1:
                doubling_boxes.add(span[1])
    doubling_ns = sum(t1 - t0 for _, _, parent, name, t0, t1, _ in spans
                      if name == "latbox.enum" and parent in doubling_boxes)

    k_tested = k_accepted = 0
    sf_gen_ns = 0
    for op, _, _, name, t0, t1, attrs in spans:
        if name == "qarith.squarefree_gen" and op_kinds[op] == "certify":
            k_tested += 1
            k_accepted += attrs["verdict"] != "not-squarefree"
            sf_gen_ns += t1 - t0

    def sec(name, times=total):
        return times.get(name, 0) / 1e9

    def n(name, key="n"):
        return sums.get((name, key), 0)

    out = {
        "qarith.squarefree_gen_s": sf_gen_ns / 1e9,
        "qarith.squarefree_gen_calls": k_tested,
        "certify.k_accept_ratio": k_accepted / k_tested if k_tested else 0.0,
        "qarith.squarefree_ver_s": sec("qarith.squarefree_ver"),
        "latbox.enum_s": sec("latbox.enum"),
        "latbox.doubling_s": doubling_ns / 1e9,
        "latbox.scan_s": sec("latbox.scan"),
        "latbox.scan_boxes": count.get("latbox.scan", 0),
        "latbox.gauss_s": sec("latbox.gauss"),
        "latbox.gauss_boxes": count.get("latbox.gauss", 0),
        "latbox.candidates": n("latbox.enum"),
        "qarith.succeq_calls": count.get("qarith.succeq", 0),
        "qarith.succeq_s": sec("qarith.succeq"),
        "verify.enum_s": sec("verify.enum"),
        "verify.enum_boxes": count.get("verify.enum", 0),
        "verify.candidates": n("verify.enum"),
        "qd.sqrt_in_field_s": sec("qd.sqrt_in_field"),
        "qd.sqrt_in_field_calls": count.get("qd.sqrt_in_field", 0),
        "certify.represent_nodes": n("certify.represent", "nodes"),
        "certify.represent_candidates": n("certify.represent"),
        "certify.represent_self_s": sec("certify.represent", own),
        "smallnorm.naive_s": sec("smallnorm.naive"),
        "smallnorm.window_s": sec("smallnorm.window"),
        "smallnorm.audit_self_s": sec("smallnorm.audit", own),
        "kernels.naive_s": sec("kernels.naive"),
        "kernels.window_s": sec("kernels.window"),
        "smallnorm.elements": n("smallnorm.window"),
        "friesen.construct_s": sec("friesen.construct"),
        "friesen.derive_D_s": sec("friesen.derive_D"),
        "friesen.derive_D_calls": count.get("friesen.derive_D", 0),
        "contfrac.expand_s": sec("contfrac.expand"),
        "certify.witness_s": sec("certify.witness"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return out
