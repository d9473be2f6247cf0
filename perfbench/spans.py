"""In-memory span tracer that wraps quadcert's module-level bindings.

Spans are recorded at layer boundaries by replacing the module attribute a
caller looks up (for example ``certify.squarefree_status``, the binding
``build_certificate`` calls) with a wrapper.  Nothing in the library is
edited; ``uninstall`` puts the original functions back, so untraced runs
execute the unmodified code.

A span is ``(op, span_id, parent_id, name, t0_ns, t1_ns, attrs)``.  ``op``
is the benchmark operation the span belongs to; spans of one operation share
it.  A span's name is ``<layer>.<entry point>``, where the layer is the
quadcert module the traced function lives in.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

# (module the binding is looked up in, attribute, span name, result counter).
# The counter maps a call's result to the span's attributes.
BINDINGS = (
    ("certify", "build_certificate", "certify.build", None),
    ("certify", "construct_sequence", "friesen.construct", None),
    ("certify", "derive_D", "friesen.derive_D", None),
    ("certify", "expand_sqrt", "contfrac.expand", None),
    ("friesen", "expand_sqrt", "contfrac.expand", None),
    ("smallnorm", "expand_sqrt", "contfrac.expand", None),
    ("certify", "squarefree_status", "qarith.squarefree_gen",
     lambda r: {"verdict": r.verdict}),
    ("verify", "squarefree_status", "qarith.squarefree_ver", None),
    ("certify", "select_witnesses", "certify.witness", None),
    ("certify", "pair_refute", "certify.pair", None),
    ("certify", "_box_violators", "certify.box", None),
    ("certify", "succeq", "qarith.succeq", None),
    ("certify", "box_enumerate", "latbox.enum", lambda r: {"n": len(r)}),
    ("latbox", "box_enumerate_scan", "latbox.scan", lambda r: {"n": len(r)}),
    ("latbox", "box_enumerate_gauss", "latbox.gauss", lambda r: {"n": len(r)}),
    ("certify", "decide_represent", "certify.represent",
     lambda r: {"nodes": r.nodes_visited,
                "n": sum(r.candidates_per_coordinate)}),
    ("certify", "sqrt_in_field", "qd.sqrt_in_field", None),
    ("verify", "verify_certificate", "verify.certificate", None),
    ("verify", "_vbox_enumerate", "verify.enum", lambda r: {"n": len(r)}),
    ("smallnorm", "audit_lemma", "smallnorm.audit", None),
    ("smallnorm", "enumerate_small_norm", "smallnorm.window", lambda r: {"n": len(r)}),
    ("smallnorm", "naive_enumerate", "smallnorm.naive", lambda r: {"n": len(r)}),
    ("_kernels", "smallnorm_naive_i64", "kernels.naive", None),
    ("_kernels", "smallnorm_window_i64", "kernels.window", None),
    ("_kernels", "trial_square_scan_i64", "kernels.trial_scan", None),
    ("_kernels", "surd_period_i64", "kernels.surd_period", None),
)


class Tracer:
    """Records spans while installed; single-threaded by construction."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._saved = []

    def install(self):
        for mod_name, attr, name, counter in BINDINGS:
            mod = importlib.import_module(f"quadcert.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, fn, name, counter):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            spans.append((self.op, sid, parent, name, t0, t1,
                          counter(result) if counter else None))
            return result

        return traced

    def write_jsonl(self, path, op_kinds):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1, attrs in self.spans:
                rec = {"op": op, "op_kind": op_kinds[op], "id": sid, "parent": parent,
                       "name": name, "start_ns": t0, "end_ns": t1}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per-span self time in ns: duration minus that of direct children.

    Children of one span never overlap, since calls nest on one thread.
    """
    child_ns = {}
    for _, _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    return {sid: (t1 - t0) - child_ns.get(sid, 0) for _, sid, _, _, t0, t1, _ in spans}
