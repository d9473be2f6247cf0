"""quadcert pipeline benchmark.

    python3 perfbench/run.py --workload cert-m2 --seed 1 --seconds 20 --trace 0

Drives the library in process: one client, closed loop, single-threaded.
Each operation is a ``make`` call followed by an independent ``check`` (see
workloads.py); after one untimed warm-up pass, a run repeats whole passes of
its workload until --seconds have elapsed.  Run from the root of a source checkout; the package is
imported from its ``src`` directory, never from an installed copy.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layer
boundaries (spans.py), alternates untraced and traced passes and prints the
per-layer metrics of layers.py, with the tracing overhead and work counters
that must repeat exactly from pass to pass.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Spans go
to perfbench/out/trace-<workload>-seed<seed>.jsonl and every result is
appended, with its environment, to perfbench/out/ledger.jsonl.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# fresh interpreters per setup_s sample; a single import varies by about 30%
SETUP_SAMPLES = 7
_IMPORT_TIMER = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
                 "t = time.perf_counter()\nimport quadcert\n"
                 "print(time.perf_counter() - t)\n")


def load_package():
    """Import quadcert from this checkout's src, or exit with status 1."""
    init = SRC / "quadcert" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a quadcert source checkout")
    sys.path.insert(0, str(SRC))
    import quadcert

    if Path(quadcert.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported quadcert from {quadcert.__file__}, not {init}")


def measure_setup():
    """Median import time of quadcert over fresh interpreters."""
    def once():
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    once()  # writes the bytecode caches, which a user's install already has
    return statistics.median(once() for _ in range(SETUP_SAMPLES))


def environment():
    import numpy

    from quadcert import _kernels
    from quadcert.certify import build_certificate

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "threads": inspect.signature(build_certificate).parameters["threads"].default,
        "machine": platform.machine(),
    }


class Runner:
    """Runs passes of operations and keeps per-operation timings."""

    def __init__(self):
        self.tracer = None  # set while a traced pass runs
        self.op_kinds = {}
        self.records = []  # (timed, make_s, check_s)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, ops):
        t0 = perf_counter()
        for op in ops:
            op_id = len(self.op_kinds)
            self.op_kinds[op_id] = op.kind
            if self.tracer is not None:
                self.tracer.op = op_id
            self.attempted += 1
            try:
                a = perf_counter()
                made = op.make()
                b = perf_counter()
                errs = op.check(made)
                c = perf_counter()
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                self.failed += 1
                continue
            for err in errs:
                print(f"check failed: {err}", file=sys.stderr)
            self.failed += bool(errs)
            self.records.append((op.timed, b - a, c - b))
        return perf_counter() - t0


def warm_up(runner, ops):
    """One untimed pass, so that one-time costs (imports inside library
    functions, first allocations) are paid before timing; its operations are
    still checked and counted."""
    runner.run_pass(ops)
    runner.records.clear()


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(build, seconds):
    """Untraced run of passes 0, 1, ... until `seconds` have elapsed."""
    runner = Runner()
    warm_up(runner, build(0))
    t0 = perf_counter()
    passes = 0
    elapsed = 0.0
    while passes == 0 or perf_counter() - t0 < seconds:
        elapsed += runner.run_pass(build(passes))
        passes += 1
    timed = [(m, c) for is_timed, m, c in runner.records if is_timed]
    if not timed:
        raise RuntimeError("no operation completed")
    latency = [m + c for m, c in timed]
    # make and check are means: passes mix cheap and costly operations, and
    # a mean weighs each by its cost where a median would pick one of them
    metrics = {
        "ops_per_s": (len(timed) / elapsed, "1/s"),
        "make_ms": (statistics.fmean(m for m, _ in timed) * 1e3, "ms"),
        "check_ms": (statistics.fmean(c for _, c in timed) * 1e3, "ms"),
        "op_ms.p50": (statistics.median(latency) * 1e3, "ms"),
        "op_ms.p90": (p90(latency) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {"passes": passes, "timed_ops": len(timed), "elapsed_s": elapsed}
    return runner, metrics, info


def traced(ops, seconds, trace_path):
    """Alternate untraced and traced runs of one pass; per-layer metrics per pass."""
    from layers import COUNTERS, LAYER_METRICS, pass_metrics
    from spans import Tracer

    tracer = Tracer()
    runner = Runner()
    plain_walls, traced_walls, per_pass = [], [], []
    warm_up(runner, ops)
    t0 = perf_counter()
    while len(per_pass) < 2 or perf_counter() - t0 < seconds:
        runner.tracer = None
        plain_walls.append(runner.run_pass(ops))
        runner.tracer = tracer
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced_walls.append(runner.run_pass(ops))
        finally:
            tracer.uninstall()
        per_pass.append(pass_metrics(tracer.spans[first_span:], runner.op_kinds))

    drift = [n for n in COUNTERS if len({p[n] for p in per_pass}) > 1]
    for name in drift:
        print(f"check failed: counter {name} differs between passes: "
              f"{[p[name] for p in per_pass]}", file=sys.stderr)
    runner.attempted += 1  # the repeat check on the work counters
    runner.failed += bool(drift)

    metrics = {}
    for name, (unit, is_counter, _, _) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif is_counter:
            value = per_pass[0][name]
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    tracer.write_jsonl(trace_path, runner.op_kinds)
    info = {"passes": len(per_pass), "untraced_pass_s": plain_walls,
            "traced_pass_s": traced_walls, "spans": len(tracer.spans)}
    return runner, metrics, info


def named_figures(workload, metrics):
    """The figures each workload is read by, under their workload names."""
    m = {k: v for k, (v, _) in metrics.items()}
    if workload.startswith("cert-"):
        return {"certify_s": m["make_ms"] / 1e3, "verify_s": m["check_ms"] / 1e3}
    if workload == "smallnorm-sweep":
        return {"audit_fields_per_s": m["ops_per_s"]}
    return {"represent_targets_per_s": m["ops_per_s"],
            "represent_ms.p90": m["op_ms.p90"]}


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs of the workload (used by test_selftest.py)")
    args = ap.parse_args(argv)

    load_package()
    env = environment()
    OUT.mkdir(exist_ok=True)
    build = WORKLOADS[args.workload][1]
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        runner, metrics, info = traced(build(args.seed, 0, args.small), args.seconds,
                                       trace_path)
    else:
        setup_s = measure_setup()
        runner, metrics, info = end_to_end(
            lambda index: build(args.seed, index, args.small), args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        info.update(named_figures(args.workload, metrics))
        info.update(setup_s=setup_s, peak_rss_mib=metrics["peak_rss_mib"][0])
    info["failed_frac"] = runner.failed / runner.attempted

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / "ledger.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "small": args.small, "env": env, "info": info,
                             "result": result}) + "\n")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
