"""Benchmark of ttc's functionality check, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload worked-check --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process, one thread, one caller that
starts the next operation when the previous one has returned. Before any
timing the run checks the library's outputs against the benchmark's own
reference semantics (see workloads.py).

With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: import of ttc plus the first parse of the workspace in a
  fresh interpreter, the median of SETUP_PROBES probes;
* ``latency_norm_ms.p50`` and ``.tail``: wall time of one operation, scaled
  to the reference speed of the calibration kernel (calib.py). The tail is
  the highest percentile with at least ten samples beyond it;
* ``peak_mem_mb``: the tracemalloc peak of one operation, measured in a
  separate untimed pass.

With ``--trace 1`` it alternates untraced and traced operations and prints
the per-layer metrics of tracing.py. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 2 when the checkout holds no ttc sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 10
# the library rounds each build_m step to 1 us, so a span whose children are
# such steps may read a few us below them
SELF_TOLERANCE_MS = 0.005
# the largest share of a traced operation that may fall outside the layers'
# spans (the benchmark's own glue, bench.op_self_ms)
GLUE_SHARE = 0.05


def parse_args(argv=None):
    import workspaces

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workspaces.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(n: int) -> int:
    """The highest whole percentile p whose nearest-rank sample has at least
    ten samples above it (p50 when there are too few samples)."""
    p = 99
    while p > 50 and n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p


def percentile(samples: list[float], p: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def measure_setup(spaces) -> tuple[float, list[dict]]:
    """Normalised set-up time in seconds, the median over fresh interpreters."""
    import calib

    texts = "\0".join(ws.text for ws in spaces)
    probes = []
    # the first probe writes the bytecode caches and is not counted
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            input=texts, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_ms, cal_ms = (float(x) for x in out.stdout.split())
        if i:
            probes.append({"setup_ms": setup_ms, "cal_ms": cal_ms})
    norm = [p["setup_ms"] * calib.CAL_REF_MS / p["cal_ms"] for p in probes]
    return statistics.median(norm) / 1000.0, probes


def measure_peak(op) -> float:
    """tracemalloc peak of one operation above the memory in use before it, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        op()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class Loop:
    """Closed-loop timing of operations, each bracketed by calibration runs."""

    def __init__(self, op, expected):
        import calib

        self.calib = calib
        self.op = op
        self.expected = expected
        self.raw_ms: list[float] = []
        self.cal_ms: list[float] = []
        self.norm_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        gc.collect()
        self.cal_before = calib.kernel_ms()

    def once(self):
        t0 = time.perf_counter()
        try:
            result = self.op()
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            result = None
        raw = (time.perf_counter() - t0) * 1000.0
        cal_after = self.calib.kernel_ms()
        cal = (self.cal_before + cal_after) / 2.0
        self.attempted += 1
        if result == self.expected:
            self.raw_ms.append(raw)
            self.cal_ms.append(cal)
            self.norm_ms.append(raw * self.calib.CAL_REF_MS / cal)
        else:
            self.failed += 1
            if result is not None:
                print("output check failed: %r" % (result,), file=sys.stderr)
        gc.collect()
        self.cal_before = cal_after


def timed_run(workload, spaces, expected, seconds):
    import workloads

    op = lambda: workloads.operation(workload, spaces)  # noqa: E731
    setup_s, probes = measure_setup(spaces)
    peak_mb = measure_peak(op)
    loop = Loop(op, expected)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        loop.once()
    samples = loop.norm_ms
    p = tail_percentile(len(samples))
    info = {
        "samples": len(samples),
        "tail_percentile": p,
        "raw_ms.p50": statistics.median(loop.raw_ms) if samples else None,
        "cal_ms.p50": statistics.median(loop.cal_ms) if samples else None,
        "setup_probes": probes,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_norm_ms.p50": (statistics.median(samples) if samples else float("nan"), "ms"),
        "latency_norm_ms.tail": (percentile(samples, p) if samples else float("nan"), "ms"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    return metrics, loop.attempted, loop.failed, info


def traced_run(workload, spaces, expected, seconds):
    import tracing
    import workloads

    untraced = Loop(lambda: workloads.operation(workload, spaces), expected)
    tracer = tracing.Tracer()
    traced_failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.once()
        if tracer.operation(workload, spaces) != expected:
            traced_failed += 1
        gc.collect()
    errors = []
    if traced_failed:
        errors.append("%d traced operations disagree with the untraced result" % traced_failed)

    mem = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        mem.operation(workload, spaces)
    finally:
        tracemalloc.stop()

    layers = tracer.layer_means()
    op_ms = statistics.fmean(tracer.op_ms())
    errors += self_time_errors(tracer.spans, layers["bench.op_self_ms"], op_ms)
    raw_ms = statistics.fmean(untraced.raw_ms) if untraced.raw_ms else float("nan")
    values = dict(layers)
    values["machines.trim.kept_ratio"] = _ratio(layers["machines.trim.states_after"], layers["machines.trim.states_before"])
    values["decision.used_ratio"] = _ratio(layers["decision.inputs_checked"], layers["machines.enumerate.inputs"])
    for phase in set(tracing.MEMORY_PHASES.values()):
        values[phase] = mem.peaks.get(phase, 0.0)
    values["calibration_ms"] = statistics.fmean(untraced.cal_ms) if untraced.cal_ms else float("nan")
    values["raw_ms"] = raw_ms
    values["trace.op_ms"] = op_ms
    values["trace.overhead_pct"] = (op_ms / raw_ms - 1.0) * 100.0
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    info = {"traced_ops": len(tracer.op_ms()), "untraced_ops": untraced.attempted}
    attempted = untraced.attempted + len(tracer.op_ms())
    return metrics, attempted, untraced.failed + traced_failed, info, errors, tracer.spans


def self_time_errors(spans, glue_ms, op_ms) -> list[str]:
    """Faults of the trace's self times: a span whose children outlast it,
    or glue outside the layers' spans that takes more than GLUE_SHARE of an
    operation."""
    errors = []
    negative = [s for s in spans if s["ms"] - s["children_ms"] < -SELF_TOLERANCE_MS]
    if negative:
        errors.append("%d spans have a negative self time, the first: %s %.6f ms with children of %.6f ms" % (
            len(negative), negative[0]["name"], negative[0]["ms"], negative[0]["children_ms"]))
    if glue_ms > GLUE_SHARE * op_ms:
        errors.append("the benchmark's own glue takes %.3f of %.3f ms of a traced operation" % (glue_ms, op_ms))
    return errors


def _ratio(a, b):
    return a / b if b else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ttc", "__init__.py")):
        print("perfbench: no ttc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import workspaces

    spaces = workspaces.WORKLOADS[args.workload](args.seed)
    expected, errors = workloads.validate(args.workload, spaces)
    if args.trace:
        metrics, attempted, failed, info, trace_errors, spans = traced_run(args.workload, spaces, expected, args.seconds)
        errors += trace_errors
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "trace-%s-seed%d.json" % (args.workload, args.seed)), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, f)
    else:
        metrics, attempted, failed, info = timed_run(args.workload, spaces, expected, args.seconds)
    for e in errors:
        print("CHECK FAILED: %s" % e, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
