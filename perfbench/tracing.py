"""Per-layer trace of one operation.

The traced operation does what ``workloads.operation`` does, rebuilt from the
library's public functions so that a span can be put around each call into a
layer:

* ``decide_functionality`` becomes ``reduce_chain`` (rebuilt from
  ``build_m``, ``decompose_la`` and ``compose_linear_nondeleting``) while the
  chain is longer than two, then ``build_m``, then ``enumerate_domain`` and
  ``translate_la`` per input up to the first input with two outputs;
* the sub-steps of ``build_m`` are taken from the library's own
  ``BuildReport.stats["elapsed_ms"]``;
* ``chain_outputs`` becomes one ``translate`` span per stage.

A span's self time is its duration minus that of its child spans, so the
self times of one operation sum to its duration. Spans live in memory and
are written out when the run ends. Everything runs in one thread, with no
queue, so no layer waits and no waiting time is reported.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager

from ttc import (
    CompositionChain,
    build_m,
    compose_linear_nondeleting,
    decompose_la,
    parse_tree,
    parse_workspace,
    sort_trees,
)
from ttc.decision import DEFAULT_OUTPUT_CAP

import workspaces
from workloads import CHECK_WORKLOADS, CheckResult

# build_m's report labels, as layers
STEP_LAYERS = {
    "domain-automaton": "constructions.domain_automaton",
    "restricted-first": "constructions.hat",
    "triple-product": "constructions.product_n",
    "look-ahead-automaton": "constructions.la_automaton",
    "look-ahead-transducer": "machines.trim",
}

# span name -> per-layer metric of its self time
SPAN_METRICS = {
    "bench.op": "bench.op_self_ms",
    "textform.parse": "textform.parse_ms",
    "trees.parse_tree": "trees.parse_tree_ms",
    "constructions.reduce_chain": "constructions.reduce_chain_ms",
    "constructions.decompose_la": "constructions.decompose_la_ms",
    "constructions.fuse": "constructions.fuse_ms",
    "constructions.build_m": "constructions.build_m_ms",
    **{layer: layer + "_ms" for layer in STEP_LAYERS.values()},
    "machines.enumerate": "machines.enumerate_ms",
    "machines.translate_la": "machines.translate_la_ms",
    "machines.translate.stage1": "machines.translate_ms.stage1",
    "machines.translate.stage2": "machines.translate_ms.stage2",
}

COUNTS = (
    "constructions.la_automaton.rules",
    "machines.trim.states_before",
    "machines.trim.states_after",
    "m.base.rules",
    "m.la.states",
    "machines.enumerate.inputs",
    "decision.inputs_checked",
    "machines.translate_la.outputs",
    "trees.output_nodes",
    "runtime.gc_collections",
)

# span name -> memory phase; phases never nest
MEMORY_PHASES = {
    "constructions.build_m": "constructions.build_m.peak_mb",
    "machines.enumerate": "machines.enumerate.peak_mb",
    "machines.translate_la": "machines.translate.peak_mb",
    "machines.translate.stage1": "machines.translate.peak_mb",
    "machines.translate.stage2": "machines.translate.peak_mb",
}

# every per-layer metric a traced run prints, with its unit; a layer that a
# workload does not run reads 0
PER_LAYER = (
    [(metric, "ms") for metric in SPAN_METRICS.values()]
    + [
        ("constructions.la_automaton.rules", "count"),
        ("machines.trim.kept_ratio", "ratio"),
        ("m.base.rules", "count"),
        ("m.la.states", "count"),
        ("machines.enumerate.inputs", "count"),
        ("decision.inputs_checked", "count"),
        ("decision.used_ratio", "ratio"),
        ("machines.translate_la.outputs", "count"),
        ("trees.output_nodes", "count"),
        ("runtime.gc_pause_ms", "ms"),
        ("runtime.gc_collections", "count"),
        ("constructions.build_m.peak_mb", "MB"),
        ("machines.enumerate.peak_mb", "MB"),
        ("machines.translate.peak_mb", "MB"),
        ("calibration_ms", "ms"),
        ("raw_ms", "ms"),
        ("trace.op_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)


class Tracer:
    """Spans and counts of traced operations, kept in memory.

    With ``memory=True`` it instead records the tracemalloc peak of each
    memory phase, above the memory in use when the phase began; tracemalloc
    must then be running.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.peaks: dict[str, float] = {}
        self._stack: list[dict] = []
        self._gc_start = 0.0
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        phase = MEMORY_PHASES.get(name) if self.memory else None
        if phase:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec = {"name": name, "op": len(self.counts) - 1, "children_ms": 0.0}
        if self._stack:
            rec["parent"] = self._stack[-1]["id"]
        rec["id"] = len(self.spans)
        self.spans.append(rec)
        self._stack.append(rec)
        start = time.perf_counter()
        rec["start_ms"] = (start - self._t0) * 1000.0
        try:
            yield
        finally:
            end = time.perf_counter()
            rec["end_ms"] = (end - self._t0) * 1000.0
            rec["ms"] = (end - start) * 1000.0
            self._stack.pop()
            if self._stack:
                self._stack[-1]["children_ms"] += rec["ms"]
            if phase:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[phase] = max(self.peaks.get(phase, 0.0), peak)

    def step(self, name: str, ms: float):
        """A child span of the current span whose duration the library
        measured; it has no start or end of its own."""
        parent = self._stack[-1]
        self.spans.append({"name": name, "op": len(self.counts) - 1, "id": len(self.spans),
                           "parent": parent["id"], "ms": ms, "children_ms": 0.0})
        parent["children_ms"] += ms

    def count(self, name: str, n: int):
        self.counts[-1][name] += n

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts[-1]["runtime.gc_collections"] += 1
            self.counts[-1]["runtime.gc_pause_ms"] += (time.perf_counter() - self._gc_start) * 1000.0

    def operation(self, workload: str, spaces):
        """One traced operation; returns the same result as the untraced one."""
        self.counts.append(dict.fromkeys(COUNTS, 0) | {"runtime.gc_pause_ms": 0.0})
        gc.callbacks.append(self._gc)
        try:
            with self.span("bench.op"):
                if workload in CHECK_WORKLOADS:
                    return tuple(self._check(ws) for ws in spaces)
                return tuple(self._run(ws) for ws in spaces)
        finally:
            gc.callbacks.remove(self._gc)

    def _build_m(self, t1, t2):
        with self.span("constructions.build_m"):
            m, reports = build_m(t1, t2)
            for r in reports:
                self.step(STEP_LAYERS[r.label], r.stats["elapsed_ms"])
        steps = {r.label: r for r in reports}
        self.count("constructions.la_automaton.rules", len(steps["look-ahead-automaton"].machine.rules))
        self.count("machines.trim.states_before", steps["look-ahead-transducer"].states_before)
        self.count("machines.trim.states_after", steps["look-ahead-transducer"].states_after)
        self.count("m.base.rules", len(m.base.rules))
        self.count("m.la.states", len(m.la.states))
        return m

    def _check(self, ws) -> CheckResult:
        with self.span("textform.parse"):
            parsed = parse_workspace(ws.text)
        chain = parsed.chains[ws.chain]
        while len(chain) > 2:
            with self.span("constructions.reduce_chain"):
                stages = chain.stages
                m = self._build_m(stages[-2], stages[-1])
                with self.span("constructions.decompose_la"):
                    relabeling, reader = decompose_la(m)
                with self.span("constructions.fuse"):
                    fused = compose_linear_nondeleting(stages[-3], relabeling)
                chain = CompositionChain(stages[:-3] + (fused, reader))
        m = self._build_m(*chain.stages)
        with self.span("machines.enumerate"):
            candidates = m.enumerate_domain(ws.bound)
        self.count("machines.enumerate.inputs", len(candidates))
        checked = outputs = 0
        cex = None
        with self.span("machines.translate_la"):
            for s in candidates:
                outs = m.translate_la(s, cap=DEFAULT_OUTPUT_CAP)
                checked += 1
                outputs += len(outs)
                if len(outs) > 1:
                    cex = (s, sort_trees(outs)[:2])
                    break
        self.count("decision.inputs_checked", checked)
        self.count("machines.translate_la.outputs", outputs)
        if cex is None:
            return CheckResult("functional-up-to-bound", checked, None, frozenset())
        return CheckResult("not-functional", checked, cex[0].text, frozenset(t.text for t in cex[1]))

    def _run(self, ws) -> frozenset:
        with self.span("textform.parse"):
            parsed = parse_workspace(ws.text)
        chain = parsed.chains[ws.chain]
        text = workspaces.spine(ws.bound)
        with self.span("trees.parse_tree"):
            tree = parse_tree(text, chain.stages[0].input_alphabet)
        outs = frozenset((tree,))
        for i, stage in enumerate(chain, start=1):
            with self.span("machines.translate.stage%d" % i):
                step = set()
                for t in outs:
                    step |= stage.translate(t, cap=DEFAULT_OUTPUT_CAP)
                outs = frozenset(step)
        self.count("trees.output_nodes", sum(t.size for t in outs))
        return frozenset(t.text for t in outs)

    # -- summary --------------------------------------------------------------

    def op_ms(self) -> list[float]:
        return [s["ms"] for s in self.spans if s["name"] == "bench.op"]

    def layer_means(self) -> dict[str, float]:
        """Per-operation mean of each layer's self time and of each count."""
        ops = len(self.counts)
        out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for s in self.spans:
            out[SPAN_METRICS[s["name"]]] += (s["ms"] - s["children_ms"]) / ops
        for name in self.counts[0]:
            out[name] = sum(c[name] for c in self.counts) / ops
        return out
