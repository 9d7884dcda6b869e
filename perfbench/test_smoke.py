"""Smoke tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import ast
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import workspaces  # noqa: E402
from workspaces import Member  # noqa: E402

TINY_ROTATION = (Member(("t1", "t2"), 3, 2), Member(("t1", "t1", "t2"), 2, 2))


def tiny(workload, seed=7):
    if workload == "worked-check":
        return [dataclasses.replace(ws, bound=5) for ws in workspaces.worked(seed)]
    if workload == "rotation-check":
        return workspaces.rotation(seed, TINY_ROTATION)
    return workspaces.quadratic(seed, n=6)


@pytest.mark.parametrize("workload", sorted(workspaces.WORKLOADS))
def test_workload_passes_its_checks_at_a_tiny_size(workload):
    spaces = tiny(workload)
    expected, errors = workloads.validate(workload, spaces)
    assert errors == []
    assert workloads.operation(workload, spaces) == expected
    assert tracing.Tracer().operation(workload, spaces) == expected


# Each alteration changes what ttc computes but not the reference semantics,
# which is built from the unaltered specs. The last field says whether the
# verdict or output of an operation changes too, so that the check made on
# every timed operation sees it; a check verdict does not show output values.
ALTERED = [
    # the worked pair's e leaves turn into d
    ("worked-check", r"(q\d\d\(e\) -> )e;", r"\1d;", False),
    # the worked pair loses the rule that deletes s1, and f(s1,d) its output
    ("worked-check", r" \| q\d\d\(x2\)", "", True),
    # T1 no longer copies d into two outputs, so the chains become functional
    ("rotation-check", r"d \| e;", "d;", True),
    # the identity automaton rewrites e to a(e)
    ("quadratic-chain", r"(u\d\d\(e\) -> )e;", r"\1a(e);", True),
]


@pytest.mark.parametrize("workload,pattern,repl,op_differs", ALTERED)
def test_checks_reject_an_altered_output(workload, pattern, repl, op_differs):
    spaces = tiny(workload)
    expected, errors = workloads.validate(workload, spaces)
    assert errors == []
    altered = [dataclasses.replace(ws, text=re.sub(pattern, repl, ws.text)) for ws in spaces]
    assert all(a.text != ws.text for a, ws in zip(altered, spaces))
    _, errors = workloads.validate(workload, altered)
    assert errors
    assert (workloads.operation(workload, altered) != expected) == op_differs


def test_calibration_kernel_imports_nothing_from_ttc():
    with open(os.path.join(HERE, "calib.py")) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"gc", "time"}
    code = "import sys, calib; calib.kernel_ms(); print(sorted(m for m in sys.modules if m.split('.')[0] == 'ttc'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(20) == 50
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 90) == 90.0


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workspaces.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "latency_norm_ms.p50", "latency_norm_ms.tail", "peak_mem_mb"}


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_layer_and_self_times_sum():
    out = _run(ROOT, "--workload", "rotation-check", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(tracing.PER_LAYER)
    self_sum = sum(metrics[m]["value"] for m in tracing.SPAN_METRICS.values())
    assert self_sum == pytest.approx(metrics["trace.op_ms"]["value"], rel=1e-9)


def test_self_time_check_rejects_children_that_outlast_their_span():
    spans = [
        {"name": "constructions.build_m", "ms": 2.0, "children_ms": 2.5},
        {"name": "constructions.hat", "ms": 2.5, "children_ms": 0.0},
    ]
    assert run.self_time_errors(spans, glue_ms=0.1, op_ms=10.0)
    spans[0]["children_ms"] = 1.5
    assert run.self_time_errors(spans, glue_ms=0.1, op_ms=10.0) == []
    assert run.self_time_errors(spans, glue_ms=1.0, op_ms=10.0)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(tmp_path, "--workload", "worked-check", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
