"""The library leaves nothing for the cyclic garbage collector: an operation
frees what it allocates by reference counting alone, so when a collection
runs, and what a peak-memory reading includes, does not depend on it."""

import gc
import importlib
import pathlib
import sys

from ttc import (
    build_m,
    check_functional_bounded,
    decide_functionality,
    decompose_la,
    parse_tree,
    reduce_chain,
    trace_derivation,
)
from ttc.generate import random_chain3

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def benchmark_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("workspaces")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_operations_leave_no_cyclic_garbage(workspace, quadratic, worked_pair):
    workloads, workspaces = benchmark_modules()
    spaces = {name: make(1) for name, make in sorted(workspaces.WORKLOADS.items())}
    chains = list(workspace.chains.values())
    chain3 = random_chain3(1)
    spine = parse_tree("a(a(e))")
    gc.collect()
    gc.disable()
    try:
        for name, space in spaces.items():
            workloads.operation(name, space)
        for chain in chains:
            decide_functionality(chain, 5)
            check_functional_bounded(chain, 5)
            if len(chain) == 2:
                m, _ = build_m(*chain.stages)
                decompose_la(m)
        reduce_chain(chain3)
        trace_derivation(quadratic, spine)
        trace_derivation(worked_pair[0], parse_tree("f(f(e,d),d)"), branch=1)
        assert gc.collect() == 0
    finally:
        gc.enable()
