"""The library leaves nothing for the cyclic garbage collector: an operation
frees what it allocates by reference counting alone, so when a collection
runs, and what a peak-memory reading includes, does not depend on it."""

import gc

from ttc import (
    build_m,
    check_functional_bounded,
    decide_functionality,
    decompose_la,
    parse_tree,
    parse_workspace,
    reduce_chain,
    trace_derivation,
)
from ttc.generate import random_chain3

from .conftest import benchmark_modules, rotation_chains_text


def test_operations_leave_no_cyclic_garbage(workspace, quadratic, worked_pair):
    workloads, workspaces = benchmark_modules()
    spaces = {name: make(1) for name, make in sorted(workspaces.WORKLOADS.items())}
    chains = list(workspace.chains.values())
    # T1;T1;T1;T2_2: two reductions that drop their look-ahead
    chains.append(parse_workspace(rotation_chains_text([3])).chains["t1x3"])
    # a reduction whose look-ahead can fail: fused, not dropped
    chains.append(random_chain3(11))
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
