"""Calibration kernel: a fixed piece of pure-Python work timed next to every
measured operation, so that a latency can be scaled to a reference speed.

The kernel imports nothing from ttc. It does the kind of work ttc does:
it builds tuples, frozensets, dicts and small slotted objects, hashes them
and formats strings. A latency is normalised as
``raw_ms * CAL_REF_MS / cal_ms``, where ``cal_ms`` is the kernel's time
measured right before and right after the operation.
"""

import gc
import time

# Median kernel time on the reference machine (2-core x86-64 VM, CPython
# 3.11.7); see README.md for how it was measured.
CAL_REF_MS = 16.0

ITEMS = 4000


class _Node:
    __slots__ = ("label", "kids", "text")

    def __init__(self, label, kids):
        self.label = label
        self.kids = kids
        self.text = "%s(%s)" % (label, ",".join(k.text for k in kids)) if kids else label


def kernel(items=ITEMS):
    """Run the calibration work once; returns a checksum so it is not idle."""
    leaves = [_Node("e%d" % (i % 5), ()) for i in range(8)]
    table = {}
    acc = 0
    for i in range(items):
        key = ("s%d" % (i % 211), i % 7)
        node = _Node("f", (leaves[i % 8], leaves[(i * 3) % 8]))
        members = frozenset((key, node.text, i % 13))
        table[key] = table.get(key, frozenset()) | members
        acc ^= hash((members, node.text))
    return acc ^ len(table)


def kernel_ms():
    """Wall time of one kernel run, in milliseconds.

    The cyclic garbage collector is paused while the kernel runs: the kernel
    makes no cycles, and a collection of the garbage an operation left
    behind would otherwise land in the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()
