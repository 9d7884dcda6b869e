"""Set-up probe: run in a fresh interpreter, it times the import of ttc and
the first parse of the workload's workspace texts.

Usage: ``python3 perfbench/setup_probe.py < texts`` with the texts separated
by NUL characters on standard input. It prints ``<setup_ms> <cal_ms>``: the
set-up time and the median of three calibration-kernel runs made after it.
Only modules the interpreter loads at start-up are imported before the clock
starts, so the import of everything ttc needs is counted.
"""

import os
import sys
import time

texts = sys.stdin.read().split("\0")
here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

t0 = time.perf_counter()
import ttc  # noqa: E402

for text in texts:
    ttc.parse_workspace(text)
setup_ms = (time.perf_counter() - t0) * 1000.0

import calib  # noqa: E402

cal_ms = sorted(calib.kernel_ms() for _ in range(3))[1]
print("%r %r" % (setup_ms, cal_ms))
