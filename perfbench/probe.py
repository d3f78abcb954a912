"""CPU speed probe that runs beside one timed iteration.

Usage: python3 probe.py <cpu>

Pinned to the same CPU as the timed child, it wakes every PERIOD_S, times a
fixed kernel in its own thread CPU time and records (perf_counter at start,
seconds). On SIGTERM, or when its parent is gone, it prints the samples as
JSON and exits. On a shared machine the speed one CPU delivers, and the cost
of faulting in fresh memory, drift by tens of percent within seconds; the
parent divides the child's times by the probe's mean over the same
interval, which takes most of that drift out. It costs the child a few
percent of its CPU.
"""

import gc
import json
import mmap
import os
import signal
import sys
import time

PERIOD_S = 0.02
FRESH_BYTES = 1 << 19


def kernel() -> None:
    """Interpreter arithmetic, then faulting in FRESH_BYTES of new pages: the
    workloads are interpreter-bound and allocate hundreds of MB per run."""
    s = 0
    for i in range(1000):
        s += i * i
    fresh = mmap.mmap(-1, FRESH_BYTES)
    for offset in range(0, FRESH_BYTES, mmap.PAGESIZE):
        fresh[offset] = 1
    fresh.close()


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    gc.disable()
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    parent = os.getppid()
    print("ready", flush=True)
    samples = []
    while not stopped and os.getppid() == parent:
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        samples.append((start, time.thread_time() - cpu))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
