"""Host-contention probes for workloads that run a thread pool.

On a shared virtual machine the same work can take from 1x to 2x as long,
from one minute to the next.  A program whose pool threads take turns
holding the interpreter lock suffers most: each hand-over between the two
vCPUs waits for the other vCPU to run, and how long that takes depends on
what the host runs next to us.  Raw `slam-500` iteration times then spread
by about 12% (coefficient of variation), and whole runs by about 20%.

A probe measures that cost without the program: two threads of its own each
run a fixed slice of interpreter and small-numpy work at once, handing the
lock back and forth as the program's pool does.  Probes run between
iterations, while no program thread is live, so the program can neither
slow a probe nor be slowed by one.  Each iteration's time is scaled by
``REF_PROBE_S`` over the mean of the probes on either side of it: seconds
at the reference host state.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# Probe time on a quiet 2-vCPU Intel Xeon virtual machine; scaled times read
# close to raw ones there.
REF_PROBE_S = 0.31
PROBE_LOOPS = 1_000_000

_V, _M = np.arange(3.0), np.eye(3)


def _work() -> None:
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += i * 0.5
    for _ in range(PROBE_LOOPS // 30):
        _M @ _V


def probe() -> float:
    """Seconds for two threads to run ``_work`` at once.

    Call only while no program thread is live.
    """
    threads = [threading.Thread(target=_work) for _ in range(2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference host state."""
    return seconds * REF_PROBE_S / ((before + after) / 2)
