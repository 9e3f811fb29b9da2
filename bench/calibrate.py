"""Host-speed calibration: a fixed kernel timed next to every operation.

A shared host's CPU speed swings by up to a factor of two within
seconds, and the swings move CPU time as much as wall time.  So the
benchmark times this kernel -- a fixed-step Runge-Kutta loop on a
two-species log-frame field, built like the program's own hot loop out
of Python arithmetic and two-element numpy arrays -- between operations,
and scales each operation's time by ``REF_S`` over the kernel's time
measured around it.  The result, in *reference seconds*, is the
operation's time on a host that runs the kernel in ``REF_S``.

Both are timed in thread CPU time.  The host also takes the CPU away
from the benchmark's only thread for tens of milliseconds at a time;
wall time counts those gaps, which land on a few operations at random
and dominate the tail, and CPU time does not.  For this single-threaded
program, whose only I/O is small writes into the page cache, CPU time
is its wall time on a host that does not take the CPU away.

Neither the kernel nor the reference start of set-up (below) touches
``phytoperiod``, so a change to the program moves the scaled times
exactly as it moves the wall times; only the host's speed cancels.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

# CPU time of one kernel run at the reference host speed (about the
# median seen on a 2-core shared x86-64 host).
REF_S = 0.002
STEPS = 100

# Set-up is process start, imports and file writes more than arithmetic,
# and the kernel does not track its speed.  It is scaled instead by a
# reference start -- a fresh interpreter that imports numpy and nothing
# of the program -- timed right before it; START_REF_S is that start's
# median wall time on the same host.
START_REF_S = 0.11
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _field(t: float, y) -> np.ndarray:
    u = math.exp(y[0])
    v = math.exp(y[1])
    r1 = 1.0 + 0.3 * math.sin(t)
    return np.array([r1 * (1.0 - u / 2.0) - 0.05 * v,
                     0.9 * (1.0 / (1.0 + 0.1 * u) - v) - 0.002 * u])


def kernel(steps: int = STEPS) -> np.ndarray:
    y = np.array([0.1, -0.2])
    t = 0.0
    h = 0.01
    for _ in range(steps):
        k1 = _field(t, y)
        k2 = _field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = _field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = _field(t + h, y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        scale = 1e-8 + 1e-6 * np.maximum(np.abs(y), np.abs(y_new))
        if not math.isfinite(float(np.max(np.abs(y_new - y) / scale))):
            raise FloatingPointError("calibration kernel diverged")
        y = y_new
        t += h
    return y


def measure() -> float:
    """Thread CPU time of one kernel run, in seconds."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def reference_start(timeout: float) -> float:
    """Wall time of one reference start, in seconds."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=timeout,
                   env={**os.environ, **BLAS_ONE_THREAD})
    return time.monotonic() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work timed
    between a calibration of ``before`` and one of ``after`` seconds."""
    return REF_S / (0.5 * (before + after))
