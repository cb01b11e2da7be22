"""Machine-speed probes: op latencies at a fixed reference speed.

On a shared virtual machine the speed of the CPU a process gets drifts.
On the 2-vCPU Intel Xeon machine where this benchmark was written, an
interpreter loop ran up to 1.8x slower, and numpy array arithmetic up to
1.2x slower, for stretches of a few seconds to over a minute.  A whole run
can fall inside a slow stretch, so no statistic over one run's latencies
removes the drift: the quartile spread of raw ``ops_per_s`` over ten seeds
reached 0.37 on ``witt-algebra``.

So the runner times fixed probe kernels before and after every op.  The
probe's time over its reference time is the machine's current slowdown,
and an op's latency divided by the mean slowdown of the two probes that
bracket it is its latency at reference speed.  Program changes cannot move
the probes: they run benchmark code only, outside the timed op.

Each workload uses the kernels that match where its ops spend their time
(see ``run.PROBE_KINDS``).  Scaling numpy-bound ops by the interpreter
probe over-corrects them, and the reverse under-corrects.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds each kernel takes at reference speed: its fastest-of-REPEATS
# time when not slowed, on a 2-vCPU Intel Xeon virtual machine with Python
# 3.11.7 and numpy 2.4.6.  They only scale the results; they do not change
# spreads.
REFERENCE_S = {
    "interp": 6.1e-4, "bigint": 5.7e-4, "numpy": 1.66e-3, "startup": 0.18,
}

REPEATS = 3  # a probe times each kernel this often and keeps the fastest

_ARRAY = np.arange(1, 200_001, dtype=np.int64)
_OUT = np.empty_like(_ARRAY)


def _interp():
    """Small-integer arithmetic in the interpreter loop."""
    x = 0
    for i in range(10_000):
        x += i * i % 7
    return x


# Start-up probe: the time from starting a bare interpreter that imports
# numpy to its "ready" line.  Set-up time is mostly interpreter start and
# imports, which a slow stretch slows by other factors than it slows the
# kernels below.
STARTUP_ARGV = ("-c", "import numpy; print('ready', flush=True)")

_BIG = 7**900  # 2527 bits
_MODULUS = 3**1100 + 1  # 1744 bits


def _bigint():
    """Multi-word integer products and remainders."""
    y = _BIG
    for _ in range(40):
        y = y * _BIG % _MODULUS
    return y


def _numpy():
    """Elementwise int64 products and remainders on 200000-element arrays.

    The output buffer is preallocated, so the kernel takes no page faults.
    """
    np.multiply(_ARRAY, _ARRAY, out=_OUT)
    np.remainder(_OUT, 1009, out=_OUT)
    np.multiply(_OUT, _ARRAY, out=_OUT)
    return np.remainder(_OUT, 1013, out=_OUT)


KERNELS = {"interp": _interp, "bigint": _bigint, "numpy": _numpy}


class Probe:
    """Slowdown of the machine against reference speed, measured now."""

    def __init__(self, kinds: tuple):
        self.kinds = kinds
        for kind in kinds:  # first calls pay for allocation and dispatch set-up
            KERNELS[kind]()

    def slowdown(self) -> float:
        """Geometric mean over the probe's kernels of time / reference time.

        Each kernel's time is the fastest of REPEATS back-to-back calls,
        which drops one-off stalls (an interrupt, a page fault) but keeps
        a slow stretch, since that lasts far longer than the probe.
        """
        product = 1.0
        for kind in self.kinds:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                KERNELS[kind]()
                best = min(best, time.perf_counter() - start)
            product *= best / REFERENCE_S[kind]
        return product ** (1 / len(self.kinds))
