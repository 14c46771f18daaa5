"""Host-speed calibration of the benchmark's end-to-end timings.

The benchmark shares the cores of its host with other tenants, and the
speed of a core drifts by up to a quarter within a minute.  Wall times of
the same code then spread wider than any useful bound.  The remedy here is
a speed probe: a fixed reference kernel, run from a timer signal every
``PROBE_INTERVAL_S`` while the measured work runs, on the same core as that
work.  Each kernel run samples the core's current speed, so the mean of the
samples taken during a call says how fast the core was during that call.
A calibrated time is the call's own time scaled to a core on which one
kernel run takes exactly ``KERNEL_NOMINAL_S``:

    calibrated = (wall - probe time) * KERNEL_NOMINAL_S / mean kernel time

The kernel is the benchmark's own fixed code, written in the manner of the
package's ring kernel (memoized products of squarefree GF(2) monomials over
int bitsets), so host drift moves numerator and denominator together, while
a change to the package moves only the numerator.

The probe must share the core with the work.  Work done in this process
does so by construction.  For work done in child processes, ``one_core``
pins this process and, by inheritance, its children to one CPU, so a child
runs exactly when the probe does not; its time is then wall minus probe
time.  A process pool needs more than one core, so a pool call is timed
unpinned: the probe runs beside the workers and only samples the host.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager

PROBE_INTERVAL_S = 0.02
KERNEL_NOMINAL_S = 1e-3
# Fewer probes than this during a call (a call shorter than ~0.3 s): the
# call is calibrated with the last MIN_PROBES samples instead.
MIN_PROBES = 16

# Column supports of sixteen fixed 8-dimensional rings; kernel() walks them
# in turn.  Entry k only involves indices below k, as a Bott matrix does.
_SUPPORTS = tuple(
    tuple((0x9E3779B9 * (r + 1) * (k + 3) >> 7) & ((1 << k) - 1)
          for k in range(8))
    for r in range(16))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _products(supports) -> int:
    """Reduced products x_a * x_b of squarefree monomials in one ring,
    memoized per ring the way the package's ring context does it."""
    memo: dict = {}

    def mul_var(mask: int, k: int) -> int:
        key = (mask << 6) | k
        hit = memo.get(key)
        if hit is not None:
            return hit
        bit = 1 << k
        if not mask & bit:
            out = 1 << (mask | bit)
        else:
            out = 0
            for j in _bits(supports[k]):
                out ^= mul_var(mask, j)
        memo[key] = out
        return out

    total = 0
    for a in range(0, 256, 3):
        rep = 1 << a
        for k in _bits(a * 37 & 255):
            acc = 0
            for m in _bits(rep):
                acc ^= mul_var(m, k)
            rep = acc
        total ^= rep
    return len(frozenset(_bits(total)))


def kernel() -> int:
    """The fixed reference work of one probe, about a millisecond."""
    return sum(_products(_SUPPORTS[i]) for i in range(2))


class SpeedProbe:
    """Runs ``kernel`` from SIGALRM while ``running`` and calibrates the
    calls timed inside it."""

    def __init__(self):
        self.samples: list[float] = []   # CPU seconds of each kernel run

    def _tick(self, signum, frame) -> None:
        t = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - t)

    @contextmanager
    def running(self):
        for _ in range(MIN_PROBES):      # warm up and seed the fallback
            self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Call before the timed call; pass the result to ``calibrated``."""
        return len(self.samples)

    def calibrated(self, mark: int, wall: float, shares_core: bool = True):
        """The calibrated time of a call that took ``wall`` seconds since
        ``mark``.  With ``shares_core`` the probe ran on the call's core, so
        its time is taken out of the call's."""
        during = self.samples[mark:]
        basis = during if len(during) >= MIN_PROBES \
            else self.samples[-MIN_PROBES:]
        work = wall - sum(during) if shares_core else wall
        return work * KERNEL_NOMINAL_S / statistics.fmean(basis)

    def kernel_ms(self) -> float:
        """Median kernel time of the run: the host's speed, for the record."""
        return statistics.median(self.samples) * 1e3


@contextmanager
def one_core():
    """Pin this process, and every process it starts meanwhile, to the
    lowest CPU it may use; restore the CPU set on exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
