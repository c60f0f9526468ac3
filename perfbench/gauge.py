"""Machine speed, sampled in step with the workload it rescales.

The benchmark runs on shared hosts whose speed drifts by 2x and more, in
stretches from a fraction of a second to minutes.  Other tenants' work
slows every instruction of ours: the slowdown shows in process CPU time just
as in wall time.  No choice of repetitions filters
stretches that long out of a 25-second run, so the benchmark measures the
machine's speed alongside the workload and rescales the workload's times to
a fixed reference speed.

While the gauge is on, an interval timer interrupts the workload every
``INTERVAL_S`` of wall time and runs one *quantum*: a fixed piece of work of
the same kind as the workload's, from ``MIXES``.  A step-loop workload gets
a loop of small matrix-vector products and norms (the interpreter dispatch
and tiny numpy calls of the library's step loops) plus a few 16x16 general
eigensolves; a workload of spectral checks gets 16x16 and 32x32 eigensolves
only, since a busy neighbour slows LAPACK code less than interpreter code.
The stretch of workload time between two quanta is rescaled by
``REFERENCE_QUANTUM_S`` over the mean duration of those two quanta, and the
time spent in quanta is left out.  So a time reported by the benchmark reads
"seconds at the speed at which one quantum takes ``REFERENCE_QUANTUM_S``"
(about a quiet 2-vCPU VM's speed); a program that does more work still takes
proportionally longer, whatever the host's load.

Quanta cost about 4% of the run; Python runs signal handlers between
bytecodes, so a quantum waits for a long C call (an eigensolver, say) to
return, which only lengthens the stretch it follows.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# quantum contents by workload kind: (matrix-vector steps, 16x16 eigensolves,
# 32x32 eigensolves); each takes about REFERENCE_QUANTUM_S on a quiet host
MIXES = {
    "steps": (600, 4, 0),  # step loops, with the spectral checks around them
    "linalg": (0, 8, 2),  # spectral checks only
}
REFERENCE_QUANTUM_S = 0.7e-3
BURST_QUANTA = 40  # quanta per speed reading around out-of-process work

_clock = time.perf_counter


def _kernel(mix):
    steps, eigs16, eigs32 = MIXES[mix]
    rng = np.random.default_rng(12345)
    T = np.eye(8) + 1e-3 * rng.standard_normal((8, 8))
    T /= np.linalg.norm(T, 2)  # contractive: values stay finite
    G16 = rng.standard_normal((16, 16))
    G32 = rng.standard_normal((32, 32))
    z0 = np.ones(8)

    def quantum():
        v = z0
        dot = T.dot
        for _ in range(steps):
            v = dot(v)
            math.sqrt(v.dot(v))
        for _ in range(eigs16):
            np.linalg.eigvals(G16)
        for _ in range(eigs32):
            np.linalg.eigvals(G32)

    return quantum


class Gauge:
    """Quanta run between workload stretches; times rescaled by them."""

    def __init__(self, mix="steps"):
        self._quantum = _kernel(mix)
        t0 = _clock()
        self._quantum()  # warm-up
        # reference_clock() state: its reading at the last quantum's end and
        # the rate it has advanced at since
        self._last_end = _clock()
        self._rate = REFERENCE_QUANTUM_S / (self._last_end - t0)
        self._reading = 0.0
        self.starts = []  # quantum start times
        self.ends = []  # quantum end times
        self._prefix = None  # rescaled workload time up to each quantum's end
        self._saved = None

    # --- sampling -----------------------------------------------------------

    def _tick(self, *_):
        t0 = _clock()
        self._quantum()
        t1 = _clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self._prefix = None
        self._reading += (t0 - self._last_end) * self._rate
        self._last_end = t1
        self._rate = REFERENCE_QUANTUM_S / (t1 - t0)

    def reference_clock(self):
        """Workload time at the reference speed, read as it runs: it advances
        at the speed the latest quantum measured and stands still while a
        quantum runs.  Coarser than rescaled(), which also uses the quantum
        after a stretch, but cheap enough to time every traced call."""
        return self._reading + (_clock() - self._last_end) * self._rate

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None
        self._tick()

    def clear(self):
        self.starts.clear()
        self.ends.clear()
        self._prefix = None

    def burst_speed(self):
        """Reference-over-measured speed from ``BURST_QUANTA`` quanta in a row,
        for work that runs outside this process."""
        t0 = _clock()
        for _ in range(BURST_QUANTA):
            self._quantum()
        return REFERENCE_QUANTUM_S * BURST_QUANTA / (_clock() - t0)

    # --- rescaling ----------------------------------------------------------

    def _factors(self):
        """Rescale factor of the stretch after each quantum, and the rescaled
        workload time accumulated up to each quantum's end."""
        if self._prefix is None:
            d = np.subtract(self.ends, self.starts)
            mean_next = 0.5 * (d[:-1] + d[1:])
            f = REFERENCE_QUANTUM_S / np.append(mean_next, d[-1])
            gaps = np.subtract(self.starts[1:], self.ends[:-1])
            self._prefix = (f, np.concatenate(([0.0], np.cumsum(f[:-1] * gaps))))
        return self._prefix

    def _at(self, t):
        """Rescaled workload time from the first quantum's end to ``t``."""
        f, prefix = self._factors()
        i = bisect.bisect_right(self.ends, t) - 1
        if i < 0:
            raise ValueError("time before the gauge started")
        if i + 1 < len(self.starts) and t > self.starts[i + 1]:
            t = self.starts[i + 1]  # inside a quantum: no workload time
        return float(prefix[i] + f[i] * (t - self.ends[i]))

    def rescaled(self, t0, t1):
        """Workload seconds between ``t0`` and ``t1`` at the reference speed,
        quanta left out.  Both times must lie between start() and stop()."""
        return self._at(t1) - self._at(t0)

    def mean_quantum(self):
        return float(np.mean(np.subtract(self.ends, self.starts)))
