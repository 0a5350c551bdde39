"""Machine-speed probe that puts the end-to-end times on a fixed scale.

On a shared machine the speed of the cores switches between states up to
1.75x apart, every few seconds, and process CPU time moves with wall time,
so raw times of the same work spread more between runs than any useful
bound. The probe times a fixed kernel (small NumPy products and Python
arithmetic, no almlab code) next to every operation: once before it, once
after it, and every ``INTERVAL`` seconds inside it from a SIGALRM handler.
An operation's time is then

    normalized = (elapsed - time spent in the handler) * REF_S / mean(kernel times)

i.e. its time at the speed at which the kernel takes ``REF_S``. The kernel
tracks the operations' slowdowns with a log-log slope close to 1, so the
normalized times of the same work stay within a few percent where the raw
ones move by half.

In-operation samples are taken only while the process has a single thread:
with more threads the kernel would time the wait for the GIL, not the
machine. A multi-threaded operation (the CLI grid) is normalized by its
before and after samples alone.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import threading
import time

import numpy as np

# kernel time that defines the reference speed (about the faster state of
# a 2-core Xeon VM); normalized times read as seconds at that speed
REF_S = 3.0e-4
INTERVAL = 0.02
_NP_STEPS = 40
_PY_STEPS = 1500
_M = np.linspace(-1.0, 1.0, 400).reshape(20, 20) / 7.0


def kernel():
    x = np.ones(20)
    acc = 0.0
    for i in range(_NP_STEPS):
        y = _M @ x + 0.5
        norm = float(np.sqrt(y @ y))
        x = y / norm
        acc += norm if i % 3 else -norm
    s = 0
    table = {}
    for i in range(_PY_STEPS):
        s = (s * 31 + i) % 1000003
        table[i & 255] = s
    return acc + s


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalize(net: float, kernel_times) -> float:
    """Time at the reference speed of work that took net seconds while the
    kernel took kernel_times."""
    return net * REF_S / statistics.fmean(kernel_times)


class Measurement:
    """Elapsed and normalized time of one operation."""

    def __init__(self):
        self.net = 0.0
        self.kernel_times: list[float] = []
        self.normalized = 0.0


class SpeedProbe:
    """Installs its SIGALRM handler while open; ``measure`` arms the timer
    around one operation."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self._armed = False
        self._ticks: list[float] = []
        self._spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if not self._armed or threading.active_count() != 1:
            return
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._ticks.append(t1 - t0)
        self._spent += t1 - t0

    @contextlib.contextmanager
    def measure(self):
        m = Measurement()
        before = sample()
        self._ticks, self._spent = [], 0.0
        t0 = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield m
        finally:
            # a handler that starts after this line records nothing, so
            # every recorded tick lies inside [t0, elapsed]
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
        m.net = elapsed - self._spent
        m.kernel_times = [before, *self._ticks, sample()]
        m.normalized = normalize(m.net, m.kernel_times)
