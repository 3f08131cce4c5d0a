"""Host-speed samples, so that operation times can be scaled to one
reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% and more over minutes, for interpreted and numpy code alike.  A fixed
piece of work (``probe``) is timed every ``INTERVAL`` seconds while an
operation runs, from a ``SIGALRM`` handler.  The handler's time is taken
out of the operation's wall time, and the rest is scaled by
``REFERENCE_S / median(probe time)``: seconds on a host where one probe takes
``REFERENCE_S``.  The probe's work is the benchmark's own and never calls
the program, so a change to the program moves the operation time and not
the scale.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
REFERENCE_S = 0.004
_VEC = np.linspace(0.0, 1.0, 8192)
_MAT = np.cos(np.outer(_VEC[:160], _VEC[:160]))
# 8 MB each: past the private L2 cache, into the shared L3 and memory
_SRC = np.linspace(0.0, 1.0, 1 << 20)
_DST = np.empty_like(_SRC)


def probe():
    """Fixed work: an interpreted loop, vector and matrix numpy calls, and
    a stream over arrays larger than a core's own cache."""
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    np.exp(1j * _VEC).sum()
    _MAT @ _MAT
    np.multiply(_SRC, 1.0001, out=_DST)
    return s


class HostSpeed:
    """Collects probe times, and the wall time the probes themselves took."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0     # seconds inside the handler, probes included

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``INTERVAL`` seconds of wall time inside the block."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def scale(self):
        """Factor that takes a time on this host to the reference speed."""
        return REFERENCE_S / statistics.median(self.probes)


def scaled_call(fn, *args):
    """Run ``fn(*args)`` with a probe just before, during and just after it.

    Returns (reference-speed seconds, wall seconds, result, exception)."""
    speed = HostSpeed()
    speed.sample()
    speed.spent = 0.0
    t0 = time.perf_counter()
    try:
        with speed.sampling():
            out, exc = fn(*args), None
    except Exception as e:   # the caller decides what a failure means
        out, exc = None, e
    wall = time.perf_counter() - t0
    net = wall - speed.spent
    speed.sample()
    return net * speed.scale(), wall, out, exc
