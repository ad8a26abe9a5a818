"""A fixed piece of reference work that gauges the host's speed.

The work does not touch curvdec: it is a small mix of what the library's
hot paths do (pure-Python loops over dicts of exponent tuples, small numpy
contractions, float formatting as in JSON output), so a change to the
library cannot change it.  It writes numpy results into buffers allocated
up front and makes no allocation larger than a small Python object: the
probe also runs in the middle of requests, and a heap allocation there
changed how the program's own memory was laid out and so its peak.
"""
from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_T = _RNG.uniform(-1.0, 1.0, (4, 4, 4, 4))
# contiguous, so that np.subtract needs no iteration buffer
_T_SWAP = np.ascontiguousarray(_T.transpose(1, 0, 2, 3))
_T_FLAT = _T.ravel()
_OUT = np.empty_like(_T)
_OUT_FLAT = _OUT.ravel()
_TERMS = {tuple(int(v) for v in _RNG.integers(0, 3, 4)): float(c)
          for c in _RNG.uniform(-1.0, 1.0, 24)}
_X = (0.1, -0.2, 0.3, 0.05)
_FLOATS = _T_FLAT[:64].tolist()

# The probe's typical time on the machine the benchmark was tuned on (a
# 2-core VM, Python 3.11, numpy 2.4).  A request time t measured while the
# probe took p is reported as t * PROBE_REF_S / p: the time the request would
# take on that machine at its typical speed.
PROBE_REF_S = 1.8e-3


def probe() -> float:
    """Seconds for one fixed round of reference work (about 1.8 ms)."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(24):
        for e, c in _TERMS.items():
            m = c
            for xi, k in zip(_X, e):
                m *= xi**k
            acc += m
    for _ in range(110):
        np.subtract(_T, _T_SWAP, out=_OUT)
        acc += float(np.dot(_T_FLAT, _OUT_FLAT))
    for _ in range(12):
        for v in _FLOATS:
            acc += len(repr(v))
    dt = perf_counter() - t0
    if acc != acc:  # keeps the work from being optimised away; never true
        raise RuntimeError("probe")
    return dt


def gauge(seconds: float) -> float:
    """Mean probe time over a burst of probes lasting about `seconds`, and
    at least one probe.  A burst as long as a tenth of the request it
    follows averages the host's speed over a comparable stretch of time."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return sum(times) / len(times)


class Sampler:
    """Runs the probe on a wall-clock timer while a request runs.

    A long request spans many swings of the host's speed, so probes taken
    only before and after it miss most of them.  Inside `with sampler:` a
    SIGALRM every `interval` seconds runs one probe (between two bytecodes of
    the request, or as soon as a C call returns).  `probes` holds their
    times, and `stolen` the time the handler took, which the caller takes
    off the request's time.

    The handler writes into buffers allocated up front, and holds off the
    cyclic garbage collector while it runs, so that when the program's
    allocations and collections happen does not depend on when the timer
    fires.  With a probe that allocated arrays and JSON text, the peak
    memory of a `suite_batch` pass moved between 46.8 and 50.5 MB from run
    to run; without the timer it read 48.2 MB every time, and with this
    probe 49.0 to 49.2 MB.
    """

    def __init__(self, interval: float, capacity: int = 4096):
        self.interval = interval
        self._times = np.zeros(capacity)
        self._state = np.zeros(2)  # probes taken, seconds in the handler
        self._handler = self._tick
        self._previous = None

    def _tick(self, signum, frame):
        k = int(self._state[0])
        if k < len(self._times):
            collecting = gc.isenabled()
            gc.disable()
            t0 = perf_counter()
            self._times[k] = probe()
            self._state[0] = k + 1
            self._state[1] += perf_counter() - t0
            if collecting:
                gc.enable()

    @property
    def probes(self) -> list[float]:
        return self._times[: int(self._state[0])].tolist()

    @property
    def stolen(self) -> float:
        return float(self._state[1])

    def __enter__(self):
        self._state[:] = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
