"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts:
for seconds to minutes at a time the same op takes up to twice as long,
while other tenants are busy. No run length averages that away, so every
time the benchmark reports is scaled to a fixed host speed. Between ops (and
between the steps of a long op) the child times this loop; its reference
time over its time now is the host's speed s. A stretch of t seconds is
reported as t * s**beta, seconds of the host running at its reference speed.

The slow periods hit Python-level work hardest (this loop is all of that)
and large array and LAPACK calls least, so each workload has its own
exponent beta, its sensitivity (workloads.SENSITIVITY): the exponent that
made its scaled time flattest against s over runs that spanned slow and
fast periods on the machine the benchmark was tuned on.

The loop uses only numpy and the standard library, never polyens, so a
change to polyens cannot change s: a program that gets slower still reads
slower, by the same factor. A change that moves an op's time between
Python-level steps and large array calls changes how sensitive the op is;
its figures stay comparable while the host runs at a steady speed, and
drift by the host's swing to the power of the change in sensitivity when
it does not.
"""

import time

import numpy as np

# the loop's time on the machine the benchmark was tuned on (2-vCPU Xeon,
# Python 3.11, numpy 2.4, one BLAS thread) while that host ran fast
REFERENCE_S = 0.0015

# a sample is the median of this many back-to-back loops
REPEATS = 3

_rng = np.random.default_rng(0)
_P = _rng.random(256)
_P /= _P.sum()
_A = _rng.standard_normal((96, 96))


def loop():
    """Python-level work: a loop over small numpy calls, like a sampler
    step, and plain integer arithmetic. Returns a value so nothing is
    skipped."""
    rng = np.random.default_rng(7)
    s = 0.0
    for k in range(120):
        c = np.cumsum(_P)
        j = int(np.searchsorted(c, rng.random()))
        v = _A[:, k % 96]
        s += float(v @ v) + j
    t = 0
    for k in range(8000):
        t += k * k % 7
    return s + t


def sample():
    """The host's speed now: REFERENCE_S over the median time of REPEATS
    loops."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t)
    return REFERENCE_S / sorted(times)[len(times) // 2]


class Clock:
    """Times ops and samples the host's speed between them, at least every
    `every` seconds of op time. An op may call lap() between its steps, so
    a long op is sampled inside too (the sampling is not timed). Each
    stretch of op time is scaled by the mean speed of the samples either
    side of it, to the power `beta`."""

    def __init__(self, beta, every=0.1):
        self.beta = beta
        self.every = every
        self.samples = []
        self.sampling_s = 0.0  # time spent taking samples
        self._sample()
        self.raw = []  # per op: seconds
        self.scaled = []  # per op: seconds at the reference speed
        self._open = []  # (op, seconds) stretches since the last sample
        self._since = 0.0
        self._t = None

    def start(self):
        self.raw.append(0.0)
        self.scaled.append(0.0)
        self._t = time.perf_counter()

    def _close(self):
        dt = time.perf_counter() - self._t
        self.raw[-1] += dt
        self._open.append((len(self.raw) - 1, dt))
        self._since += dt

    def lap(self):
        self._close()
        if self._since >= self.every:
            self.flush()
        self._t = time.perf_counter()

    def stop(self):
        """End the op; its unscaled seconds."""
        self._close()
        if self._since >= self.every:
            self.flush()
        return self.raw[-1]

    def _sample(self):
        t = time.perf_counter()
        self.samples.append(sample())
        self.sampling_s += time.perf_counter() - t

    def flush(self):
        """Take a sample and scale the stretches timed since the last one."""
        self._sample()
        factor = (0.5 * (self.samples[-2] + self.samples[-1])) ** self.beta
        for i, dt in self._open:
            self.scaled[i] += dt * factor
        self._open = []
        self._since = 0.0
