"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes
with the load of other tenants: a fixed block of pure-Python work takes
7 ms for a second, then 12-14 ms for the next few, and unscaled, the
middle half of ten runs of one workload spread by up to 26% of their
median, more than the regression bounds allow.
A ``Calibrator`` therefore runs a fixed reference block interleaved with
the measured work and scales every measured time by ``NOMINAL_S`` over
the mean block time, so the scaled times read as on a host on which the
block takes ``NOMINAL_S``.  The block is the benchmark's own code
(``inputs.class_key`` and ``inputs.u_terms`` over fixed words), never the
library's, so a change to the library cannot move it and shows in full
in every scaled time.

Inside a workload process the block runs from a SIGALRM handler every
``INTERVAL_S`` of wall time, also in the middle of a long op such as
``tabulate 6``, so the blocks sample the host evenly over the measured
time.  ``clock()`` stands still while a block runs, so op times exclude
the blocks.
"""
from __future__ import annotations

import gc
import random
import signal
import statistics
import time

import inputs

INTERVAL_S = 0.1
NOMINAL_S = 0.0055  # mean block time on the baseline host
_WORDS = tuple(inputs.random_word(random.Random("reference"), 10) for _ in range(32))


def _reference_work() -> None:
    for word in _WORDS:
        inputs.class_key(word)
        inputs.u_terms(word)


def reference_block() -> float:
    """Run the reference work twice and return the wall time of the
    second pass.  The first pass warms the caches and the collector is
    off, so neither the state the measured work left in the caches nor
    the size of its heap moves the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    def __init__(self):
        self.blocks: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._saved = None

    def clock(self) -> float:
        """Wall clock that stands still while reference blocks run."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        """Run one reference block now."""
        t0 = time.perf_counter()
        self.blocks.append(reference_block())
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a stalled block let the next signal in
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self) -> "Calibrator":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self) -> float:
        """Factor that turns a time measured here into one at nominal speed."""
        if not self.blocks:
            self.sample()
        return NOMINAL_S / statistics.fmean(self.blocks)
