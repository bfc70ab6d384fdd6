"""Machine-speed reference for the timing metrics.

The benchmark runs on shared machines whose speed drifts by 15-20% over
tens of seconds, for most kinds of code alike.  `SpeedProbe` times a
fixed job, built from the same ingredients as the workloads (json
parsing, interpreter loops, dense numpy algebra) but touching no kunent
code, around every set-up sample and twice a second between requests.
The job runs at a different speed in the set-up phase (a fresh process,
with child processes starting and stopping) than between requests, so
the two phases have a probe and a reference time each.  Every timing of a
phase is scaled by its reference time over the job's median time in that
phase, so the reported times are seconds at the reference machine's
speed: a change to kunent moves them in full, a change in how fast the
machine happens to run for the run's length mostly does not.
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

import numpy as np

# Median time of `job()` in the set-up phase and between requests of
# benchmark runs on the reference machine (2-core Xeon, Python 3.11,
# numpy 2.4 with OpenBLAS at one thread).
REFERENCE_SETUP_S = 0.040
REFERENCE_S = 0.043
# `SpeedProbe.between` takes a sample per INTERVAL_S of work, at most
# MAX_SAMPLES at once.
INTERVAL_S = 0.5
MAX_SAMPLES = 6

_rng = np.random.default_rng(20230622)
_TEXT = json.dumps({"real": _rng.standard_normal((96, 96)).tolist()})
_A = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_H = _A[:96, :96] + _A[:96, :96].conj().T


def job() -> None:
    """The fixed reference job: about REFERENCE_S on the reference machine."""
    for _ in range(2):
        json.loads(_TEXT)
    acc = {}
    for i in range(80000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    for _ in range(4):
        _A @ _A
        np.linalg.eigvalsh(_H)


class SpeedProbe:
    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            job()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.durations.append(end - start)
        self._last = end

    def between(self) -> None:
        """Take a sample for every INTERVAL_S since the last one, up to
        MAX_SAMPLES, so that workloads of long requests get as many
        samples per second as those of short ones."""
        for _ in range(int(min(MAX_SAMPLES, (perf_counter() - self._last) / INTERVAL_S))):
            self.sample()

    def factor(self) -> float:
        """The reference time over the median time of the job in this run."""
        return self.reference_s / statistics.median(self.durations)
