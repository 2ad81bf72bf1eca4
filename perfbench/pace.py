"""The host's speed, sampled while the benchmark measures, and times scaled by it.

On a shared host the CPU can run every instruction of a process 1.5-2x
slower for seconds to minutes at a time, when other work shares its core.
No run length averages that away. A ``Pacer`` runs a short fixed kernel of
Python work from a ``SIGALRM`` timer every ``INTERVAL_S`` seconds and records
how long each run of it took. ``Pacer.scaled`` turns the wall time of a
section of code into seconds at the reference speed: the section's wall time
without the kernel runs inside it, times ``REFERENCE_S`` over the mean kernel
time in and around the section. A slow spell stretches both, so their ratio
holds; a change to the program moves only the wall time.

Signal handlers run in the main thread between bytecodes, so a sample is
taken at the first bytecode boundary after the timer fires; a long call into
C delays it but does not distort it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
# Kernel time on the reference host (Xeon family 6 model 143, KVM guest) at
# its fast level: the 5th percentile of 779 runs 25 ms apart. A scaled time
# reads as seconds there.
REFERENCE_S = 3.5e-4
# A section shorter than this is scaled by the samples in a window of this
# width centred on it, so that every scale factor rests on about 40 samples.
WINDOW_S = 1.0


def kernel() -> float:
    """Allocation-heavy interpreter work of fixed size, about 0.35-0.5 ms:
    floats and short strings, then a filtered sum over both. Of the kernels
    tried, its time tracked roadcost's set-ups and jobs most nearly in
    proportion through slow spells (see README.md). It makes almost no
    objects the garbage collector tracks, so it never triggers a collection
    of the job's heap."""
    values = [i * 0.5 for i in range(1200)]
    keys = [str(i & 15) for i in range(1200)]
    return sum(v for v, k in zip(values, keys) if k != "3")


class Pacer:
    """Samples the kernel's run time while started; see the module docstring."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def start(self) -> None:
        if self._previous is None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "Pacer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed during the section
        [start, end) of ``time.perf_counter``. Call it once the samples
        after ``end`` have been taken."""
        pad = max(0.0, WINDOW_S - (end - start)) / 2
        around = [s for t, s in self.samples if start - pad <= t < end + pad]
        if not around:
            raise RuntimeError("no speed sample around the section: start the pacer first")
        return REFERENCE_S / statistics.fmean(around)

    def scaled(self, start: float, end: float, excluded: float = 0.0) -> float:
        """Seconds at reference speed of the section [start, end), less
        ``excluded`` seconds spent in it on other work."""
        inside = sum(s for t, s in self.samples if start <= t < end)
        return (end - start - excluded - inside) * self.factor(start, end)
