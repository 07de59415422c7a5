"""Operation times scaled to a reference machine speed.

On a shared virtual machine the processor's speed changes with the load of
other tenants: the same serving operation takes 7 ms in one stretch and
14 ms in the next, and stretches last from a fraction of a second to tens
of seconds. So a wall-clock time tells as much about the neighbours as
about the program. ``SpeedProbe`` measures the machine's speed while the
operations run: a timer signal every ``INTERVAL_S`` runs a fixed kernel
(small matrix-vector products and ``tanh`` in a Python loop, the kind of
work the library does) in the measuring thread and records how long it
took. ``reference_times`` then turns each operation's wall time into
reference milliseconds: every stretch of the operation counts
``KERNEL_REF_S / kernel time`` of its length, with the kernel time of the
last probe before that stretch (the median of that probe and its two
neighbours, so that one probe that was itself interrupted does not set the
speed of a stretch). The probe's own time is left out.

``KERNEL_REF_S`` is the kernel's time at full speed on a 2-vCPU VM
(Python 3.11, numpy 2.4, OpenBLAS 0.3.31), so a reference time reads as the
wall time an operation takes there when the machine is quiet.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

INTERVAL_S = 0.01
KERNEL_REF_S = 0.15e-3
_STEPS = 60
_WIDTH = 30


class SpeedProbe:
    """Runs the kernel on every ``SIGALRM`` between ``start`` and ``stop``.

    Python runs a signal handler between bytecodes of the main thread, so
    the kernel runs inside whatever operation is under way, on the same
    processor, and is timed there.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_WIDTH, _WIDTH)) / np.sqrt(_WIDTH)
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _kernel(self) -> None:
        x = np.zeros(_WIDTH)
        for _ in range(_STEPS):
            x = np.tanh(self._a @ x + 0.1)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def start(self) -> None:
        self._kernel()  # warm up outside the measured window
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._on_alarm(signal.SIGALRM, None)  # a first sample before any operation

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_times(self, starts, ends) -> np.ndarray:
        """Reference seconds of the operations that ran from ``starts[i]``
        to ``ends[i]`` (``time.perf_counter`` values) while the probe ran."""
        return reference_times(np.array(self.starts), np.array(self.seconds),
                               np.asarray(starts), np.asarray(ends))


def reference_times(probe_starts, probe_seconds, starts, ends) -> np.ndarray:
    """See the module docstring. Probe ``k`` occupies
    ``[probe_starts[k], probe_starts[k] + probe_seconds[k]]``; the rest of
    the time up to the next probe counts at that probe's speed. Time before
    the first probe counts at the first probe's speed."""
    if len(probe_starts) == 0:
        raise ValueError("no speed probe ran")
    neighbours = np.pad(probe_seconds, 1, mode="edge")
    factor = KERNEL_REF_S / np.median(sliding_window_view(neighbours, 3), axis=1)
    work_end = probe_starts + probe_seconds
    # reference time accumulated from the first probe's start to each probe's start
    gaps = np.maximum(np.diff(probe_starts) - probe_seconds[:-1], 0.0) * factor[:-1]
    at_probe = np.concatenate(([0.0], np.cumsum(gaps)))

    def accumulated(t):
        k = np.maximum(np.searchsorted(probe_starts, t, side="right") - 1, 0)
        since = np.where(t < probe_starts[k], t - probe_starts[k],
                         np.maximum(t - work_end[k], 0.0))
        return at_probe[k] + since * factor[k]

    return accumulated(ends) - accumulated(starts)
