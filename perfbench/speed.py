"""Machine-speed calibration for the benchmark's timings.

On a shared 2-vCPU Xeon VM the host's speed flips between two states
within seconds: a fixed piece of interpreter work took 0.6 ms in one and
1.0 ms in the other, and the same ``reconstruct_from_inventory(60)``
call took 0.08 s in one 10-second window and 0.15 s two minutes later.
Its ratio to the kernel below moved by 3 % over those windows.  So every
timing the benchmark reports is taken in *reference seconds*: measured
seconds times REFERENCE_S over the kernel time sampled around and during
the measurement (``op_factors``).  A change in phonodist moves the operation and
not the kernel, so it still shows in full.  Wall-clock seconds are kept
in the run record.

During an in-process operation a wall-clock timer (SIGALRM, every
PROBE_INTERVAL_S) runs the kernel once; its time is taken out of the
operation's.  CLI subprocesses and set-up interpreters are bracketed by
samples instead: a kernel run beside them would share the CPUs.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

KERNEL_ITERATIONS = 2_000
REFERENCE_S = 0.0005  # kernel time that defines one reference second
PROBE_INTERVAL_S = 0.1
MIN_PROBES = 3


def kernel() -> float:
    """A fixed piece of interpreter work: tuple keys, dict updates, float math."""
    table: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) / (i + 1.0)
    return acc


def timed_kernel() -> float:
    """Seconds of one kernel run, with the garbage collector held off so
    that it does not collect the program's objects inside the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(runs: int = 3) -> float:
    """Median seconds of ``runs`` kernel runs, now."""
    return statistics.median(timed_kernel() for _ in range(runs))


class Probe:
    """Kernel samples on a wall-clock timer while the block runs.

    ``spent`` is the time the samples took, to be subtracted from the
    block's own time.  With ``active`` false the probe takes no samples.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(timed_kernel())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def factor(samples: list[float]) -> float:
    """Reference seconds per measured second, from kernel samples."""
    return REFERENCE_S / statistics.fmean(samples)


def op_factors(records: list[dict]) -> list[float]:
    """Factor per operation.

    An operation probed MIN_PROBES times or more is scaled by the median
    of its probes, which follow the host through a long call.  A shorter
    one is scaled by the mean of the sample before it, its probes and the
    sample before the next operation.
    """
    out = []
    for i, record in enumerate(records):
        if len(record["probes"]) >= MIN_PROBES:
            out.append(REFERENCE_S / statistics.median(record["probes"]))
            continue
        samples = [record["calib"], *record["probes"]]
        if i + 1 < len(records):
            samples.append(records[i + 1]["calib"])
        out.append(factor(samples))
    return out
