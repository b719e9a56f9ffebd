"""Host-speed reference: a fixed task outside the program, timed next to
the workload, so that runs made while the host is fast and runs made
while it is slow report times on one scale.

On a shared host the speed of the benchmark's cores moves with what the
neighbours run.  On a 2-vCPU VM (2.1 GHz) a fixed n=400 solve had 10-s
medians from 0.77x to 1.38x its two-minute median, and solo-cold ran
3.6 requests/s at one hour and 5.2/s at another.  A NumPy sort of a
fixed array slows down with it: dividing solo-cold's times by the sort's
median time in the same run halved the run-to-run spread (eight 32-s
runs, IQR/median of throughput 0.118 raw, 0.056 scaled).

The reference is this sort, in place on a copy made into a buffer that
is allocated once (an allocating sort timed the allocator too, whose
state differs between a fresh interpreter and a long run).  It is timed
while the program is idle (between closed-loop requests, in idle gaps of
the open loop, after a set-up), so it measures the host and not the
program.  A run's *slowness* is its mean reference time over the
nominal time; the run's times are divided by it and its closed-loop
throughput multiplied by it.  The raw figures are printed next to the
scaled ones.

The mean, not the median: when the host preempts the VM, a few samples
run long and the program's requests stretch with them.  In five
edge-net runs during such a spell the raw p50 moved 1.44x between runs;
scaled by the median reference 1.34x, by the mean 1.21x.  Each sample is
clipped at :data:`CLIP` times the median, so one long preemption cannot
set a run's figure alone.
"""

from __future__ import annotations

import numpy as np

from spans import clock

#: The reference's time at slowness 1 when the program ran just before
#: it and left other data in the caches: about its mean on a 2-vCPU
#: VM (2.1 GHz), so scaled figures stay close to raw ones.
NOMINAL_S = 0.9e-3
#: The same, timed back to back (after a set-up), where the array stays
#: in the caches and the sort runs faster.
NOMINAL_HOT_S = 0.65e-3

#: Samples are clipped at this multiple of the run's median sample.
CLIP = 5.0

_DATA = np.random.default_rng(0).random(100_000)
_DATA.setflags(write=False)
_BUF = np.empty_like(_DATA)


class HostSpeed:
    """Reference samples of one run, against a nominal time."""

    def __init__(self, nominal: float = NOMINAL_S) -> None:
        self.nominal = nominal
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the reference once (seconds)."""
        t0 = clock()
        _BUF[:] = _DATA
        _BUF.sort()
        dt = clock() - t0
        self.samples.append(dt)
        return dt

    @property
    def slowness(self) -> float:
        """Mean reference time, each sample clipped at :data:`CLIP` times
        the median, over the nominal time."""
        if not self.samples:
            raise RuntimeError("no host-speed samples in this run")
        samples = np.asarray(self.samples)
        clipped = np.minimum(samples, CLIP * np.median(samples))
        return float(clipped.mean()) / self.nominal
