"""Host-speed calibration: a fixed kernel, timed between the program's
operations, that rescales their times to a host running at its usual speed.

The machine the benchmark was written on shares its processor with other
tenants, and their load slows all code in this process by up to half for
stretches of ten seconds to several minutes (README, Noise).  A run cannot
dodge a stretch that long, so each pass of a run is rescaled by how much
slower than usual this kernel ran during that pass:

    scaled time = measured time * KERNEL_S / (median kernel time in the pass)

The kernel uses only the benchmark's own reference code and builtins, never
the package, so a change to the package moves the scaled times exactly as
it moves the measured ones.  It mixes what the package spends its time on:
set-based propagation over adjacency sets (`reference.rounds`, the
simultaneous-round chain) and loops of big-integer bit operations on vertex
masks.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import reference as ref

# the kernel's usual time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11): the median of its samples over quiet stretches.  A constant,
# so scaled times are comparable across runs, seeds and commits.
KERNEL_S = 0.0015
# share of a pass's time spent on kernel samples, and the minimum number
GAP_SHARE = 0.08
MIN_SAMPLES = 5

_GRAPH = ref.family_graph("ladder:24")
_STARTS = [{0}, {1, 30}, {10, 11}, {47}]
_MASKS = [(1 << (3 * i + 5)) - 1 for i in range(40)]


def kernel() -> int:
    """The fixed work whose time is sampled."""
    acc = 0
    for start in _STARTS:
        acc += len(ref.rounds(_GRAPH, start))
    for _ in range(3):
        for m in _MASKS:
            x = m
            while x:
                low = x & -x
                acc += low.bit_length()
                x ^= low
    return acc


def sample() -> float:
    """Seconds of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Sampler:
    """Kernel samples taken between operations: whenever the samples of the
    current pass have used less than GAP_SHARE of its time so far."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.start = perf_counter()

    def between(self) -> None:
        while len(self.samples) < MIN_SAMPLES or \
                self.spent < GAP_SHARE * (perf_counter() - self.start):
            t0 = perf_counter()
            self.samples.append(sample())
            self.spent += perf_counter() - t0

    def factor(self) -> float:
        """KERNEL_S over the median sample: below 1 in a slow stretch."""
        return KERNEL_S / statistics.median(self.samples)
