"""A fixed numpy kernel that gauges how fast the machine runs right now.

On a shared machine the speed a process gets drifts by tens of per
cent over minutes, and CPU seconds drift with it (time the hypervisor
gives to other guests, or a busy sibling core, is still counted as
ours).  The benchmark runs slices of this kernel before every
operation, for about 3 % of the previous operation's CPU time and at
least one, and divides the operation's CPU time by the median of the
last WINDOW slices, so such drift cancels.  Set-up times are scaled to
a machine on which one slice takes REFERENCE_S seconds.

The slice is the grid-zeta kernel's inner step, exp(-i t log k) over a
block of nodes followed by the weighted row sum, written here with numpy
alone (no change to zetalab can move it), at two shapes: 64 nodes by
2000 terms, the scale of hybrid-high, and four times 128 nodes by 250
terms, the scale of scan-low and lab-session.  Measured against
operations of all three workloads in 20-second windows, the two shapes
together tracked each of them about as well as the best single shape
for that workload; pure-Python work tracked none of them well.
"""

import time

import numpy as np

SHAPES = ((64, 2000, 1), (128, 250, 4))  # (nodes, terms, repeats)
SHARE = 0.03
WINDOW = 9
REFERENCE_S = 0.010  # nominal; the baseline machine (baseline.json) ran a slice in 10 to 17 ms


def _block(nodes: int, terms: int):
    log_k = np.log(np.arange(1, terms + 1, dtype=np.float64))
    return np.linspace(1000.0, 1001.0, nodes), log_k, np.exp(-0.75 * log_k)


BLOCKS = [(_block(nodes, terms), repeats) for nodes, terms, repeats in SHAPES]


def slice_cpu() -> float:
    """CPU seconds of one calibration slice."""
    start = time.process_time()
    for (ts, log_k, weights), repeats in BLOCKS:
        for _ in range(repeats):
            np.exp(np.outer(ts, log_k) * (-1j)) @ weights
    return time.process_time() - start


def slices_for(seconds: float) -> list[float]:
    """CPU seconds of calibration slices run until they add up to SHARE
    of `seconds` (the CPU time of the operation before); at least one."""
    times = [slice_cpu()]
    while sum(times) < SHARE * seconds:
        times.append(slice_cpu())
    return times
