"""Measurements outside the workload's operation list.

- ``measure_setup``: seconds from starting a fresh interpreter to the
  moment it has imported zetalab and done the first-call warm-up, raw
  and scaled by the calibration slices run just before each start.
- ``kernel_probe``: microseconds per node of a fixed two-row grid
  evaluation at t = 1e2, 1e3 and 1e4.
- ``thread_probe``: serial time over threads=2 time on one fixed
  quadrature spec, with bit identity checked.
- ``layer_probe``: one small call into every layer, run after each
  traced pass so that no layer's counters read zero on a workload that
  bypasses it.
- ``zeta_rel_err_max``: the engine against ``mpmath.zeta`` at 30 digits.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate

KERNEL_HEIGHTS = {"t1e2": 1e2, "t1e3": 1e3, "t1e4": 1e4}
KERNEL_NODES = 128
THREAD_SPEC = (0.0, 128.0)
ERR_RANGES = {
    "hybrid-high": (1000.0, 4765.0),
    "scan-low": (1.0, 184.0),
    "lab-session": (1.0, 2000.0),
}
ERR_NODES = 24
ERR_SIGMAS = (0.5, 0.75, 1.0)
PROBE_REPEATS = 3
SETUP_SLICES = 5


def warm_up(zl, workload: str):
    """First-call work every run pays once: Bernoulli and Gauss-rule caches,
    and for the lab session the CLI parser, scalar zeta and a sieve."""
    moments = zl.moments
    moments.integrate_moment(moments.MomentSpec(0.75, 1, 1000.0, 1000.125))
    if workload == "lab-session":
        zl.cli.build_parser()
        zl.zeta.zeta(complex(0.75, 20.0))
        zl.dirichlet.DivisorTable(10_000)


def measure_setup(workload: str, root: str, repeats: int) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, one per child interpreter: (seconds,
    seconds scaled to a machine on which a calibration slice takes
    calibrate.REFERENCE_S, by the median of SETUP_SLICES slices run just
    before the child starts)."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    times, scaled = [], []
    for _ in range(repeats):
        gauge = statistics.median(calibrate.slice_cpu() for _ in range(SETUP_SLICES))
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, child, workload], cwd=root, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed: {line!r}, exit code {code}")
        times.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / gauge)
    return times, scaled


def kernel_probe(zl) -> dict[str, float]:
    out = {}
    for name, height in KERNEL_HEIGHTS.items():
        ts = height + np.linspace(0.0, 1.0, KERNEL_NODES)
        runs = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            zl.zeta.zeta_grid_multi([0.5, 0.75], ts)
            runs.append(time.perf_counter() - start)
        out[name] = statistics.median(runs) / KERNEL_NODES * 1e6
    return out


def thread_probe(zl) -> tuple[float, list[str]]:
    """(serial seconds / threads=2 seconds, problems)."""
    quadrature, zeta = zl.quadrature, zl.zeta

    def integrand(ts):
        rows = zeta.zeta_grid_multi([0.5, 0.75], ts)
        return np.abs(rows[0]) ** 4 * np.abs(rows[1]) ** 2

    times = {1: [], 2: []}
    values = {}
    for _ in range(PROBE_REPEATS):
        for threads in (1, 2):
            settings = quadrature.QuadratureSettings(threads=threads)
            start = time.perf_counter()
            values[threads] = quadrature.integrate(integrand, *THREAD_SPEC, settings)
            times[threads].append(time.perf_counter() - start)
    problems = []
    if values[1] != values[2]:
        problems.append(f"thread probe: threads=2 gave {values[2]!r}, serial {values[1]!r}")
    return statistics.median(times[1]) / statistics.median(times[2]), problems


def layer_probe(zl):
    """One small fixed call into each layer."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["pairs", "thresholds", "--pair", "huxley32"],
            ["pairs", "enumerate", "--depth", "2"],
            ["pairs", "optimize", "--objective", "(5k + l)/(4k + 1)", "--depth", "2"],
        ):
            if zl.cli.main(argv) != 0:
                raise RuntimeError(f"layer probe: {argv} failed")
    zl.report.fe_check_rows("coarse", zl.zeta.DEFAULT_SETTINGS)
    table = zl.dirichlet.DivisorTable(1000)
    zl.dirichlet.divisor_phase_sum_direct(997, 1.3, table)
    zl.dirichlet.divisor_phase_sum_hyperbola(997, 1.3)


def zeta_rel_err_max(zl, workload: str) -> float:
    """Largest |engine - mpmath| / max(|mpmath|, 1) over fixed nodes.

    Both engine paths are measured: the grid kernel and scalar zeta().
    The denominator is floored at 1 so a node that happens to sit near a
    zero of zeta does not decide the figure.  The nodes are fixed per
    workload, not seeded: the maximum over seeded nodes spread by 30 to
    50 % between seeds, wider than any bound the benchmark may set.
    """
    import mpmath  # here, so the set-up child does not import it


    lo, hi = ERR_RANGES[workload]
    step = (hi - lo) / ERR_NODES
    ts = lo + step * (np.arange(ERR_NODES) + 0.5) + 0.123
    grid = zl.zeta.zeta_grid_multi(list(ERR_SIGMAS), ts)
    worst = 0.0
    with mpmath.workdps(30):
        for row, sigma in enumerate(ERR_SIGMAS):
            for col, t in enumerate(ts):
                ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(t))))
                scale = max(abs(ref), 1.0)
                for value in (grid[row, col], zl.zeta.zeta(complex(sigma, float(t)))):
                    worst = max(worst, abs(value - ref) / scale)
    return worst
