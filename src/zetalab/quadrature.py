"""Deterministic panel quadrature for oscillatory moment integrands.

The t-axis is cut into panels of width

    width(t) = scale * min(1/4 + t/2, 4 / log(2 + t)),

and each panel gets a Gauss-Kronrod pair G_n / K_{2n+1} (n =
points_per_panel; the default n = 10 is QUADPACK's qk21).  The width is
set by the integrand's bandwidth, not by the spacing of the zeros: the
moment integrands |zeta(1/2+it)|^4 |zeta(sigma+it)|^{2j} are products
of Dirichlet polynomials of length about sqrt(t / 2 pi), so their
frequencies stay below about (2 + j) log(t / 2 pi) (the Nyquist
argument behind Odlyzko's band-limited interpolation of Z(t)).  Above
_T_STAR = 3.975..., where the two terms meet, a panel spans at most
about 12.8 rad of the j = 2 integrand (at t = 1e4 it is 0.434 wide):
two periods of its fastest frequency under 21 Kronrod nodes, for a
rule exact to degree 3n+1 = 31.  It is about the widest panel the
estimate tolerates: at 1.5 times this width the moment estimates rose
more than 1.25-fold on 62 of 138 windows from t = 0 to 1e4, up to
772-fold (sigma = 0.6, j = 2 on [4000, 4003]).  Even at this width
the estimate is loose where a short window's integral is small beside
the integrand around it: sigma = 0.6, j = 2 on [7625, 7626.42] reads
1.8e-8 relative, against 1.1e-10 at half the width, while the value
agrees with quarter-width panels to 8.2e-12.

Below _T_STAR the width is 1/4 at t = 0 and grows geometrically,
t_{k+1} + 1/2 = (1 + scale/2)(t_k + 1/2): only the panels near t = 0
need to be narrow, because the pole of zeta(sigma+it) at s = 1 lies at
distance 1 - sigma from t = 0, and the integrand's radius of
analyticity grows with the distance from it.

The rule assumes a band-limited, analytic integrand.  The I2 weight of
moments.split_i1_i2 is neither: its short average of |zeta(1/2+iv)|
has a corner at every zero, and it is read off a piecewise-linear
profile.  At this width its estimate rose 4.4-fold at T = 96 and
passed the stall limit at T = 40 and 150, so I2 integrates on halved()
settings, half-width panels.

The 2n+1 Kronrod nodes contain the n Gauss nodes, so one evaluation of
the integrand per node gives both sums: the K sum is the value, and
|K - G| per panel is the error estimate.  |K - G| is about the error of
the n-point Gauss rule, which converges more slowly than the K rule
(exact to degree 3n+1), so it bounds the error of the value with room
to spare.  |zeta(1/2+it)|^2 is real-analytic in t (it is the product of
two analytic factors, not a bare absolute value), so both rules
converge spectrally per panel.

Determinism under threading: the panel partition is a pure function of
(t_min, t_max, scale); panels are processed in fixed-size chunks whose
boundaries never depend on the thread count; every chunk writes its
panel values and errors into preallocated slots by index; the final
reductions are math.fsum over panels in ascending panel order.  Serial
and parallel runs therefore produce bit-identical values and errors.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceLimitError

_CHUNK = 256  # panels per work unit; fixed so threading cannot repartition
_MAX_PANELS = 5_000_000
_MAX_THREADS = 64  # integrate starts min(threads, chunks) OS threads
# where the two terms of panel_width meet: 1/4 + t/2 = 4 / log(2 + t)
_T_STAR = 3.9752212295366958


@dataclass(frozen=True)
class QuadratureSettings:
    """Panel scheme controls: the Gauss order n of the G_n / K_{2n+1}
    pair per panel, a width multiplier (refinement runs at half scale),
    and the thread count, which comes from configuration and never from
    the machine."""

    points_per_panel: int = 10
    width_scale: float = 1.0
    threads: int = 1

    def __post_init__(self):
        if self.points_per_panel < 2:
            raise DomainError("points_per_panel must be >= 2")
        if not (0 < self.width_scale <= 1):
            raise DomainError("width_scale must lie in (0, 1]")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.threads > _MAX_THREADS:
            raise ResourceLimitError(
                f"threads = {self.threads} exceeds the {_MAX_THREADS} thread cap"
            )

    def halved(self) -> "QuadratureSettings":
        return QuadratureSettings(
            self.points_per_panel, self.width_scale / 2, self.threads
        )


def panel_width(t: float, scale: float = 1.0) -> float:
    return scale * min(0.25 + t / 2, 4 / math.log(2 + t))


def _panel_integral(t_min: float, t_max: float, scale: float = 1.0) -> float:
    """An upper bound on the greedy panel count of [t_min, t_max], less 1.

    Below _T_STAR the greedy edges are the geometric sequence
    t_{k+1} + 1/2 = (1 + scale/2)(t_k + 1/2), so that stretch is counted
    as its steps, up to the first edge at or past _T_STAR (stopping the
    geometric count at _T_STAR itself undercounts the panel that
    straddles it, by up to 0.04 at scale 1).  From there the width falls
    with t, so every full panel covers at least one unit of the integral
    of dt / panel_width(t), whose antiderivative is
    (1 / scale)(1/4)(2 + t)(log(2 + t) - 1)."""
    grade = math.log1p(scale / 2)
    steps, start = 0, t_min
    if t_min < _T_STAR:
        steps = math.ceil(math.log((_T_STAR + 0.5) / (t_min + 0.5)) / grade)
        start = (t_min + 0.5) * math.exp(steps * grade) - 0.5
    if t_max <= start:
        return math.log((t_max + 0.5) / (t_min + 0.5)) / grade

    def antiderivative(t: float) -> float:
        return 0.25 * (2 + t) * (math.log(2 + t) - 1)

    return steps + (antiderivative(t_max) - antiderivative(start)) / scale


def panel_edges(t_min: float, t_max: float, scale: float = 1.0) -> np.ndarray:
    """Greedy partition of [t_min, t_max] by the width rule, which is
    graded from t = 0 and so needs 0 <= t_min.  Refused up front when
    _panel_integral bounds the count above _MAX_PANELS, and in the loop
    when rounding cuts the steps short of the widths the bound assumes:
    a width under half an ulp of t leaves t + width == t."""
    if not (0 <= t_min <= t_max):
        raise DomainError(f"need 0 <= t_min <= t_max, got [{t_min}, {t_max}]")
    refused = _panel_integral(t_min, t_max, scale) + 1 > _MAX_PANELS
    edges = [t_min]
    t = t_min
    while not refused and t < t_max - 1e-12:
        t = min(t + panel_width(t, scale), t_max)
        refused = t == edges[-1] or len(edges) >= _MAX_PANELS
        edges.append(t)
    if refused:
        raise ResourceLimitError(
            f"panel partition of [{t_min}, {t_max}] at scale {scale} "
            f"exceeds {_MAX_PANELS} panels"
        )
    return np.array(edges, dtype=np.float64)


def _kronrod_recurrence(n: int) -> np.ndarray:
    """Recurrence coefficients b_k, k <= 2n, of the Jacobi-Kronrod matrix
    for the Legendre weight, by Laurie's algorithm (Math. Comp. 66 (1997)
    1133-1145) with its a_k, all 0 for an even weight, dropped.  The
    first ceil(3n/2) + 1 come from the Legendre recurrence (b_0 = 2,
    b_k = k^2 / (4k^2 - 1)), the rest from the mixed-moment recurrence
    that makes the rule exact to degree 3n+1.
    """
    b = np.zeros(2 * n + 1)
    r = np.arange(1, -(-3 * n // 2) + 1, dtype=np.float64)
    b[0] = 2.0
    b[1 : r.size + 1] = r * r / (4 * r * r - 1)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - (m - k)
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def _kronrod_rule(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Kronrod pair G_n / K_{2n+1} on [-1, 1], n = points.

    Returns (x, w_kronrod, w_gauss): the 2n+1 ascending Kronrod nodes,
    their weights, and the n Gauss weights for the nodes x[1::2].  The
    nodes are the eigenvalues of the Jacobi-Kronrod matrix, made exactly
    symmetric, with the Gauss nodes set to numpy's leggauss values; the
    Kronrod weights solve the Legendre moment conditions
    sum_i w_i P_k(x_i) = 2 [k = 0], k <= 2n, at those nodes, which is
    well conditioned and more accurate than squared eigenvector
    components.
    """
    off = np.sqrt(_kronrod_recurrence(points)[1:])
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (x - x[::-1])
    x_gauss, w_gauss = np.polynomial.legendre.leggauss(points)
    x[1::2] = x_gauss
    moments = np.zeros(2 * points + 1)
    moments[0] = 2.0
    w = np.linalg.solve(np.polynomial.legendre.legvander(x, 2 * points).T, moments)
    rule = (x, 0.5 * (w + w[::-1]), w_gauss)
    for array in rule:
        array.setflags(write=False)  # shared by every caller through the cache
    return rule


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    t_min: float,
    t_max: float,
    settings: QuadratureSettings = QuadratureSettings(),
) -> tuple[float, int, float]:
    """integral of f over [t_min, t_max]; returns (value, panel count,
    error estimate).

    The value is the fsum of the per-panel Kronrod sums, the error
    estimate the fsum of the per-panel |Kronrod - Gauss|, both in panel
    order.  f maps an array of nodes to an array of values and must be
    pure; it is called once per fixed-size panel chunk, possibly from
    worker threads.
    """
    if not t_max > t_min:  # empty, or a NaN bound
        return 0.0, 0, 0.0
    edges = panel_edges(t_min, t_max, settings.width_scale)
    n_panels = edges.size - 1
    x, w_kronrod, w_gauss = _kronrod_rule(settings.points_per_panel)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    panel_values = np.empty(n_panels, dtype=np.float64)
    panel_errors = np.empty(n_panels, dtype=np.float64)

    def run_chunk(lo: int):
        hi = min(lo + _CHUNK, n_panels)
        nodes = mids[lo:hi, None] + halves[lo:hi, None] * x[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=np.float64)
        vals = vals.reshape(hi - lo, x.size)
        kronrod = halves[lo:hi] * (vals * w_kronrod).sum(axis=1)
        gauss = halves[lo:hi] * (vals[:, 1::2] * w_gauss).sum(axis=1)
        panel_values[lo:hi] = kronrod
        panel_errors[lo:hi] = np.abs(kronrod - gauss)

    starts = range(0, n_panels, _CHUNK)
    if settings.threads == 1:
        for lo in starts:
            run_chunk(lo)
    else:
        with ThreadPoolExecutor(max_workers=settings.threads) as pool:
            list(pool.map(run_chunk, starts))
    return fsum(panel_values.tolist()), n_panels, fsum(panel_errors.tolist())
