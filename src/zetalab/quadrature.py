"""Deterministic panel quadrature for oscillatory moment integrands.

The t-axis is cut into panels of width

    width(t) = scale * min(1/4 + t/2, 4 / log(2 + t)),

and each panel gets the Gauss-Kronrod pair G_10 / K_21, QUADPACK's
qk21, held as that fixed table of nodes and weights.  n = 10 is
QuadratureSettings.points_per_panel, a constant of the rule and not a
setting, because the width below is sized for 21 nodes: a different n
would need a different width.  The width is set by the
integrand's bandwidth, not by the spacing of the zeros: the moment
integrands |zeta(1/2+it)|^4 |zeta(sigma+it)|^{2j} are products
of Dirichlet polynomials of length about sqrt(t / 2 pi), so their
frequencies stay below about (2 + j) log(t / 2 pi) (the Nyquist
argument behind Odlyzko's band-limited interpolation of Z(t)).  Above
t* = 3.975..., where the two terms meet, a panel spans at most
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

Below t* the width is 1/4 at t = 0 and grows geometrically,
t_{k+1} + 1/2 = (1 + scale/2)(t_k + 1/2): only the panels near t = 0
need to be narrow, because the pole of zeta(sigma+it) at s = 1 lies at
distance 1 - sigma from t = 0, and the integrand's radius of
analyticity grows with the distance from it.

So the width rises up to t* and falls after it: on [t_min, t_max] it
is least at one end, and every panel but the last is at least that
wide.  The partition thus has at most (t_max - t_min) / min(width(t_min),
width(t_max)) + 1 panels, which panel_edges checks against its budget
before it cuts a panel.

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

Pieces: integrate_pieces takes break points b_0 < ... < b_k and
integrates every piece [b_{i-1}, b_i] in one pass, as QUADPACK's qagp
does over user-given break points; integrate is its one-piece call.
Each piece keeps its own greedy partition, so it has exactly the
panels it would have alone, but the pieces' panels are concatenated in
ascending t and evaluated in the same fixed chunks, so one integrand
call can span pieces.  That saves the integrand's fixed cost per call
(for the moment integrands: the length rule, the cell set-up and the
Euler-Maclaurin tail) once per piece.  An integrand that depends on its
whole batch, as the zeta kernel does through N and its Taylor cells,
may give a piece different last bits than a separate integral would.

Determinism under threading: each piece's partition is a pure function
of (b_{i-1}, b_i, scale); the concatenated panels are processed in
fixed-size chunks whose boundaries never depend on the thread count;
every chunk writes its panel values and errors into preallocated slots
by index; each piece's reductions are math.fsum over its own panels in
ascending panel order.  Serial and parallel runs therefore produce
bit-identical values and errors.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import fsum
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError

_CHUNK = 256  # panels per work unit; fixed so threading cannot repartition
_MAX_PANELS = 5_000_000
_MAX_THREADS = 64  # integrate starts min(threads, chunks) OS threads

# QUADPACK's qk21 (Piessens et al., 1983): the non-negative half of the
# symmetric G_10 / K_21 pair on [-1, 1], the 11 Kronrod nodes from 0 up,
# their weights, and the weights of the 5 Gauss nodes _KRONROD_NODES[1::2]
_KRONROD_NODES = (
    0.0, 0.14887433898163122, 0.29439286270146, 0.4333953941292472,
    0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
    0.8650633666889845, 0.9301574913557084, 0.9739065285171717,
    0.9956571630258082,
)
_KRONROD_WEIGHTS = (
    0.14944555400291698, 0.14773910490133813, 0.14277593857706,
    0.13470921731147362, 0.12349197626206578, 0.10938715880229782,
    0.09312545458369742, 0.07503967481092019, 0.05475589657435197,
    0.03255816230796472, 0.011694638867371907,
)
_GAUSS_WEIGHTS = (
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
)
# mirrored into the whole rule, ascending; _W_GAUSS goes with _X[1::2]
_X = np.array(tuple(-x for x in _KRONROD_NODES[:0:-1]) + _KRONROD_NODES)
_W_KRONROD = np.array(_KRONROD_WEIGHTS[:0:-1] + _KRONROD_WEIGHTS)
_W_GAUSS = np.array(_GAUSS_WEIGHTS[::-1] + _GAUSS_WEIGHTS)


@dataclass(frozen=True)
class QuadratureSettings:
    """Panel scheme controls: a width multiplier (refinement and split's
    I2 run at half scale) and the thread count, which comes from
    configuration and never from the machine.  The Gauss order n = 10
    of the G_10 / K_21 pair per panel is a constant of the rule, because
    the width rule is sized for its 21 nodes."""

    points_per_panel: ClassVar[int] = 10
    width_scale: float = 1.0
    threads: int = 1

    def __post_init__(self):
        _check_scale(self.width_scale)
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.threads > _MAX_THREADS:
            raise ResourceLimitError(
                f"threads = {self.threads} exceeds the {_MAX_THREADS} thread cap"
            )

    def halved(self) -> "QuadratureSettings":
        return replace(self, width_scale=self.width_scale / 2)


def _check_scale(scale: float):
    if not (0 < scale <= 1):  # also refuses NaN
        raise DomainError(f"width scale must lie in (0, 1], got {scale}")


def panel_width(t: float, scale: float = 1.0) -> float:
    return scale * min(0.25 + t / 2, 4 / math.log(2 + t))


def panel_edges(t_min: float, t_max: float, scale: float = 1.0) -> np.ndarray:
    """Greedy partition of [t_min, t_max] by the width rule, which is
    graded from t = 0 and so needs 0 <= t_min.  Refused up front when
    the endpoint bound of the module docstring allows more than
    _MAX_PANELS panels, and in the loop when rounding cuts the steps
    short of the widths the bound assumes: a width under half an ulp of
    t leaves t + width == t."""
    _check_scale(scale)
    if not (0 <= t_min <= t_max):
        raise DomainError(f"need 0 <= t_min <= t_max, got [{t_min}, {t_max}]")
    narrowest = min(panel_width(t_min, scale), panel_width(t_max, scale))
    # a product, not a quotient: the width at t_max = inf is 0
    refused = not t_max - t_min <= (_MAX_PANELS - 1) * narrowest
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


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    t_min: float,
    t_max: float,
    settings: QuadratureSettings = QuadratureSettings(),
) -> tuple[float, int, float]:
    """integral of f over [t_min, t_max]; returns (value, panel count,
    error estimate): the one-piece call of integrate_pieces."""
    return integrate_pieces(f, (t_min, t_max), settings)[0]


def _fsum(xs: np.ndarray) -> float:
    """fsum in index order; a sum past the float range reads as the plain
    float sum does (+-inf), where fsum would raise."""
    xs = xs.tolist()
    try:
        return fsum(xs)
    except OverflowError:
        return sum(xs)


def integrate_pieces(
    f: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[float],
    settings: QuadratureSettings = QuadratureSettings(),
) -> list[tuple[float, int, float]]:
    """integral of f over each piece [b_{i-1}, b_i] of the break points
    b_0 < ... < b_k; returns (value, panel count, error estimate) per
    piece, QUADPACK's qagp in one pass.

    Each piece has its own panel_edges partition, and a piece that is
    empty or has a NaN end has no panels and reads (0.0, 0, 0.0).  A
    piece's value is the fsum of its panels' Kronrod sums, its error
    estimate the fsum of their |Kronrod - Gauss|, both in panel order.
    f maps an array of nodes to an array of values and must be pure; it
    is called once per fixed-size chunk of the pieces' panels, in
    ascending t, possibly from worker threads.
    """
    parts = [  # edges per piece; one edge is a piece without panels
        panel_edges(lo, hi, settings.width_scale) if hi > lo else np.zeros(1)
        for lo, hi in zip(breaks, breaks[1:])
    ]
    bounds = np.cumsum([0] + [e.size - 1 for e in parts]).tolist()
    n_panels = bounds[-1]
    lefts = np.concatenate([e[:-1] for e in parts])
    rights = np.concatenate([e[1:] for e in parts])
    mids = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    panel_values = np.empty(n_panels, dtype=np.float64)
    panel_errors = np.empty(n_panels, dtype=np.float64)

    def run_chunk(lo: int):
        hi = min(lo + _CHUNK, n_panels)
        nodes = mids[lo:hi, None] + halves[lo:hi, None] * _X[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=np.float64)
        vals = vals.reshape(hi - lo, _X.size)
        # an overflowing integrand gives inf or NaN sums, which the caller
        # refuses; errstate is per thread, so it is set here in the worker
        with np.errstate(over="ignore", invalid="ignore"):
            kronrod = halves[lo:hi] * (vals * _W_KRONROD).sum(axis=1)
            gauss = halves[lo:hi] * (vals[:, 1::2] * _W_GAUSS).sum(axis=1)
            panel_values[lo:hi] = kronrod
            panel_errors[lo:hi] = np.abs(kronrod - gauss)

    starts = range(0, n_panels, _CHUNK)
    if settings.threads == 1:
        for lo in starts:
            run_chunk(lo)
    else:
        with ThreadPoolExecutor(max_workers=settings.threads) as pool:
            list(pool.map(run_chunk, starts))
    return [
        (_fsum(panel_values[a:b]), b - a, _fsum(panel_errors[a:b]))
        for a, b in zip(bounds, bounds[1:])
    ]
