"""Desk-scale moment integrals of zeta powers along vertical lines.

The central quantity is the hybrid moment

    I(T) = integral_0^T |zeta(1/2+it)|^4 |zeta(sigma+it)|^{2j} dt,

for j in {0, 1, 2}: j = 0 is the plain fourth moment, j = 1 weights it
by a second-power factor off the critical line, j = 2 by a fourth
power.  Everything here is numerical evidence, not proof: the growth
exponents these moments carry are asymptotic statements, and a scan up
to T ~ 2000 can only illustrate them.  Growth fits are therefore
reported with deliberately wide acceptance bands and no hard claims.

Also provided: the split of the hybrid moment into the two integrals
I1 (smoothed-polynomial weight) and I2 (short-average weight) that
arise from replacing |zeta(sigma+it)| by its Mellin-smoothed series
plus a short integral of |zeta(1/2+it+iv)| over |v| <= log^2 T; the
ratio harness for the weighted fourth-moment mean-value bound

    integral_0^T |sum_m a_m m^{it}|^2 |zeta(1/2+it)|^4 dt
        <= C T^{1+eps} M (1 + M^2 T^{-1/2}) max|a_m|^2,

with eps fixed at 0.01 to make the right side a number; and a sixth
moment probe normalized by T^{5/4}.  Suppressed constants are unknown,
so all three report values or ratios and never pass/fail.

Every result (value, error estimate, panels) comes from one
Gauss-Kronrod pass over prod_i |zeta(sigma_i+it)|^{p_i}, times a weight
for split and Watt.  The pass takes break points and gives one result
per piece between them: a dyadic scan integrates all its pieces
[T_{i-1}, T_i] in one pass, the other moments are one-piece calls.  A
Dirichlet-polynomial weight |sum_m c_m m^{-it}|^2 (split's I1, Watt's
lhs) is taken by the kernel of the zeta rows, zeta._dirichlet_sum, with
log_len = log M.  Per piece, the value is the fsum of its panels'
Kronrod sums; the estimate is the fsum of |K - G| over its panels (see
the quadrature module) plus the integrand's rounding level
eps t_max (sum_i p_i log N + 2 log M) |I|, floored at 1e-12 (1 + |I|).
N is the zeta-sum length at 1/2 + i t_max for the piece's t_max, whose
phases t log n carry an absolute error of about eps t log N; M is the
length of a Dirichlet-polynomial weight, 1 without one.  When |K - G|
exceeds 1e-6 (1 + |I|) the panels cannot resolve the integrand (a pole
at t = 0 for sigma = 1, or too few points per panel) and a precision
error is raised.  Integration is deterministic for a fixed input,
threaded or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dirichlet import _term_count
from .errors import (
    DegenerateFitError,
    DomainError,
    PrecisionError,
    ResourceLimitError,
)
from .quadrature import QuadratureSettings, integrate, integrate_pieces
from .zeta import DEFAULT_SETTINGS, EvalSettings, _choose_terms, zeta_grid_multi
from .zeta import _MAX_WEIGHT_TERMS, _dirichlet_sum

_MAX_T_MOMENT = 1.0e4
_MAX_T_SPLIT = 2000.0
_ERROR_FLOOR = 1e-12
_STALL_TOL = 1e-6
_PROFILE_STEP = 0.005  # fine-grid step for the short-average profile
_EPS = 2.0**-52


@dataclass(frozen=True)
class MomentSpec:
    """One moment integral: exponent data and the quadrature scheme."""

    sigma: float
    j: int
    t_min: float
    t_max: float
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)

    def __post_init__(self):
        if not (0.5 <= self.sigma <= 1):
            raise DomainError(f"sigma must lie in [1/2, 1], got {self.sigma}")
        if self.j not in (0, 1, 2):
            raise DomainError(f"j must be 0, 1 or 2, got {self.j}")
        if not (0 <= self.t_min <= self.t_max):
            raise DomainError(f"need 0 <= t_min <= t_max, got {self}")


@dataclass(frozen=True)
class MomentResult:
    value: float
    error_estimate: float
    panel_count: int

    def __post_init__(self):
        if self.value < 0 or self.error_estimate < 0:
            raise DomainError("moment value and error estimate must be >= 0")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log(value) against log(T); illustrative only."""

    samples: tuple[tuple[float, float], ...]
    exponent: float
    intercept: float
    residual_rms: float

    def __post_init__(self):
        if len(self.samples) < 3:
            raise DomainError("growth fit needs >= 3 samples")
        if any(v <= 0 for _, v in self.samples):
            raise DegenerateFitError("growth fit needs positive values")


def _check_height(t_max: float, limit: float):
    """The desk-scale guard, run before any other input check; a NaN or
    infinite T below the limit is then refused as outside the domain."""
    if t_max > limit:
        raise ResourceLimitError(f"T {t_max:g} beyond the desk-scale limit {limit:g}")
    if not math.isfinite(t_max):
        raise DomainError(f"T must be finite, got {t_max}")


def _moment(
    rows: Sequence[tuple[float, int]],
    breaks: Sequence[float],
    quadrature: QuadratureSettings,
    eval_settings: EvalSettings,
    poly: Optional[np.ndarray] = None,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> list[MomentResult]:
    """The moment path of the module docstring over each piece
    [b_{i-1}, b_i] of the break points, in one quadrature pass:
    rows = ((sigma_i, p_i), ...) multiply in order, then
    |sum_m poly_m m^{-it}|^2 (M = len(poly)), then weight(t).  An empty
    piece, or one with a NaN end, reads 0."""
    sigmas = [sigma for sigma, _ in rows]
    log_m = 0.0
    if poly is not None:
        log_m = math.log(max(len(poly), 1))
        # complex coefficients go in as a real and an imaginary row
        coeff_rows = np.array([poly.real, poly.imag] if np.any(np.imag(poly)) else [poly.real])

    def f(ts: np.ndarray) -> np.ndarray:
        zs = zeta_grid_multi(sigmas, ts, eval_settings)
        vals = np.abs(zs[0]) ** rows[0][1]
        for z, (_, power) in zip(zs[1:], rows[1:]):
            vals = vals * np.abs(z) ** power
        if poly is not None:
            sums = _dirichlet_sum(coeff_rows, ts, log_m)
            vals = vals * np.abs(sums[0] if len(sums) == 1 else sums[0] + 1j * sums[1]) ** 2
        return vals if weight is None else vals * weight(ts)

    pieces = list(zip(breaks, breaks[1:]))
    # one piece goes through integrate, the name perfbench's tracer wraps
    if len(pieces) == 1:
        quads = [integrate(f, *pieces[0], quadrature)]
    else:
        quads = integrate_pieces(f, breaks, quadrature)
    tops = [complex(0.5, hi) for lo, hi in pieces if hi > lo]
    terms = iter(_choose_terms(np.array(tops), eval_settings).tolist())
    results = []
    for (t_min, t_max), (value, panels, quad_error) in zip(pieces, quads):
        if not t_max > t_min:  # empty, or a NaN end, as in integrate_pieces
            results.append(MomentResult(0.0, 0.0, 0))
            continue
        where = f"rows {tuple(rows)} over [{t_min}, {t_max}]"
        if not (math.isfinite(value) and math.isfinite(quad_error)):
            raise PrecisionError(
                f"moment on {where} is not finite: value {value!r}, |K - G| {quad_error!r}"
            )
        scale = 1 + abs(value)
        if quad_error > _STALL_TOL * scale:
            raise PrecisionError(
                f"quadrature stalled on {where}: "
                f"value {value!r}, |K - G| {quad_error!r}"
            )
        zeta_level = sum(p for _, p in rows) * _EPS * t_max * math.log(next(terms))
        poly_level = 2 * _EPS * t_max * log_m
        rounding = (zeta_level + poly_level) * abs(value)
        results.append(
            MomentResult(value, max(quad_error + rounding, _ERROR_FLOOR * scale), panels)
        )
    return results


def _rows(sigma: float, j: int) -> list[tuple[float, int]]:
    """|zeta(1/2+it)|^4 |zeta(sigma+it)|^{2j}; j = 0 has no sigma row."""
    return [(0.5, 4)] + ([(sigma, 2 * j)] if j else [])


def integrate_moment(
    spec: MomentSpec, eval_settings: EvalSettings = DEFAULT_SETTINGS
) -> MomentResult:
    """|zeta(1/2+it)|^4 |zeta(sigma+it)|^{2j} over the spec's interval;
    the rounding term of the estimate is (4 + 2j) eps t_max log N |I|.
    For j = 0 the sigma row is never evaluated, so the result is
    exactly independent of sigma, bit for bit."""
    _check_height(spec.t_max, _MAX_T_MOMENT)
    (res,) = _moment(
        _rows(spec.sigma, spec.j), (spec.t_min, spec.t_max), spec.quadrature, eval_settings
    )
    return res


def fit_growth(samples: Sequence[tuple[float, float]]) -> GrowthFit:
    """Fit log(value) = exponent * log(T) + intercept by least squares,
    the closed-form line through centred sums taken with math.fsum, so
    the bytes depend on no BLAS build or thread count."""
    if len(samples) < 3:
        raise DomainError(f"growth fit needs >= 3 samples, got {len(samples)}")
    for big_t, value in samples:
        if big_t <= 0:
            raise DomainError(f"sample T must be > 0, got {big_t}")
        if value <= 0:
            raise DegenerateFitError(f"sample value must be > 0, got {value} at T = {big_t}")
    # after the sign checks, so what they refuse keeps its error
    for big_t, value in samples:
        if not (math.isfinite(big_t) and math.isfinite(value)):
            raise DomainError(f"sample must be finite, got {value} at T = {big_t}")
    log_t = [math.log(big_t) for big_t, _ in samples]
    log_v = [math.log(value) for _, value in samples]
    x_bar = math.fsum(log_t) / len(samples)
    y_bar = math.fsum(log_v) / len(samples)
    dx = [x - x_bar for x in log_t]
    spread = math.fsum(d * d for d in dx)
    if spread == 0:
        raise DegenerateFitError("growth fit needs at least two distinct T")
    exponent = math.fsum(d * (y - y_bar) for d, y in zip(dx, log_v)) / spread
    intercept = y_bar - exponent * x_bar
    resid = [y - (exponent * x + intercept) for x, y in zip(log_t, log_v)]
    rms = math.sqrt(math.fsum(r * r for r in resid) / len(samples))
    return GrowthFit(tuple(samples), exponent, intercept, rms)


def dyadic_scan(
    sigma: float,
    j: int,
    t_list: Sequence[float],
    quadrature: QuadratureSettings = QuadratureSettings(),
    eval_settings: EvalSettings = DEFAULT_SETTINGS,
) -> GrowthFit:
    """Integrate [0, T] for each T and fit the growth exponent.

    Every piece [T_{i-1}, T_i] (T_0 = 0) is checked as integrate_moment
    checks it before any is integrated; then one quadrature pass over
    the break points 0, T_1, ..., T_k integrates each piece once, and
    the sample at T_i is the running fsum of the pieces.  T^{1+eps} is
    the asymptotic target; at desk scale the fitted exponent is recorded
    as illustrative, nothing more.
    """
    if len(t_list) < 3:
        raise DomainError("dyadic scan needs >= 3 values of T")
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise DomainError("T list must be strictly ascending")
    breaks = [0.0] + [float(big_t) for big_t in t_list]
    for lo, hi in zip(breaks, breaks[1:]):
        MomentSpec(sigma, j, lo, hi, quadrature)
        _check_height(hi, _MAX_T_MOMENT)
    pieces = []
    samples = []
    for big_t, res in zip(breaks[1:], _moment(_rows(sigma, j), breaks, quadrature, eval_settings)):
        pieces.append(res.value)
        samples.append((big_t, math.fsum(pieces)))
    return fit_growth(samples)


def _critical_profile(t_hi: float, eval_settings: EvalSettings):
    """Cumulative G(u) = integral_0^u |zeta(1/2+iv)| dv on a fine grid,
    returned as an interpolant valid for |u| <= t_hi (odd extension,
    since |zeta(1/2+iv)| is even in v)."""
    npts = int(round(t_hi / _PROFILE_STEP)) + 1
    grid = np.linspace(0.0, t_hi, npts)
    vals = np.abs(zeta_grid_multi([0.5], grid, eval_settings)[0])
    steps = 0.5 * np.diff(grid) * (vals[1:] + vals[:-1])  # the trapezoid rule
    cum = np.concatenate(([0.0], np.cumsum(steps)))

    def profile(u: np.ndarray) -> np.ndarray:
        return np.sign(u) * np.interp(np.abs(u), grid, cum)

    return profile


def split_i1_i2(
    big_t: float,
    sigma: float,
    smoothing: float,
    quadrature: QuadratureSettings = QuadratureSettings(),
    eval_settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[MomentResult, MomentResult]:
    """The two pieces the smoothed series splits the hybrid moment into:

        I1 = integral_0^T |zeta(1/2+it)|^4
                 |sum_{n <= Y log^2 T} e^{-n/Y} n^{-sigma-it}|^2 dt
        I2 = Y^{1-2 sigma} integral_0^T |zeta(1/2+it)|^4
                 (integral_{-log^2 T}^{log^2 T} |zeta(1/2+it+iv)| dv)^2 dt

    with Y = smoothing.  The inner v-integral is read off a cumulative
    fine-grid profile of |zeta(1/2+iv)|, so the outer quadrature costs
    one subtraction per node.  I2's value and estimate both carry the
    Y^{1-2 sigma} factor.  I2 runs on quadrature.halved(), half-width
    panels: its weight has a corner at every zero of zeta(1/2+iv) and is
    piecewise linear in t, so the bandwidth rule of the quadrature
    module, which assumes an analytic integrand, does not cover it.
    """
    _check_height(big_t, _MAX_T_SPLIT)
    if big_t <= 1:
        raise DomainError(f"T must be > 1, got {big_t}")
    if not 1 <= smoothing < math.inf:
        raise DomainError(f"smoothing scale Y must be finite and >= 1, got {smoothing}")
    if not (0.5 < sigma < 1):
        raise DomainError(f"sigma must lie in (1/2, 1), got {sigma}")
    log_sq = math.log(big_t) ** 2
    m = _term_count(smoothing * log_sq, "Y log^2 T", _MAX_WEIGHT_TERMS)
    n = np.arange(1, m + 1, dtype=np.float64)
    coeffs = np.exp(-n / smoothing) * n ** (-sigma)
    profile = _critical_profile(big_t + log_sq, eval_settings)

    def short_average(ts: np.ndarray) -> np.ndarray:
        return (profile(ts + log_sq) - profile(ts - log_sq)) ** 2

    crit = [(0.5, 4)]
    (i1,) = _moment(crit, (0.0, big_t), quadrature, eval_settings, coeffs)
    (i2,) = _moment(
        crit, (0.0, big_t), quadrature.halved(), eval_settings, weight=short_average
    )
    factor = smoothing ** (1 - 2 * sigma)
    return i1, MomentResult(
        factor * i2.value, factor * i2.error_estimate, i2.panel_count
    )


def watt_ratio(
    big_t: float,
    coefficients: Sequence[complex],
    quadrature: QuadratureSettings = QuadratureSettings(),
    eval_settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[MomentResult, float, float]:
    """Weighted fourth moment against its mean-value comparator.

    lhs = integral_0^T |sum_{m <= M} a_m m^{it}|^2 |zeta(1/2+it)|^4 dt
    with M = len(coefficients),
    rhs = T^{1.01} M (1 + M^2 T^{-1/2}) max|a_m|^2, ratio = lhs/rhs
    (0 when both vanish; lhs is then an exact zero with no panels).  The
    0.01 stands in for an arbitrarily small epsilon; the suppressed
    constant is unknown, so the ratio is recorded, never asserted.
    """
    _check_height(big_t, _MAX_T_SPLIT)
    if big_t < 0:
        raise DomainError(f"T must be >= 0, got {big_t}")
    a = np.asarray(list(coefficients), dtype=np.complex128)
    m_length = a.size
    if m_length > _MAX_WEIGHT_TERMS:
        raise ResourceLimitError(f"{m_length} weight terms, beyond {_MAX_WEIGHT_TERMS}")
    if m_length < 1:
        raise DomainError("need at least one coefficient")
    if not np.all(np.isfinite(a)):
        raise DomainError("coefficients must be finite")
    top = float(np.max(np.abs(a)))
    if big_t == 0 or top == 0:
        return MomentResult(0.0, 0.0, 0), 0.0, 0.0
    rhs = big_t**1.01 * m_length * (1 + m_length**2 / math.sqrt(big_t)) * (top * top)
    if not 0 < rhs < math.inf:  # so is lhs, which carries max|a_m|^2 too
        raise DomainError(
            f"rhs = {rhs!r} lies outside the float range (max|a_m| = {top!r})"
        )
    # |sum a_m m^{it}|^2 = |sum conj(a_m) m^{-it}|^2
    (lhs,) = _moment([(0.5, 4)], (0.0, big_t), quadrature, eval_settings, np.conj(a))
    return lhs, rhs, lhs.value / rhs


def sixth_moment_probe(
    big_t: float,
    quadrature: QuadratureSettings = QuadratureSettings(),
    eval_settings: EvalSettings = DEFAULT_SETTINGS,
) -> MomentResult:
    """integral_0^T |zeta(1/2+it)|^6 dt normalized by T^{5/4}, the shape
    of the sharpest known sixth-moment bound; a trend probe only.  The
    estimate carries the same normalization."""
    _check_height(big_t, _MAX_T_SPLIT)
    if big_t < 0:
        raise DomainError(f"T must be >= 0, got {big_t}")
    (res,) = _moment([(0.5, 6)], (0.0, big_t), quadrature, eval_settings)
    if big_t == 0:
        return res
    norm = big_t**1.25
    return MomentResult(res.value / norm, res.error_estimate / norm, res.panel_count)
