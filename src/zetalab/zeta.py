"""Euler-Maclaurin evaluation of zeta(s), the chi factor, and finite-sum
representations of zeta near the critical strip.

The workhorse formula, valid for sigma > -(2q+1):

    zeta(s) = sum_{n=1}^{N-1} n^{-s}
            + N^{1-s}/(s-1) + N^{-s}/2
            + sum_{r=1}^{q} B_{2r}/(2r)! * s(s+1)...(s+2r-2) * N^{1-s-2r}
            + R_q(s, N)

with the classical remainder bound

    |R_q| <= |B_{2q+2}|/(2q+2)! * |s(s+1)...(s+2q)| * N^{-sigma-2q-1}
             * |s+2q+1|/(sigma+2q+1).

In log space the bound is A(s) - (sigma+2q+1) log N with A independent
of N.  Neither N nor q is a setting: q is fixed at 12 and N is solved
for, the smallest N >= 2 whose bound meets target_abs_error (default
1e-13), the one accuracy knob.  At sigma = 1/2 that is N = 92 at
t = 184, 515 at t = 1e3 and 2529 at t = 4765.  Against mpmath, q = 6,
12 and 20 all land at the phase-rounding level at 1/2 + 4750i; q sets
only the cost (N = 7704, 2521 and 1566 there).  N and every exactly
summed series here stay within the dirichlet module's _MAX_TERMS; N
peaks at 1,355,208 (sigma = -1, |t| = 10^6).  The smoothed series stops
where its weight e^{-n/Y} reaches working precision.

chi(s) = 2^s pi^(s-1) Gamma(1-s) sin(pi s / 2) is the ratio
zeta(s)/zeta(1-s) from the functional equation.  It is computed from a
single exponentiation of

    s ln 2 + (s-1) ln pi + _log_gamma(1-s) + logsin(pi s / 2),

where logsin switches to the form -iz + log(1 - e^{2iz}) + log(i/2) for
large |Im z| so nothing overflows.  _log_gamma(z) shifts z up by the
recurrence while |z| < 8, multiplying the shifts z (z+1) ... (z+m-1)
into one complex product, evaluates Stirling's series with 10 Bernoulli
terms at z + m, and subtracts one log of the product.  Left of
Re z = -1 it reflects, log pi - logsin(pi z) - log Gamma(1-z), with
pi z reduced by the nearest integer first so that sin keeps its digits
near a pole; Stirling's series thus only sees |z| >= 8 with Re z >= -1.
Against 40-digit mpmath at 20,000 draws of z = 1 - s, sigma in [-1, 2]
and 0.1 <= |t| <= 1e6, its worst error was 7.3e-15 of
max(1, |log Gamma|).  Both logs are taken modulo 2 pi i; the ambiguity
drops out in the exponential, here and in the smoothed-sum residue of
the report module.  chi() is the one formula: chi_grid applies it to
each element of an array.

zeta() (through _zeta_at, the value at a given N) and zeta_grid_multi
add the same nested tail, _em_tail (below).
Direct-sum reductions in the scalar paths are exactly rounded, bit for
bit what math.fsum gives, by the vectorized exact sum of the dirichlet
module (fsum itself below 512 terms), so the compensation never limits
accuracy.  _dirichlet_sum is the one Dirichlet-polynomial kernel on
quadrature nodes: a phase row per cell of nodes, shifted to each node by
a Taylor polynomial.  zeta_grid_multi takes its direct sum there, and
the moment weights of the moments module take theirs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import fsum
from typing import Sequence

import numpy as np

from .dirichlet import _MAX_TERMS, DivisorTable, _fsum_complex, _term_count
from .errors import DomainError, PoleError, PrecisionError

LN2 = math.log(2.0)
LNPI = math.log(math.pi)
_HALF_LN_2PI = 0.5 * math.log(2 * math.pi)

_MAX_ABS_T = 1.0e6
_BERNOULLI_ORDER = 12  # q, the Bernoulli correction terms of the EM formula
# Dirichlet-polynomial weights: _dirichlet_sum holds about 2.4 KB per
# term (tracemalloc peaks of 300-306 MiB at 2^17 terms for moment split
# and watt, T = 96 to 2000), so longer weights are refused
_MAX_WEIGHT_TERMS = 1 << 17
_CELL_BLOCK = 64  # cells per phase block: bounds the block at 64 x M


@dataclass(frozen=True)
class EvalSettings:
    """The zeta accuracy target: the Euler-Maclaurin remainder bound must
    not exceed target_abs_error.  The length N and the Bernoulli order q
    are worked out from it, not set (see the module docstring)."""

    target_abs_error: float = 1e-13

    def __post_init__(self):
        if not (self.target_abs_error > 0):
            raise DomainError("target_abs_error must be > 0")


DEFAULT_SETTINGS = EvalSettings()


@lru_cache(maxsize=None)
def bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """Exact B_0..B_{n_max} via the standard recurrence (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        comb = 1  # C(m+1, j)
        for j in range(m):
            acc += comb * b[j]
            comb = comb * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    return tuple(b)


@lru_cache(maxsize=None)
def _correction_coeffs() -> tuple[float, ...]:
    """B_{2r}/(2r)! as floats for r = 1..q."""
    bern = bernoulli_numbers(2 * _BERNOULLI_ORDER)
    return tuple(
        float(bern[2 * r]) / math.factorial(2 * r) for r in range(1, _BERNOULLI_ORDER + 1)
    )


def _remainder_log_bound(s: complex, n_terms: int) -> float:
    """log of the Euler-Maclaurin remainder bound (see module docstring)."""
    q = _BERNOULLI_ORDER
    sigma = s.real
    if sigma + 2 * q + 1 <= 0:
        return math.inf
    bern = bernoulli_numbers(2 * q + 2)
    log_b = math.log(abs(float(bern[2 * q + 2]))) - math.lgamma(2 * q + 3)
    log_rise = fsum(math.log(abs(s + i)) for i in range(2 * q + 1) if abs(s + i) > 0)
    log_n = -(sigma + 2 * q + 1) * math.log(n_terms)
    log_tail_factor = math.log(abs(s + 2 * q + 1) / (sigma + 2 * q + 1))
    return log_b + log_rise + log_tail_factor + log_n


def _choose_terms(s_extreme: complex, settings: EvalSettings) -> int:
    """The smallest N >= 2 whose remainder bound A - p log N
    (p = sigma+2q+1) meets the target."""
    log_target = math.log(settings.target_abs_error)
    # _remainder_log_bound adds the log N term last, so a - p log n
    # below equals _remainder_log_bound(s_extreme, n) bit for bit
    a = _remainder_log_bound(s_extreme, 1)
    p = s_extreme.real + 2 * _BERNOULLI_ORDER + 1
    log_n = (a - log_target) / p
    if not log_n < math.log(_MAX_TERMS):
        raise PrecisionError(
            f"cannot reach target {settings.target_abs_error:g} at s = {s_extreme}"
        )
    n = max(2, math.ceil(math.exp(log_n)))
    while n > 2 and a - p * math.log(n - 1) <= log_target:
        n -= 1
    while a - p * math.log(n) > log_target:
        n += 1
    return n


def _check_domain(s: complex):
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    if abs(s.imag) > _MAX_ABS_T:
        raise DomainError(f"|t| > {_MAX_ABS_T:g} unsupported, got {s.imag}")
    if s.real < -1:
        raise DomainError(f"sigma < -1 unsupported, got {s.real}")


def _em_tail(s, n: int):
    """Boundary and Bernoulli-correction terms at cut N = n, for a complex
    s or an array of s, nested as N^{-s} (N/(s-1) + 1/2 + (s/N) A) with
    A = c_1 + (s+1)(s+2)/N^2 (c_2 + (s+3)(s+4)/N^2 (c_3 + ...)) and
    c_r = B_2r/(2r)!.  On an array the operators act in place; on a
    complex they rebind."""
    coeffs = _correction_coeffs()
    tail = coeffs[-1] + 0 * s
    for r in range(_BERNOULLI_ORDER - 1, 0, -1):
        tail *= s + (2 * r - 1)
        tail *= s + 2 * r
        tail /= n * n
        tail += coeffs[r - 1]
    tail *= s / n
    tail += 0.5
    tail += n / (s - 1)
    tail *= np.exp(-s * math.log(n))
    return tail


def _zeta_at(s: complex, n: int) -> complex:
    """zeta(s) at Euler-Maclaurin length N = n: the exactly rounded direct
    sum over n' < n plus _em_tail."""
    return complex(partial_zeta_sum(s, n - 1) + _em_tail(s, n))


def zeta(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """zeta(s) by Euler-Maclaurin with an exactly-rounded direct sum.

    Raises PoleError at s = 1, DomainError outside the supported region,
    PrecisionError when the target cannot be reached.
    """
    s = complex(s)
    _check_domain(s)
    value = _zeta_at(s, _choose_terms(s, settings))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise PrecisionError(f"non-finite zeta value at s = {s}")
    return value


def _dirichlet_sum(coeffs: np.ndarray, ts: np.ndarray, log_len: float) -> np.ndarray:
    """sum_{n <= M} c_n e^{-it log n} for each real row c of coeffs (R x M)
    and each node t of a non-empty ts, by a cell-centred Taylor shift (the
    multi-evaluation idea of Odlyzko-Schoenhage); log_len >= log M.

    The nodes are put on the absolute lattice of cells of width
    4/log_len (one cell when log_len = 0); a cell's centre c is the
    midpoint of its nodes' range, so every offset h = t - c has
    |h| <= 2/log_len.  With u_n = log n - (1/2) log_len each cell forms

        M_k = sum_n c_n e^{-ic log n} u_n^k / k!,   k < K,

    by one phase row and real matrix products, and each node gets

        D(t) = e^{-ih (1/2) log_len} sum_{k<K} (-ih)^k M_k.

    |u_n| <= (1/2) log_len, so with x = max|h| (1/2) log_len <= 1 and K
    the smallest integer with e^x x^K / K! <= 2^-53 (K <= 19) the dropped
    tail is below the rounding of sum_n |c_n|.  When every cell is lone,
    h = 0 and K = 1: the plain direct sum; at M = 1 with log_len = 0 the
    result is c_1 exactly.  The phase c log n is rounded like t log n, so
    values carry a direct sum's eps * |t| * log M level.  The cells
    depend only on the nodes of this call.
    """
    logk = np.log(np.arange(1, coeffs.shape[1] + 1, dtype=np.float64))
    half_len = 0.5 * log_len
    width = 4 / log_len if log_len > 0 else math.inf
    cells, cell_of = np.unique(np.floor(ts / width), return_inverse=True)
    n_cells = cells.size
    lo = np.full(n_cells, np.inf)
    hi = np.full(n_cells, -np.inf)
    np.minimum.at(lo, cell_of, ts)
    np.maximum.at(hi, cell_of, ts)
    centres = 0.5 * (lo + hi)
    h = ts - centres[cell_of]
    x = float(np.max(np.abs(h))) * half_len
    order, bound = 0, math.exp(x)
    while bound > 2.0**-53:
        order += 1
        bound *= x / order

    u = logk - half_len
    vander = np.empty((order, logk.size))  # row k: u^k / k!
    vander[0] = 1.0
    for k in range(1, order):
        np.multiply(vander[k - 1], u, out=vander[k])
        vander[k] /= k
    weighted = [(vander * row).T for row in coeffs]
    moments = np.empty((len(coeffs), order, n_cells), dtype=np.complex128)
    for first in range(0, n_cells, _CELL_BLOCK):
        c = centres[first : first + _CELL_BLOCK]
        trig = np.empty((2, c.size, logk.size))
        np.multiply.outer(c, logk, out=trig[1])
        np.cos(trig[1], out=trig[0])
        np.sin(trig[1], out=trig[1])
        trig = trig.reshape(2 * c.size, logk.size)
        for row, w in enumerate(weighted):
            prod = (trig @ w).T  # cos rows, then sin rows: e^{-ix} = cos x - i sin x
            block = moments[row, :, first : first + c.size]
            block.real = prod[:, : c.size]
            block.imag = -prod[:, c.size :]

    shift = np.exp(-1j * half_len * h)
    out = np.empty((len(coeffs), ts.size), dtype=np.complex128)
    for row, m in enumerate(moments):
        direct = m[order - 1][cell_of]
        for k in range(order - 2, -1, -1):
            direct *= -1j  # times -ih: -i exactly, then h
            direct *= h
            direct += m[k][cell_of]
        np.multiply(direct, shift, out=out[row])
    return out


def zeta_grid_multi(
    sigmas: Sequence[float],
    ts: np.ndarray,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """zeta(sigma_i + i t_j) for every sigma in sigmas and t in ts, rows
    in the order of `sigmas`: _dirichlet_sum of the rows n^{-sigma},
    n < N, with log_len = log N, plus _em_tail.  The values agree with
    zeta() to the eps * |t| * log N level of the phases t log n, and it
    refuses what zeta() refuses: _check_domain runs for each sigma at the
    largest |t| and, when a node is 0, at t = 0."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0 or len(sigmas) == 0:
        return np.zeros((len(sigmas), ts.size), dtype=np.complex128)
    t_extreme = float(ts[np.argmax(np.abs(ts))])  # the largest |t|, or a NaN t
    zero_node = bool(np.any(ts == 0))
    for sig in sigmas:
        _check_domain(complex(sig, t_extreme))
        if zero_node:
            _check_domain(complex(sig, 0.0))
    n = _choose_terms(complex(min(sigmas), abs(t_extreme)), settings)
    logk = np.log(np.arange(1, n, dtype=np.float64))
    out = _dirichlet_sum(np.exp(-np.outer(sigmas, logk)), ts, math.log(n))
    for row, sig in enumerate(sigmas):
        out[row] += _em_tail(sig + 1j * ts, n)
    if not np.all(np.isfinite(out)):
        raise PrecisionError("non-finite zeta value in grid evaluation")
    return out


def _log_sin(z: complex) -> complex:
    """log sin z, overflow-safe; the branch is irrelevant downstream."""
    if z.imag > 10.0:
        # |exp(2iz)| <= e^-20, so three series terms of log(1+w) are exact.
        w = -cmath.exp(2j * z)
        return -1j * z + w * (1 + w * (-0.5 + w / 3)) + cmath.log(0.5j)
    if z.imag < -10.0:
        return _log_sin(z.conjugate()).conjugate()
    w = cmath.sin(z)
    if w == 0:
        raise PoleError(f"log sin undefined at z = {z}")
    return cmath.log(w)


@lru_cache(maxsize=None)
def _stirling_coeffs() -> tuple[float, ...]:
    """B_2k / (2k (2k-1)) as floats for k = 1..10, Stirling's series."""
    bern = bernoulli_numbers(20)
    return tuple(float(bern[2 * k] / (2 * k * (2 * k - 1))) for k in range(1, 11))


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) up to a multiple of 2 pi i; nan at the poles z = 0,
    -1, -2, ... (see the module docstring)."""
    if not cmath.isfinite(z) or (z.imag == 0 and z.real <= 0 and z.real.is_integer()):
        return complex(math.nan, math.nan)
    if z.real < -1:
        k = round(z.real)  # sin(pi z) = (-1)^k sin(pi (z - k)), and z - k is exact
        log_sin = _log_sin(math.pi * (z - k)) + 1j * math.pi * (k % 2)
        return LNPI - log_sin - _log_gamma(1 - z)
    shift = 1
    while abs(z) < 8:
        shift *= z
        z += 1
    w = 1 / (z * z)
    coeffs = _stirling_coeffs()
    series = coeffs[-1]
    for c in coeffs[-2::-1]:
        series = series * w + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LN_2PI + series / z - cmath.log(shift)


def chi(s: complex) -> complex:
    """chi(s) = 2^s pi^(s-1) Gamma(1-s) sin(pi s/2), the functional-equation
    factor zeta(s)/zeta(1-s).

    |chi(1/2+it)| = 1 and chi(s) chi(1-s) = 1 hold to working precision.
    Raises DomainError for a NaN or infinite s and PoleError at
    s = 1, 2, 3, ... (Gamma poles of the formula); returns 0 at
    nonpositive even integers where the sine factor vanishes.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if s.imag == 0 and s.real == round(s.real):
        m = round(s.real)
        if m >= 1:
            raise PoleError(f"chi formula has a Gamma pole at s = {m}")
        if m % 2 == 0:
            return 0j
    log_chi = (
        s * LN2
        + (s - 1) * LNPI
        + _log_gamma(complex(1 - s.real, -s.imag))
        + _log_sin(0.5 * math.pi * s)
    )
    return cmath.exp(log_chi)


def chi_grid(s_values) -> np.ndarray:
    """chi() at each element of an array of s, in the array's shape."""
    return np.vectorize(chi, otypes=[np.complex128])(s_values)


def functional_equation_residual(
    s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """|zeta(s) - chi(s) zeta(1-s)|, which vanishes identically."""
    s = complex(s)
    if s == 0 or s == 1:
        raise PoleError("functional-equation residual undefined at s = 0, 1")
    return abs(zeta(s, settings) - chi(s) * zeta(1 - s, settings))


def partial_zeta_sum(s: complex, cutoff: float) -> complex:
    """sum_{n <= cutoff} n^{-s}, exactly-rounded reduction."""
    m = _term_count(cutoff, "cutoff")
    logk = np.log(np.arange(1, m + 1, dtype=np.float64))
    return _fsum_complex(np.exp(-complex(s) * logk))


def afe_simple(
    s: complex, cutoff: float, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[complex, float]:
    """Truncated Dirichlet series sum_{n <= cutoff} n^{-s} and its residual.

    For sigma in [1/2, 1] and cutoff >= t/(2 pi) the residual is O(1);
    the constant is checked at scan level, not here.  Returns
    (value, |value - zeta(s)|).
    """
    s = complex(s)
    if s.real < 0.5:
        raise DomainError(f"sigma must be >= 1/2 for the truncated series, got {s.real}")
    if not 0 <= cutoff < math.inf:
        raise DomainError(f"cutoff must be finite and >= 0, got {cutoff}")
    value = partial_zeta_sum(s, cutoff)
    residual = abs(value - zeta(s, settings))
    return value, residual


def default_smoothing_truncation(t: float) -> float:
    """Truncation multiplier: at least log^2(max(|t|, 10)), floored at 40
    so the dropped tail sits at working precision."""
    return max(40.0, math.log(max(abs(t), 10.0)) ** 2)


def smoothed_sum(s: complex, smoothing: float) -> complex:
    """Exponentially smoothed series sum_{n <= M} e^{-n/Y} n^{-s} with
    Y = smoothing and M = Y * default_smoothing_truncation(t).

    For sigma <= 3/2, shifting the underlying Mellin contour to
    Re w = 1/2 - sigma shows this equals zeta(s) + Gamma(1-s) Y^{1-s}
    + O(Y^{1/2-sigma}), which is what the residue-identity tests probe.
    Beyond 3/2 the contour passes the pole of Gamma(w) at w = -1, and
    the leftover carries -zeta(s-1)/Y as well.
    """
    s = complex(s)
    if not 1 <= smoothing < math.inf:
        raise DomainError(f"smoothing scale Y must be finite and >= 1, got {smoothing}")
    m = _term_count(smoothing * default_smoothing_truncation(s.imag), "the smoothed series")
    k = np.arange(1, m + 1, dtype=np.float64)
    return _fsum_complex(np.exp(-k / smoothing - complex(s) * np.log(k)))


def afe_zeta_squared(
    s: complex,
    x: float,
    table: DivisorTable,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[complex, float, float]:
    """Two-sum representation of zeta(s)^2 with divisor coefficients:

        sum_{n <= x} d(n) n^{-s} + chi(s)^2 sum_{n <= y} d(n) n^{s-1},

    with the reflected cutoff y = (t/(2 pi))^2 / x, so 4 pi^2 x y = t^2.
    (An alternative reading with 4 pi^2 x y = t appears in older
    statements; the t^2 normalization is the dimensionally consistent
    one and makes x = y at the balanced point x = t/(2 pi).)

    Returns (value, residual, bound) where residual = |value - zeta(s)^2|
    and bound = x^{1/2-sigma} log t is the shape of the error term; the
    residual/bound ratio is judged at scan level against a configured
    constant, since the true O-constant is not explicit.
    """
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0 < sigma < 1):
        raise DomainError(f"sigma must lie in (0, 1), got {sigma}")
    if not 10 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 10, got {t}")
    t_over_2pi = t / (2 * math.pi)
    if not (t_over_2pi <= x <= t * t):
        raise DomainError(f"x must lie in [t/(2 pi), t^2] = [{t_over_2pi:g}, {t * t:g}]")
    y = t_over_2pi**2 / x
    nx, ny = int(math.floor(x)), int(math.floor(y))
    table.require(max(nx, 1))
    logk = np.log(np.arange(1, nx + 1, dtype=np.float64))  # ny <= nx, as y <= x
    first = _fsum_complex(table.d[1 : nx + 1] * np.exp(-s * logk))
    second = _fsum_complex(table.d[1 : ny + 1] * np.exp((s - 1) * logk[:ny]))
    value = first + chi(s) ** 2 * second
    residual = abs(value - zeta(s, settings) ** 2)
    bound = x ** (0.5 - sigma) * math.log(t)
    return value, residual, bound
