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
peaks at 1,355,208 (sigma = -1, |t| = 10^6).  A and p come from arrays
of s: the factor moduli from np.hypot (abs() of a Python complex, bit
for bit), their logs from np.log, which differs from math.log in about
one value in 10^4, and the log of the product from numpy's sum, not
fsum.  The search for N then runs point by point with math.log, as
the one-point rule did: searched on arrays it took some ten more numpy
calls even at one point, which zeta_grid_multi pays once per chunk,
and point by point it costs about 1.3 us a point.  N equals the
math.log and fsum form at every scan-grid point and at 10^4 drawn
points.  The smoothed series stops
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

Scalar zeta is evaluated a grid at a time by _zeta_points: _check_domain
refuses the first point outside the supported region, _choose_terms
finds every point's N, and _direct_sums takes the direct sums
over n < N from one padded phase matrix exp(-s log n), zero past each
row's length, reduced row by row by the dirichlet module's exact sum
(_fsum_rows: bit for bit what math.fsum gives on each row, so the
compensation never limits accuracy).  Rows go in order of length, in
blocks of at most _ROW_BLOCK = 2^13 terms (128 KiB of phases, one row
when it is longer), so no block holds more terms than the longest
single series and padding never doubles a block.  The tail _em_tail and
every residual then run per point on Python complex: numpy's complex *
and / on arrays round differently from CPython's (a third to a half of
random pairs differ in the last bit), and on arrays they moved more
than half of the fe-check rows.  zeta(), _zeta_at (the value at a given
N), afe_simple, afe_zeta_squared and functional_equation_residual are
one-point calls of this path; the report's row builders evaluate their
grids in one call, so a grid point's value does not depend on the
batch it is in.  The finite-sum harnesses (_afe_points, _afe2_points and
the report's smooth_row) run _check_domain at each point first, so a
point that zeta() refuses is refused before any series is summed or any
divisor table sieved.  zeta_grid_multi calls the same length rule at
one point and adds the same _em_tail on arrays.
_dirichlet_sum is the one Dirichlet-polynomial kernel on quadrature
nodes: a phase row per cell of nodes, shifted to each node by a Taylor
polynomial.  zeta_grid_multi takes its direct sum there, and the moment
weights of the moments module take theirs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dirichlet import (
    _MAX_TERMS,
    DivisorTable,
    _complex_parts,
    _fsum_complex,
    _fsum_rows,
    _term_count,
)
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
        if not (0 < self.target_abs_error < math.inf):
            raise DomainError("target_abs_error must be finite and > 0")


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


# log(|B_{2q+2}| / (2q+2)!), the constant of the remainder bound
_LOG_BERNOULLI = math.log(
    abs(float(bernoulli_numbers(2 * _BERNOULLI_ORDER + 2)[-1]))
) - math.lgamma(2 * _BERNOULLI_ORDER + 3)
_RISE = np.arange(2 * _BERNOULLI_ORDER + 2.0)  # i of the factors s + i, then the tail's slot
_LOG_MAX_TERMS = math.log(_MAX_TERMS)
_ROW_BLOCK = 1 << 13  # terms of one _direct_sums block, unless one row is longer


def _remainder_log_terms(s: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """At each point of a 1-D array s, sigma > -(2q+1): the sum of
    log|s + i| over i = 0..2q, a zero factor left out, log(|s + 2q + 1| / p)
    and p = sigma + 2q + 1, so that A = _LOG_BERNOULLI + sum + tail in the
    remainder bound A - p log N (see module docstring).  Seven numpy
    calls, whatever the length of s."""
    p = s.real + 2 * _BERNOULLI_ORDER + 1
    # abs(s + i), bit for bit; sigma + (2q + 1) in the last column rounds
    # as p does, so it holds |s + 2q + 1|
    moduli = np.hypot(s.real[:, None] + _RISE, s.imag[:, None])
    moduli[:, -1] /= p
    logs = np.log(moduli, out=moduli, where=moduli > 0)
    return logs[:, :-1].sum(axis=1).tolist(), logs[:, -1].tolist(), p.tolist()


def _choose_terms(s, settings: EvalSettings):
    """The smallest N >= 2 whose remainder bound A - p log N meets the
    target: an int at a complex s, an int64 array at each point of an
    array of s.  A and p come from arrays; the search runs point by
    point, and the first point it cannot reach is refused."""
    given = np.asarray(s, dtype=np.complex128)
    points = given.reshape(-1)
    log_target = math.log(settings.target_abs_error)
    terms = []
    for point, rise, tail, p in zip(points.tolist(), *_remainder_log_terms(points)):
        a = _LOG_BERNOULLI + rise + tail
        log_n = (a - log_target) / p
        if not log_n < _LOG_MAX_TERMS:
            raise PrecisionError(
                f"cannot reach target {settings.target_abs_error:g} at s = {point}"
            )
        n = max(2, math.ceil(math.exp(log_n)))
        while n > 2 and a - p * math.log(n - 1) <= log_target:
            n -= 1
        while a - p * math.log(n) > log_target:
            n += 1
        terms.append(n)
    return np.array(terms, dtype=np.int64) if given.ndim else terms[0]


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


def _direct_sums(c: np.ndarray, lengths, weights=None) -> list[complex]:
    """sum_{n <= m_i} w_n e^{c_i log n} for each complex c_i and length
    m_i (w_n = 1, or weights[n]), exactly rounded: bit for bit
    _fsum_complex of the same terms.

    Rows are taken in order of length and cut into blocks of at most
    _ROW_BLOCK terms, or of one row when that row is longer, so no block
    holds more terms than the longest series alone; a block also ends
    before padding would double its terms.  A block is one phase matrix
    e^{c_i log n}, zero past each row's length, summed by the dirichlet
    module's _fsum_rows.
    """
    lengths = np.maximum(np.asarray(lengths, dtype=np.int64), 0)
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order].tolist()
    logk = np.log(np.arange(1, max(ordered, default=0) + 1, dtype=np.float64))
    sums = np.empty((len(ordered), 2))
    first = 0
    while first < len(ordered):
        stop, held = first + 1, ordered[first]
        while stop < len(ordered) and (stop + 1 - first) * ordered[stop] <= min(
            _ROW_BLOCK, 2 * (held + ordered[stop])
        ):
            held += ordered[stop]
            stop += 1
        rows, width = order[first:stop], ordered[stop - 1]
        terms = np.exp(c[rows, None] * logk[:width])
        if ordered[first] < width:
            terms[np.arange(width) >= lengths[rows, None]] = 0
        if weights is not None:
            terms = weights[1 : width + 1] * terms
        sums[rows] = _fsum_rows(_complex_parts(terms))
        first = stop
    return sums.view(np.complex128)[:, 0].tolist()


def _zeta_values(s: np.ndarray, n: np.ndarray) -> list[complex]:
    """zeta at each point s_i at Euler-Maclaurin length N = n_i: the
    exactly rounded direct sum over n' < n_i plus _em_tail, which runs
    per point on Python complex (see the module docstring)."""
    direct = _direct_sums(-s, n - 1)
    return [complex(d + _em_tail(x, m)) for d, x, m in zip(direct, s.tolist(), n.tolist())]


def _zeta_points(points, settings: EvalSettings = DEFAULT_SETTINGS) -> list[complex]:
    """zeta() at each of a sequence of points, as one array evaluation:
    _check_domain runs point by point, then _choose_terms and the
    non-finite check refuse the first point that fails them."""
    s = np.asarray(points, dtype=np.complex128).reshape(-1)
    for point in s.tolist():
        _check_domain(point)
    values = _zeta_values(s, _choose_terms(s, settings))
    finite = np.isfinite(np.array(values, dtype=np.complex128))
    if not finite.all():
        point = complex(s[np.argmin(finite)])
        raise PrecisionError(f"non-finite zeta value at s = {point}")
    return values


def _zeta_at(s: complex, n: int) -> complex:
    """zeta(s) at Euler-Maclaurin length N = n."""
    return _zeta_values(np.array([complex(s)]), np.array([n]))[0]


def zeta(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """zeta(s) by Euler-Maclaurin with an exactly-rounded direct sum.

    Raises PoleError at s = 1, DomainError outside the supported region,
    PrecisionError when the target cannot be reached.
    """
    return _zeta_points([complex(s)], settings)[0]


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


def _fe_residuals(
    points: Sequence[complex], settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[list[complex], list[float]]:
    """zeta(s) and |zeta(s) - chi(s) zeta(1-s)| at each point s: the zeta
    values of all s, then the chi factors, then the zeta values of all
    1 - s, each one array evaluation."""
    points = [complex(s) for s in points]
    values = _zeta_points(points, settings)
    factors = [chi(s) for s in points]
    reflected = _zeta_points([1 - s for s in points], settings)
    return values, [abs(z - f * z1) for z, f, z1 in zip(values, factors, reflected)]


def functional_equation_residual(
    s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """|zeta(s) - chi(s) zeta(1-s)|, which vanishes identically."""
    s = complex(s)
    if s == 0 or s == 1:
        raise PoleError("functional-equation residual undefined at s = 0, 1")
    return _fe_residuals([s], settings)[1][0]


def _afe_points(
    points: Sequence[complex], cutoffs: Sequence[float], settings: EvalSettings
) -> list[tuple[complex, float]]:
    """afe_simple at each (s, cutoff), as one array evaluation.  Each
    point is checked before anything is summed: zeta's domain, then
    sigma >= 1/2, then the cutoff and its term cap."""
    points = [complex(s) for s in points]
    lengths = []
    for s, cutoff in zip(points, cutoffs):
        _check_domain(s)
        if s.real < 0.5:
            raise DomainError(f"sigma must be >= 1/2 for the truncated series, got {s.real}")
        if not 0 <= cutoff < math.inf:
            raise DomainError(f"cutoff must be finite and >= 0, got {cutoff}")
        lengths.append(_term_count(cutoff, "cutoff"))
    values = _direct_sums(-np.array(points), lengths)
    zetas = _zeta_points(points, settings)
    return [(value, abs(value - z)) for value, z in zip(values, zetas)]


def afe_simple(
    s: complex, cutoff: float, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[complex, float]:
    """Truncated Dirichlet series sum_{n <= cutoff} n^{-s} and its residual.

    For sigma in [1/2, 1] and cutoff >= t/(2 pi) the residual is O(1);
    the constant is checked at scan level, not here.  Returns
    (value, |value - zeta(s)|).
    """
    return _afe_points([s], [cutoff], settings)[0]


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


def _check_two_sum_domain(s: complex, x: float):
    """DomainError unless 0 < sigma < 1, 10 <= t < inf and
    t/(2 pi) <= x <= t^2: the domain of afe_zeta_squared, which
    _afe2_points checks at each point before it sieves its divisor table."""
    sigma, t = s.real, s.imag
    if not (0 < sigma < 1):
        raise DomainError(f"sigma must lie in (0, 1), got {sigma}")
    if not 10 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 10, got {t}")
    t_over_2pi = t / (2 * math.pi)
    if not (t_over_2pi <= x <= t * t):
        raise DomainError(f"x must lie in [t/(2 pi), t^2] = [{t_over_2pi:g}, {t * t:g}]")


def _afe2_points(
    points: Sequence[complex], xs: Sequence[float], settings: EvalSettings
) -> list[tuple[complex, float, float]]:
    """afe_zeta_squared at each (s, x), as one array evaluation over one
    divisor table of the largest floor(x) entries.  Each point is checked
    before the table is sieved: zeta's domain, a finite x, the table's
    term cap, then _check_two_sum_domain."""
    points = [complex(s) for s in points]
    nx, ny = [], []
    for s, x in zip(points, xs):
        _check_domain(s)
        if not math.isfinite(x):
            raise DomainError(f"cutoff x must be finite, got x = {x} at t = {s.imag}")
        nx.append(_term_count(x, "divisor table"))
        _check_two_sum_domain(s, x)
        ny.append(int(math.floor((s.imag / (2 * math.pi)) ** 2 / x)))  # ny <= nx, as y <= x
    table = DivisorTable(max(nx, default=1))
    s = np.array(points)
    first = _direct_sums(-s, nx, table.d)
    second = _direct_sums(s - 1, ny, table.d)
    zetas = _zeta_points(points, settings)
    results = []
    for point, x, a, b, z in zip(points, xs, first, second, zetas):
        value = a + chi(point) ** 2 * b
        bound = x ** (0.5 - point.real) * math.log(point.imag)
        results.append((value, abs(value - z**2), bound))
    return results


def afe_zeta_squared(
    s: complex, x: float, settings: EvalSettings = DEFAULT_SETTINGS
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
    return _afe2_points([s], [x], settings)[0]
