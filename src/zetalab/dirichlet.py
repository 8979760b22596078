"""Divisor-weighted and plain exponential sums over integer windows.

The objects here are finite sums

    S(N, N'; t) = sum_{N < n <= N'} n^{it}            (plain phase sum)
    D(u; t)     = sum_{n <= u} d(n) n^{it}            (divisor-weighted)

with d(n) the number of divisors.  D(u; t) admits an exact hyperbola
decomposition: writing P(v; t) = sum_{n <= v} n^{it},

    D(u; t) = 2 sum_{m <= sqrt(u)} m^{it} P(floor(u/m); t)
              - P(floor(sqrt(u)); t)^2,

because each factorization n = m k with m <= k is counted once from the
short side and the square terms are double-counted exactly once.  The
identity holds termwise over the integers, so direct and hyperbola
routes must agree to rounding; both are kept and cross-checked.

Partial summation converts weighted windows to unweighted ones: with
S_n = sum_{N < m <= n} d(m) m^{it} and any weight phi,

    sum_{N < n <= N'} d(n) n^{it} phi(n)
        = sum_{n=N+1}^{N'-1} S_n (phi(n) - phi(n+1)) + S_{N'} phi(N').

This finite Abel identity is exact for every weight and either sign of
the power in phi, and the implementation asserts it against the direct
sum on every call.

All reductions are compensated: plain sums use math.fsum (exactly
rounded); cumulative prefixes use blockwise cumsum with exactly-rounded
carries, so prefix errors stay near one ulp of the running value even
over 10^6 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import DomainError, ResourceLimitError
from .pairs import ExponentPair

_MAX_TABLE = 200_000_000  # int32 entries, ~800 MB; refuse beyond this
_BLOCK = 8192


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sums of a complex array, blockwise: within each block a
    plain cumsum, between blocks an exactly-rounded carry via fsum.

    A block's own fsum is taken only when a later block carries it, and
    fsum reads Python floats (``tolist``), not boxed numpy scalars.
    """
    out = np.empty(terms.size, dtype=np.complex128)
    block_re: list[float] = []
    block_im: list[float] = []
    for lo in range(0, terms.size, _BLOCK):
        hi = min(lo + _BLOCK, terms.size)
        seg = terms[lo:hi]
        carry = complex(fsum(block_re), fsum(block_im))
        out[lo:hi] = np.cumsum(seg) + carry
        if hi < terms.size:
            block_re.append(fsum(seg.real.tolist()))
            block_im.append(fsum(seg.imag.tolist()))
    return out


def _fsum_complex(terms: np.ndarray) -> complex:
    """Exactly-rounded sum of a complex array, each part by fsum."""
    return complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))


class DivisorTable:
    """d(n) for 1 <= n <= max_n by a sieve; d[n] indexes directly.

    d[0] is 0 and unused.  int32 is ample: d(n) < n.
    """

    def __init__(self, max_n: int):
        if max_n < 1:
            raise DomainError(f"table size must be >= 1, got {max_n}")
        if max_n > _MAX_TABLE:
            raise ResourceLimitError(
                f"divisor table of {max_n} entries exceeds the {_MAX_TABLE} cap"
            )
        self.max_n = int(max_n)
        d = np.zeros(self.max_n + 1, dtype=np.int32)
        d[1:] += 1  # every n divides itself
        for m in range(1, self.max_n // 2 + 1):
            d[2 * m :: m] += 1  # proper divisors m <= n/2
        self.d = d

    def require(self, n: int):
        if n > self.max_n:
            raise DomainError(
                f"divisor table holds n <= {self.max_n}, need {n}; build a larger table"
            )

    def __getitem__(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"d(n) needs n >= 1, got {n}")
        self.require(n)
        return int(self.d[n])


@dataclass(frozen=True)
class SumWindow:
    """Integer window (n, n_prime] with n_prime <= 2n (one dyadic block)
    and the phase frequency t riding along."""

    n: int
    n_prime: int
    t: float = 0.0

    def __post_init__(self):
        if not (0 < self.n < self.n_prime):
            raise DomainError(f"window needs 0 < n < n_prime, got {self}")
        if self.n_prime > 2 * self.n:
            raise DomainError(f"window must fit one dyadic block, got {self}")

    @property
    def length(self) -> int:
        return self.n_prime - self.n


def phase_sum(w: SumWindow) -> complex:
    """sum over the window of n^{it}, exactly-rounded reduction."""
    n = np.arange(w.n + 1, w.n_prime + 1, dtype=np.float64)
    return _fsum_complex(np.exp(1j * w.t * np.log(n)))


def vdc_bound(w: SumWindow, p: ExponentPair, big_t: float) -> float:
    """Exponent-pair comparator for the phase sum: T^k N^{l-k}, the size
    the pair (k, l) predicts for a window at dyadic scale N = w.n when
    T <= t <= 2T.  The suppressed constant is omitted; callers judge
    ratios or growth trends, never pass/fail at a single point.
    """
    if not (0 < big_t <= abs(w.t) <= 2 * big_t):
        raise DomainError(
            f"need T <= |t| <= 2T for the pair regime, got t = {w.t}, T = {big_t}"
        )
    return big_t ** float(p.k) * w.n ** float(p.l - p.k)


def divisor_phase_sum_direct(u: float, t: float, table: DivisorTable) -> complex:
    """sum_{n <= u} d(n) n^{it} straight from the table."""
    m = int(math.floor(u))
    if m < 1:
        return 0j
    table.require(m)
    n = np.arange(1, m + 1, dtype=np.float64)
    return _fsum_complex(table.d[1 : m + 1] * np.exp(1j * t * np.log(n)))


def divisor_phase_sum_hyperbola(u: float, t: float) -> complex:
    """sum_{n <= u} d(n) n^{it} by the hyperbola identity; needs no table.

    Matches the direct route to 1e-9 relative for u <= 10^6: the identity
    is exact over the integers, so only compensated-rounding noise is left.
    """
    m = int(math.floor(u))
    if m < 1:
        return 0j
    root = math.isqrt(m)
    n = np.arange(1, m + 1, dtype=np.float64)
    prefix = _compensated_cumsum(np.exp(1j * t * np.log(n)))  # prefix[v-1] = P(v)
    ms = np.arange(1, root + 1)
    cross = np.exp(1j * t * np.log(ms.astype(np.float64))) * prefix[m // ms - 1]
    corner = prefix[root - 1]
    return 2 * _fsum_complex(cross) - corner * corner


def partial_summation_window(
    w: SumWindow, sigma: float, table: DivisorTable, sign: int
) -> complex:
    """Divisor-weighted window sum with a power weight, two ways.

    Evaluates sum_{N < n <= N'} d(n) n^{it} n^{-sigma} (sign -1) or
    d(n) n^{it} n^{sigma-1} (sign +1), both directly and through the
    exact Abel finite sum, asserts 1e-8 relative agreement, and returns
    the direct value.  A mismatch signals an implementation bug, not a
    domain problem, so it raises AssertionError.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or +1, got {sign}")
    if not (0.5 <= sigma <= 1):
        raise DomainError(f"sigma must lie in [1/2, 1], got {sigma}")
    table.require(w.n_prime)
    n = np.arange(w.n + 1, w.n_prime + 1, dtype=np.float64)
    a = table.d[w.n + 1 : w.n_prime + 1] * np.exp(1j * w.t * np.log(n))
    exponent = -sigma if sign == -1 else sigma - 1.0
    phi = n**exponent
    direct = _fsum_complex(a * phi)
    partial = _compensated_cumsum(a)
    abel_terms = partial[:-1] * (phi[:-1] - phi[1:])
    abel = _fsum_complex(abel_terms) + partial[-1] * phi[-1]
    if abs(abel - direct) > 1e-8 * (1 + abs(direct)):
        raise AssertionError(
            f"Abel identity self-check failed on {w}: {abel} vs {direct}"
        )
    return direct


def s1_s2_bound_check(
    u: float, t: float, p: ExponentPair, big_t: float
) -> tuple[float, float]:
    """Hyperbola-leg sums against their exponent-pair comparators.

    S1 = sum_{m <= sqrt(u)} m^{it} P(floor(u/m)), S2 = P(floor(sqrt(u))),
    with P(v) = sum_{n <= v} n^{it}.  Returns

        (|S1| / (T^k N^{(l-k+1)/2} log T), |S2| / (T^k N^{(l-k)/2} log T))

    at the dyadic scale N = u/2, for empirical inspection only; the
    suppressed constants are unknown, so no pass/fail happens here.
    """
    if u < 1:
        raise DomainError(f"u must be >= 1, got {u}")
    if big_t <= 1:
        raise DomainError(f"T must be > 1, got {big_t}")
    if abs(t) > 2 * big_t:
        raise DomainError(f"|t| = {abs(t):g} exceeds 2T = {2 * big_t:g}")
    m = int(math.floor(u))
    root = math.isqrt(m)
    n = np.arange(1, m + 1, dtype=np.float64)
    prefix = _compensated_cumsum(np.exp(1j * t * np.log(n)))
    ms = np.arange(1, root + 1)
    legs = np.exp(1j * t * np.log(ms.astype(np.float64))) * prefix[m // ms - 1]
    s1 = _fsum_complex(legs)
    s2 = prefix[root - 1]
    big_n = u / 2
    k, l = float(p.k), float(p.l)
    log_t = math.log(big_t)
    denom1 = big_t**k * big_n ** ((l - k + 1) / 2) * log_t
    denom2 = big_t**k * big_n ** ((l - k) / 2) * log_t
    return float(abs(s1) / denom1), float(abs(s2) / denom2)
