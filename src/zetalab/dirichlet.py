"""Divisor-weighted exponential sums, by two routes.

The object here is the finite sum

    D(u; t) = sum_{n <= u} d(n) n^{it}

with d(n) the number of divisors.  D(u; t) admits an exact hyperbola
decomposition: writing P(v; t) = sum_{n <= v} n^{it},

    D(u; t) = 2 sum_{m <= sqrt(u)} m^{it} P(floor(u/m); t)
              - P(floor(sqrt(u)); t)^2,

because each factorization n = m k with m <= k is counted once from the
short side and the square terms are double-counted exactly once.  The
identity holds termwise over the integers, so direct and hyperbola
routes must agree to rounding; both are kept and cross-checked.

All reductions are compensated.  Plain sums are exactly rounded: bit
for bit what math.fsum returns on each part, from a vectorized error-free
extraction (below).  Cumulative prefixes use blockwise cumsum with
exactly-rounded carries, so prefix errors stay near one ulp of the
running value even over 10^6 terms.

The exact sum splits every part x_i at a power of two sigma above
max |x_i| (Rump, Ogita and Oishi, "Accurate floating-point summation,
part I", SIAM J. Sci. Comput. 31 (2008), ExtractVector):
q_i = (sigma + x_i) - sigma holds the high bits of x_i, x_i - q_i the
rest, and both are exact.  Each q_i is a multiple of u = ulp(sigma)/2
with |q_i| <= |x_i| + u.  With sigma = 2^g 2^E, max |x_i| < 2^E and
2^g > k for k terms, every partial sum of the q_i is a multiple of u
below sigma = 2^53 u while k (k + 1) < 2^53, so numpy sums them exactly
in any order.  Repeating on the rest, which is at most u, leaves after a
few rounds (each removes 53 - g bits of range) a handful of exact
partial sums, and fsum of those is the correctly rounded total: the
value fsum gives on the terms themselves.  With two partial sums that
is their one rounded addition, so fsum runs only where a third follows.
_fsum_rows does this for every row of a matrix at once, each row with
its own sigma, so a row's sum does not depend on the rows beside it;
_fsum_complex is its one-row call.  Blocks of under 512 terms (where
fsum is as fast), rows of over 2^26, rows with non-finite terms or
terms of size 2^900 or more go to fsum unchanged, so its overflow and
NaN behaviour stay as they are; so do exact zeros, whose sign fsum
decides.

The divisor sums at one t share one phase row n^{it} and its prefix
sums: a one-entry cache keyed on the bits of t (_phase_row), which keeps
rows of up to _CACHE_TERMS = 2^16 terms (2 MiB) and no longer ones.

_MAX_TERMS = 2^22 bounds every exactly summed series of the package,
here and in the zeta module, before anything of that length is
allocated: about 100 bytes a term at peak, some 400 MiB at the cap.
"""

from __future__ import annotations

import math
from math import fsum
from typing import Optional

import numpy as np

from .errors import DomainError, ResourceLimitError

_MAX_TERMS = 1 << 22  # the one cap on an exactly summed series (see above)
_CACHE_TERMS = 1 << 16  # the longest phase row _phase_row keeps, 32 B a term
_BLOCK = 8192
_EXACT_MIN = 512  # terms; smaller blocks go to fsum, which is as fast there
_EXACT_MAX = 2**26  # terms; the extraction below is exact while k (k + 1) < 2^53
_EXACT_LIMIT = 2.0**900  # parts this large go to fsum, which raises on overflow
# (bits of t, n^{it} for n <= size, its prefix sums); see _phase_row
_phase_cache = ("", np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.complex128))


def _fsum_complex(terms: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array: bit for bit
    complex(fsum(terms.real), fsum(terms.imag)), _fsum_rows on one row."""
    return complex(*_fsum_rows(_complex_parts(terms[None]))[0])


def _complex_parts(terms: np.ndarray) -> np.ndarray:
    """A complex (rows, k) matrix as its float parts, shape (rows, 2, k)."""
    terms = np.ascontiguousarray(terms, dtype=np.complex128)
    return terms.view(np.float64).reshape(*terms.shape, 2).transpose(0, 2, 1)


def _fsum_rows(parts: np.ndarray) -> np.ndarray:
    """Exactly rounded sums over the last axis of a float array of shape
    (rows, c, k): out[r, j] is bit for bit fsum(parts[r, j]).

    The exact sum of the module docstring, with one sigma per row, from
    the row's largest part in any component.  fsum itself sums a block
    of fewer than _EXACT_MIN terms, a row with a non-finite part or a
    part of 2^900 or more, and a total that is exactly zero, whose sign
    fsum decides.
    """
    rows, _, k = parts.shape
    if rows * k < _EXACT_MIN:
        sums = [[fsum(p) for p in row] for row in parts.tolist()]
        return np.array(sums).reshape(parts.shape[:2])
    peak = np.maximum(parts.max(axis=(1, 2)), -parts.min(axis=(1, 2)))
    exact = (0 < peak) & (peak < _EXACT_LIMIT) if k <= _EXACT_MAX else np.zeros(rows, bool)
    grow = k.bit_length()
    rest = np.array(parts, order="C")
    if not exact.all():
        rest[~exact] = 0  # these rows sum to zero here, and fsum sums them below
        peak[~exact] = 0
    partial = []
    while peak.any():
        sigma = np.ldexp(1.0, np.frexp(peak)[1] + grow)[:, None, None]
        high = rest + sigma
        high -= sigma
        partial.append(high.sum(axis=2))
        rest -= high
        peak = np.abs(rest, out=high).max(axis=(1, 2))
    partial += [np.zeros(parts.shape[:2])] * (2 - len(partial))
    # one rounding of the first two partial sums is fsum's, unless more follow
    out = partial[0] + partial[1]
    if len(partial) > 2:
        stacked = np.stack(partial, axis=-1)  # (rows, c, rounds)
        for r, j in zip(*np.nonzero(stacked[..., 2:].any(axis=-1))):
            out[r, j] = fsum(stacked[r, j].tolist())
    if not out.all():
        for r, j in zip(*np.nonzero(out == 0)):
            out[r, j] = fsum(parts[r, j].tolist())
    return out


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sums of a complex array, blockwise: within each block a
    plain cumsum, between blocks an exactly-rounded carry, the fsum of
    the exactly rounded sums of the earlier blocks.

    Only the blocks a later block carries are summed, so the value at
    index i reads terms[: i + 1] and the complete blocks before it: a
    longer array has the shorter one's prefix sums as its head.
    """
    out = np.empty(terms.size, dtype=np.complex128)
    last = (terms.size - 1) // _BLOCK * _BLOCK
    sums = [_fsum_complex(terms[lo : lo + _BLOCK]) for lo in range(0, last, _BLOCK)]
    for j, lo in enumerate(range(0, terms.size, _BLOCK)):
        carry = complex(fsum(s.real for s in sums[:j]), fsum(s.imag for s in sums[:j]))
        out[lo : lo + _BLOCK] = np.cumsum(terms[lo : lo + _BLOCK]) + carry
    return out


def _phase_row(t: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """n^{it} for 1 <= n <= m and its prefix sums (prefix[v-1] = P(v)),
    as read-only views of a one-entry cache.

    The entry is keyed on the bits of t, so no two floats share it, not
    even 0.0 and -0.0, and it is replaced as one tuple.  A longer request
    for the same t grows it at least twofold, short of _CACHE_TERMS, so
    ascending u costs amortized O(u) up to there.  A longer row is built
    for its call and not kept, so a call at u near _MAX_TERMS does not
    leave its 128 MiB held.  Cold and warm values are identical: log and
    exp act elementwise, and _compensated_cumsum's prefix of a longer
    array is the prefix of the shorter one.
    """
    global _phase_cache
    key = float(t).hex()
    held, row, prefix = _phase_cache
    if held != key or row.size < m:
        size = max(m, min(2 * row.size, _CACHE_TERMS, _MAX_TERMS)) if held == key else m
        row = np.exp(1j * t * np.log(np.arange(1, size + 1, dtype=np.float64)))
        prefix = _compensated_cumsum(row)
        row.flags.writeable = prefix.flags.writeable = False
        if size <= _CACHE_TERMS:
            _phase_cache = (key, row, prefix)
    return row[:m], prefix[:m]


def _term_count(length: float, what: str, cap: Optional[int] = None) -> int:
    """floor(length); DomainError for a non-finite length, ResourceLimitError
    past cap (default _MAX_TERMS) terms."""
    if not math.isfinite(length):
        raise DomainError(f"{what} length must be finite, got {length}")
    cap = _MAX_TERMS if cap is None else cap
    m = int(math.floor(length))
    if m > cap:
        raise ResourceLimitError(f"{what} asks for {m} terms, beyond {cap}")
    return m


def _cutoff(u: float, t: float) -> int:
    """floor(u); DomainError for a non-finite u or t, ResourceLimitError past the cap."""
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u}")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    return _term_count(u, "u")


class DivisorTable:
    """d(n) for 1 <= n <= max_n by a sieve over the divisor pairs
    n = m k, m <= k (so m <= sqrt(max_n)); the array d holds d(n) at
    index n, and require(n) refuses an n past the table.

    d[0] is 0 and unused.  int32 is ample: d(n) < n.
    """

    def __init__(self, max_n: int):
        if max_n < 1:
            raise DomainError(f"table size must be >= 1, got {max_n}")
        self.max_n = _term_count(max_n, "divisor table")
        d = np.zeros(self.max_n + 1, dtype=np.int32)
        for m in range(1, math.isqrt(self.max_n) + 1):
            d[m * m :: m] += 2  # n = m k with m <= k: the divisors m and k
            d[m * m] -= 1  # k = m is one divisor
        self.d = d

    def require(self, n: int):
        if n > self.max_n:
            raise DomainError(
                f"divisor table holds n <= {self.max_n}, need {n}; build a larger table"
            )


def divisor_phase_sum_direct(u: float, t: float, table: DivisorTable) -> complex:
    """sum_{n <= u} d(n) n^{it} straight from the table."""
    m = _cutoff(u, t)
    if m < 1:
        return 0j
    table.require(m)
    row, _ = _phase_row(t, m)
    return _fsum_complex(table.d[1 : m + 1] * row)


def divisor_phase_sum_hyperbola(u: float, t: float) -> complex:
    """sum_{n <= u} d(n) n^{it} by the hyperbola identity; needs no table.

    Matches the direct route to 1e-9 relative for u <= 10^6: the identity
    is exact over the integers, so only compensated-rounding noise is left.
    """
    m = _cutoff(u, t)
    if m < 1:
        return 0j
    root = math.isqrt(m)
    row, prefix = _phase_row(t, m)
    s1 = _fsum_complex(row[:root] * prefix[m // np.arange(1, root + 1) - 1])
    s2 = prefix[root - 1]
    return complex(2 * s1 - s2 * s2)
