"""Sigma thresholds for the hybrid fourth-moment bounds.

Two families of mean-value bounds are parameterized by an exponent pair
(k, l).  For the fourth moment on the critical line times |zeta(s)|^2
(hypothesis k + l < 1) the admissible sigma region is

    sigma > min( 5/6, max( l - k, (5k + l)/(4k + 1) ) ),

and for the |zeta(s)|^4 variant (hypothesis 3k + l < 1)

    sigma > max( (l - k + 1)/2, (11k + l + 1)/(8k + 2) ).

All values are exact rationals.  The second formula has an equivalent
branch pair max((11k+l+1)/(8k+2), (11k+l)/(8k+1)); cross-multiplying
shows the first branch dominates exactly when 3k + l <= 1, which the
hypothesis guarantees, and `theorem2_sigma` asserts this.

The Lindelof-exponent route gives the companion threshold

    (1/2 + 6*j*mu) / (1 + 4*j*mu)

for the |zeta|^{2j} weight, feasible (i.e. <= 1) exactly when
mu <= 1/(4j).  For pairs on the line l = k + 1/2 the pair formula and
the j=1 mu formula coincide identically, which
`consistency_check_mu_equals_pair` verifies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError, EmptyResultError, HypothesisError
from .pairs import HALF, ExponentPair, q_family_pair

FIVE_SIXTHS = Fraction(5, 6)


def pair_sigma_formula(p: ExponentPair) -> Fraction:
    """max(l - k, (5k + l)/(4k + 1)) without the k + l < 1 gate.

    The ungated formula is what the mu-consistency identity needs; the
    theorem-level wrapper below adds the hypothesis check.
    """
    return max(p.l - p.k, (5 * p.k + p.l) / (4 * p.k + 1))


def theorem1_pair_sigma(p: ExponentPair) -> Fraction:
    """Pair-dependent sigma threshold for the |zeta|^2 hybrid bound.

    Requires k + l < 1; under that hypothesis the value is < 1.
    """
    if p.k + p.l >= 1:
        raise HypothesisError(f"k + l must be < 1, got {p.k + p.l} for {p}")
    return pair_sigma_formula(p)


def theorem1_sigma(p: ExponentPair) -> Fraction:
    """min(5/6, pair threshold): the full sigma threshold, j = 1."""
    return min(FIVE_SIXTHS, theorem1_pair_sigma(p))


def theorem2_branches(p: ExponentPair) -> tuple[Fraction, Fraction]:
    """The two equivalent exponent branches (11k+l+1)/(8k+2), (11k+l)/(8k+1)."""
    return (
        (11 * p.k + p.l + 1) / (8 * p.k + 2),
        (11 * p.k + p.l) / (8 * p.k + 1),
    )


def theorem2_sigma(p: ExponentPair) -> Fraction:
    """Sigma threshold for the |zeta|^4 hybrid bound, j = 2.

    Requires 3k + l < 1.  Returns max((l-k+1)/2, (11k+l+1)/(8k+2)) and
    checks exactly that the first alternate branch dominates the second,
    which the hypothesis forces.
    """
    if 3 * p.k + p.l >= 1:
        raise HypothesisError(f"3k + l must be < 1, got {3 * p.k + p.l} for {p}")
    first, second = theorem2_branches(p)
    # (11k+l+1)(8k+1) - (11k+l)(8k+2) = 1 - 3k - l > 0 under the hypothesis
    assert max(first, second) == first, "branch dominance violated"
    return max((p.l - p.k + 1) / 2, first)


FamilyRow = tuple[int, ExponentPair, Fraction]


def q_family_optimum(
    sigma_fn: Callable[[ExponentPair], Fraction], qs: Iterable[int]
) -> tuple[list[FamilyRow], FamilyRow]:
    """(q, pair, sigma_fn(pair)) for each family member q, in the order
    of qs, and the optimum among them: the least sigma, ties to the
    smaller q.  EmptyResultError when qs is empty."""
    rows = []
    for q in qs:
        p = q_family_pair(q)
        rows.append((q, p, sigma_fn(p)))
    if not rows:
        raise EmptyResultError("empty q-range")
    return rows, min(rows, key=lambda row: (row[2], row[0]))


class MuThreshold(NamedTuple):
    value: Fraction
    feasible: bool  # value <= 1, equivalently mu <= 1/(4j)


def mu_threshold(j: int, mu: Fraction) -> MuThreshold:
    """(1/2 + 6j*mu)/(1 + 4j*mu) with its feasibility flag.

    This is the sigma threshold the Lindelof exponent mu = mu(1/2) gives
    for the |zeta|^{2j} weight; it stays <= 1 exactly when mu <= 1/(4j).
    """
    if not isinstance(j, int) or j < 1:
        raise DomainError(f"j must be an integer >= 1, got {j!r}")
    mu = Fraction(mu)
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    value = (HALF + 6 * j * mu) / (1 + 4 * j * mu)
    feasible = value <= 1
    assert feasible == (mu <= Fraction(1, 4 * j))
    return MuThreshold(value, feasible)


def y_cutoff_exponent(sigma: Fraction) -> Fraction:
    """Exponent 1/(6 - 4*sigma) of the splitting cutoff Y = T^(...).

    Defined for 1/2 <= sigma <= 1; at sigma = 5/6 the exponent is 3/8.
    """
    sigma = Fraction(sigma)
    if not (HALF <= sigma <= 1):
        raise DomainError(f"sigma must lie in [1/2, 1], got {sigma}")
    return 1 / (6 - 4 * sigma)


def consistency_check_mu_equals_pair(k: Fraction) -> bool:
    """On the line l = k + 1/2 the pair formula equals the j=1 mu formula.

    Exact identity: (5k + l)/(4k + 1) = (1/2 + 6k)/(1 + 4k) when
    l = k + 1/2, and l - k = 1/2 never exceeds it.  Checked without the
    k + l < 1 gate, since the identity holds for every k in [0, 1/2).
    """
    k = Fraction(k)
    p = ExponentPair(k, k + HALF)
    return pair_sigma_formula(p) == mu_threshold(1, k).value
