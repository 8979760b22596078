"""Exact-rational exponent pairs and the A/B process calculus.

An exponent pair (k, l) certifies the exponential-sum bound

    S(N,t) = sum_{N < n <= N'} n^{it}  <<  (T/N)^k * N^l      (N' <= 2N)

for phase functions whose r-th derivative scales like T/N^r.  The two
van der Corput transformations

    A(k, l) = (k/(2k+2), (k+l+1)/(2k+2))
    B(k, l) = (l - 1/2, k + 1/2)

map valid pairs to valid pairs; B is an involution.  All arithmetic is
exact over `fractions.Fraction`, so derived constants reduce to the
canonical lowest-terms form.

A pair's word records its derivation right to left: each process
prepends its letter, so the word "AAB" on a seed means B first, then A
twice.  This matches the usual composition notation AB(0,1) from the
exponent-pair literature.

A pair's record is its six PAIR_CSV_HEADER values; PairSet's CSV and
JSON forms and the CLI's optimize row all write it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, ResourceLimitError

Rational = Fraction

HALF = Fraction(1, 2)
ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise DomainError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class ExponentPair:
    """A pair (k, l) with 0 <= k <= 1/2 <= l <= 1.

    carries_epsilon marks pairs valid only as (k+eps, l+eps); the stored
    rationals are the limiting values.  word records the A/B derivation
    from a named seed (rightmost letter applied first).
    """

    k: Fraction
    l: Fraction
    carries_epsilon: bool = False
    word: str = ""

    def __post_init__(self):
        k = _as_fraction(self.k)
        l = _as_fraction(self.l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        if not (0 <= k <= HALF):
            raise DomainError(f"k out of range [0, 1/2]: {k}")
        if not (HALF <= l <= ONE):
            raise DomainError(f"l out of range [1/2, 1]: {l}")
        if any(ch not in "AB" for ch in self.word):
            raise DomainError(f"word must be over alphabet {{A, B}}: {self.word!r}")

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.k, self.l)

    def __str__(self) -> str:
        eps = "+eps" if self.carries_epsilon else ""
        w = f" [{self.word}]" if self.word else ""
        return f"({self.k}, {self.l}){eps}{w}"


def a_process(p: ExponentPair) -> ExponentPair:
    """A-transform: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2)).

    Preserves validity for every valid input; the epsilon flag is
    inherited.  The word gains an 'A' on the left (applied last).
    """
    den = 2 * p.k + 2
    return ExponentPair(
        k=p.k / den,
        l=(p.k + p.l + 1) / den,
        carries_epsilon=p.carries_epsilon,
        word="A" + p.word,
    )


def b_process(p: ExponentPair) -> ExponentPair:
    """B-transform: (k, l) -> (l - 1/2, k + 1/2).  An involution."""
    return ExponentPair(
        k=p.l - HALF,
        l=p.k + HALF,
        carries_epsilon=p.carries_epsilon,
        word="B" + p.word,
    )


# Named seed pairs.  The trivial pair (0, 1) is unconditional; the two
# Huxley pairs hold only with +eps (Bombieri-Iwaniec method), as does
# the two-parameter family below.
SEED_PAIRS: dict[str, ExponentPair] = {
    "trivial": ExponentPair(Fraction(0), Fraction(1)),
    "huxley32": ExponentPair(
        Fraction(32, 205), Fraction(32, 205) + HALF, carries_epsilon=True
    ),
    "huxley89": ExponentPair(
        Fraction(89, 570), Fraction(374, 570), carries_epsilon=True
    ),
}


def q_family_pair(q: int) -> ExponentPair:
    """Member q of the two-parameter family (Q = 2^q, q >= 2):

        ( 16/(120Q-32), (120Q-16q-63)/(120Q-32) )

    These pairs descend from the Bombieri-Iwaniec method and carry +eps.
    """
    if not isinstance(q, int) or q < 2:
        raise DomainError(f"family parameter must be an integer >= 2, got {q!r}")
    Q = 2**q
    den = 120 * Q - 32
    return ExponentPair(
        k=Fraction(16, den),
        l=Fraction(120 * Q - 16 * q - 63, den),
        carries_epsilon=True,
    )


PAIR_CSV_HEADER = "k_num,k_den,l_num,l_den,word,epsilon"
_COLUMNS = PAIR_CSV_HEADER.split(",")


def _record(p: ExponentPair) -> tuple:
    """The PAIR_CSV_HEADER values of p, in header order."""
    return (p.k.numerator, p.k.denominator, p.l.numerator, p.l.denominator,
            p.word, p.carries_epsilon)


def pair_cells(p: ExponentPair) -> list[str]:
    """p's PAIR_CSV_HEADER cells as CSV strings, the flag as true/false.
    A word is over {A, B}, so no cell needs quoting."""
    *head, epsilon = _record(p)
    return [str(v) for v in head] + ["true" if epsilon else "false"]


class PairSet:
    """An ordered collection of exponent pairs, deduplicated by (k, l).

    Insertion keeps the first pair seen for a given (k, l); iteration and
    serialization are sorted by (k, l) so downstream output is stable.
    """

    def __init__(self, pairs: Iterable[ExponentPair] = ()):
        self._by_key: dict[tuple[Fraction, Fraction], ExponentPair] = {}
        for p in pairs:
            self.add(p)

    def add(self, p: ExponentPair) -> bool:
        """Insert p unless its (k, l) is already present. Returns True if new."""
        key = p.key()
        if key in self._by_key:
            return False
        self._by_key[key] = p
        return True

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, p) -> bool:
        if isinstance(p, ExponentPair):
            return p.key() in self._by_key
        return tuple(p) in self._by_key

    def __iter__(self) -> Iterator[ExponentPair]:
        return iter(sorted(self._by_key.values(), key=ExponentPair.key))

    def keys(self) -> set[tuple[Fraction, Fraction]]:
        return set(self._by_key)

    def to_csv(self) -> str:
        """CSV with header PAIR_CSV_HEADER (LF endings)."""
        return "".join(",".join(row) + "\n" for row in [_COLUMNS, *map(pair_cells, self)])

    def to_json(self) -> str:
        return json.dumps([dict(zip(_COLUMNS, _record(p))) for p in self], indent=2)


# Closure size refused by enumerate_pairs.  From the trivial seed the
# closure grows about 1.62x per level, to 46,369 pairs at depth 23 and
# about 1.7e8 at depth 40.  Measured on a 2-core x86-64 box, Python 3.11:
# reaching the cap costs 1.4 s CPU and 25 MB, and `pairs enumerate
# --depth 23` takes 1.8 s and 46 MB as CSV, 2.1 s and 95 MB as JSON.
_MAX_PAIRS = 50_000


def enumerate_pairs(seeds: PairSet | Iterable[ExponentPair], max_word_length: int) -> PairSet:
    """Closure of the seeds under all A/B words of length <= max_word_length.

    Breadth-first over word length, so every pair keeps a shortest
    generating word; within a level the parents are visited in sorted
    (k, l) order with A before B, which fixes ties deterministically.
    ResourceLimitError as soon as the closure holds more than _MAX_PAIRS.
    """
    if max_word_length < 0:
        raise DomainError("max_word_length must be >= 0")
    if not isinstance(seeds, PairSet):
        seeds = PairSet(seeds)
    out = PairSet(seeds)
    frontier = sorted(seeds, key=ExponentPair.key)
    for _ in range(max_word_length):
        next_frontier: list[ExponentPair] = []
        for p in frontier:
            for child in (a_process(p), b_process(p)):
                if out.add(child):
                    next_frontier.append(child)
            if len(out) > _MAX_PAIRS:
                raise ResourceLimitError(
                    f"A/B closure to depth {max_word_length} exceeds {_MAX_PAIRS} pairs"
                )
        if not next_frontier:
            break
        frontier = sorted(next_frontier, key=ExponentPair.key)
    return out

