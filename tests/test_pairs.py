"""Exact arithmetic of the exponent-pair calculus."""

import csv
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from zetalab import pairs
from zetalab import (
    DomainError,
    ResourceLimitError,
    ExponentPair,
    PairSet,
    SEED_PAIRS,
    a_process,
    b_process,
    enumerate_pairs,
    q_family_pair,
)

TRIVIAL = SEED_PAIRS["trivial"]
PROCESS = {"A": a_process, "B": b_process}


def _apply(word: str, p: ExponentPair) -> ExponentPair:
    """The processes of word applied to p, rightmost letter first."""
    for letter in reversed(word):
        p = PROCESS[letter](p)
    return p


def _same_record(record: dict, p: ExponentPair, flag):
    """A CSV row or JSON record holds p's k, l and word, and its flag
    as `flag` (the string true/false in CSV, a bool in JSON)."""
    assert F(int(record["k_num"]), int(record["k_den"])) == p.k
    assert F(int(record["l_num"]), int(record["l_den"])) == p.l
    assert record["word"] == p.word
    assert type(record["epsilon"]) is type(flag) and record["epsilon"] == flag


def valid_pairs():
    """Random valid pairs: 0 <= k <= 1/2 <= l <= 1, k <= l."""
    small = st.integers(min_value=0, max_value=400)
    den = st.integers(min_value=1, max_value=400)

    def build(kn, kd, ln, ld):
        k = F(kn, kd)
        l = F(ln, ld)
        k = min(k, F(1, 2))
        l = F(1, 2) + (l - l.__floor__()) / 2
        return ExponentPair(min(k, l), l)

    return st.builds(build, small, den, small, den)


class TestPairValidation:
    def test_seed_values(self):
        assert TRIVIAL.key() == (F(0), F(1))
        h32 = SEED_PAIRS["huxley32"]
        assert h32.key() == (F(32, 205), F(269, 410))
        assert h32.carries_epsilon
        h89 = SEED_PAIRS["huxley89"]
        assert h89.key() == (F(89, 570), F(187, 285))
        assert h89.carries_epsilon

    def test_fraction_coercion(self):
        p = ExponentPair("1/6", "2/3")
        assert p.k == F(1, 6) and isinstance(p.k, F)
        q = ExponentPair(0, 1)
        assert q.key() == (F(0), F(1))

    @pytest.mark.parametrize(
        "k,l",
        [(F(3, 5), F(1)), (F(-1, 10), F(1)), (F(0), F(2, 5)), (F(0), F(11, 10)),
         (F(1, 2), F(1, 3))],
    )
    def test_invalid_ranges_rejected(self, k, l):
        with pytest.raises(DomainError):
            ExponentPair(k, l)

    def test_bad_word_rejected(self):
        with pytest.raises(DomainError):
            ExponentPair(F(0), F(1), word="AXB")

    def test_non_rational_rejected(self):
        with pytest.raises(DomainError):
            ExponentPair(0.5, 1.0)


class TestProcesses:
    def test_a_fixes_trivial(self):
        assert a_process(TRIVIAL).key() == (F(0), F(1))

    def test_b_of_trivial(self):
        assert b_process(TRIVIAL).key() == (F(1, 2), F(1, 2))

    def test_ab_of_trivial(self):
        assert a_process(b_process(TRIVIAL)).key() == (F(1, 6), F(2, 3))

    def test_word_applied_right_to_left(self):
        p = a_process(b_process(TRIVIAL))
        assert p.word == "AB"
        assert _apply(p.word, TRIVIAL).key() == p.key()

    def test_word_prepends(self):
        p = b_process(SEED_PAIRS["huxley32"])
        assert p.word == "B"
        assert a_process(p).word == "AB"

    def test_epsilon_inherited(self):
        assert a_process(SEED_PAIRS["huxley32"]).carries_epsilon
        assert not b_process(TRIVIAL).carries_epsilon

    def test_b_is_involution_on_seeds(self):
        for p in SEED_PAIRS.values():
            assert b_process(b_process(p)).key() == p.key()

    @given(valid_pairs())
    def test_b_involution_property(self, p):
        assert b_process(b_process(p)).key() == p.key()

    @given(valid_pairs())
    def test_a_preserves_validity(self, p):
        q = a_process(p)
        assert 0 <= q.k <= F(1, 2) <= q.l <= 1 and q.k <= q.l


class TestQFamily:
    def test_q3_reduction(self):
        p = q_family_pair(3)
        assert p.key() == (F(1, 58), F(849, 928))
        assert p.k == F(16, 120 * 8 - 32)
        assert p.carries_epsilon

    def test_q2(self):
        assert q_family_pair(2).key() == (F(1, 28), F(55, 64))

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "3"])
    def test_bad_parameter(self, bad):
        with pytest.raises(DomainError):
            q_family_pair(bad)

    def test_family_is_valid_for_large_q(self):
        for q in range(2, 20):
            p = q_family_pair(q)
            assert 0 <= p.k <= F(1, 2) <= p.l <= 1


class TestPairSet:
    def test_first_wins_dedupe(self):
        a = ExponentPair(F(0), F(1), word="")
        b = ExponentPair(F(0), F(1), word="AA")
        ps = PairSet([a, b])
        assert len(ps) == 1
        assert next(iter(ps)).word == ""

    def test_sorted_iteration(self):
        ps = PairSet([b_process(TRIVIAL), TRIVIAL, a_process(b_process(TRIVIAL))])
        keys = [p.key() for p in ps]
        assert keys == sorted(keys)

    def test_contains(self):
        ps = PairSet([TRIVIAL])
        assert TRIVIAL in ps
        assert (F(0), F(1)) in ps
        assert b_process(TRIVIAL) not in ps

    def test_csv_round_trip(self):
        ps = enumerate_pairs([SEED_PAIRS["huxley32"], TRIVIAL], 3)
        records = list(csv.DictReader(io.StringIO(ps.to_csv())))
        assert len(records) == len(ps)
        for record, p in zip(records, ps):
            _same_record(record, p, "true" if p.carries_epsilon else "false")

    def test_json_round_trip(self):
        ps = enumerate_pairs([SEED_PAIRS["huxley89"]], 2)
        records = json.loads(ps.to_json())
        assert len(records) == len(ps)
        for record, p in zip(records, ps):
            _same_record(record, p, p.carries_epsilon)

    def test_csv_header_and_lf(self):
        text = PairSet([TRIVIAL]).to_csv()
        assert text.splitlines()[0] == "k_num,k_den,l_num,l_den,word,epsilon"
        assert "\r" not in text


class TestEnumeration:
    def test_depth_zero_is_seeds(self):
        ps = enumerate_pairs([TRIVIAL], 0)
        assert ps.keys() == {(F(0), F(1))}

    def test_depth_two_closure_of_trivial(self):
        ps = enumerate_pairs([TRIVIAL], 2)
        assert ps.keys() == {(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1, 6), F(2, 3))}

    def test_enumeration_deterministic(self):
        seeds = list(SEED_PAIRS.values())
        assert enumerate_pairs(seeds, 5).to_csv() == enumerate_pairs(seeds, 5).to_csv()

    def test_shortest_word_kept(self):
        ps = enumerate_pairs([TRIVIAL], 4)
        by_key = {p.key(): p for p in ps}
        assert by_key[(F(1, 2), F(1, 2))].word == "B"

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            enumerate_pairs([TRIVIAL], -1)

    def test_closure_past_the_cap_is_refused(self, monkeypatch):
        # from the trivial seed depth d holds Fib(d + 1) + 1 pairs: 9 at d = 5
        monkeypatch.setattr(pairs, "_MAX_PAIRS", 9)
        assert len(enumerate_pairs([TRIVIAL], 5)) == 9
        with pytest.raises(ResourceLimitError, match="exceeds 9 pairs"):
            enumerate_pairs([TRIVIAL], 6)
        with pytest.raises(ResourceLimitError):
            enumerate_pairs([TRIVIAL], 10**9)

    def test_closure_invariants_hold(self):
        for p in enumerate_pairs(list(SEED_PAIRS.values()), 6):
            assert 0 <= p.k <= F(1, 2) <= p.l <= 1 and p.k <= p.l


def test_word_reproduces_pair():
    """Each enumerated pair's stored word regenerates it from some seed."""
    seeds = list(SEED_PAIRS.values())
    for p in enumerate_pairs(seeds, 5):
        regenerated = {_apply(p.word, s).key() for s in seeds}
        assert p.key() in regenerated
