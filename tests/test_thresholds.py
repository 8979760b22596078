"""Exact sigma thresholds and their gates."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from zetalab.thresholds import q_family_optimum
from zetalab import (
    DomainError,
    EmptyResultError,
    ExponentPair,
    HypothesisError,
    SEED_PAIRS,
    consistency_check_mu_equals_pair,
    mu_threshold,
    pair_sigma_formula,
    q_family_pair,
    theorem1_pair_sigma,
    theorem1_sigma,
    theorem2_branches,
    theorem2_sigma,
    y_cutoff_exponent,
)

H32 = SEED_PAIRS["huxley32"]
H89 = SEED_PAIRS["huxley89"]


class TestSecondPowerThreshold:
    def test_headline_pair_value(self):
        assert theorem1_pair_sigma(H32) == F(589, 666)

    def test_full_threshold_caps_at_five_sixths(self):
        assert theorem1_sigma(H32) == F(5, 6)

    def test_superseded_pair_value(self):
        assert theorem1_pair_sigma(H89) == F(819, 926)
        assert theorem1_sigma(H89) == F(5, 6)

    def test_gate_rejects_large_pairs(self):
        with pytest.raises(HypothesisError):
            theorem1_pair_sigma(ExponentPair(F(1, 2), F(1, 2)))
        with pytest.raises(HypothesisError):
            theorem1_sigma(SEED_PAIRS["trivial"])

    def test_trivial_pair_ungated_formula(self):
        assert pair_sigma_formula(SEED_PAIRS["trivial"]) == F(1)

    @given(st.fractions(min_value=0, max_value=F(49, 200)))
    def test_threshold_below_one_under_gate(self, k):
        # on l = k + 1/2 the k + l < 1 gate needs k < 1/4
        p = ExponentPair(k, k + F(1, 2))
        assert theorem1_pair_sigma(p) < 1


class TestFourthPowerThreshold:
    def test_family_optimum_value(self):
        p = q_family_pair(3)
        sigma = theorem2_sigma(p)
        assert sigma == F(1953, 1984)
        assert sigma == F(63, 64)

    def test_optimizer_selects_q3(self):
        best = min((theorem2_sigma(q_family_pair(q)), q) for q in range(2, 11))
        assert best[1] == 3

    def test_family_optimum_rows_and_selection(self):
        rows, best = q_family_optimum(theorem2_sigma, range(2, 11))
        assert [(q, p, sigma) for q, p, sigma in rows] == [
            (q, q_family_pair(q), theorem2_sigma(q_family_pair(q))) for q in range(2, 11)
        ]
        assert best == rows[1] and best[2] == F(63, 64)

    def test_family_optimum_ties_go_to_the_smaller_q(self):
        rows, best = q_family_optimum(lambda p: F(1, 2), [5, 3, 4])
        assert [q for q, _, _ in rows] == [5, 3, 4]
        assert best[0] == 3

    def test_family_optimum_of_an_empty_range(self):
        with pytest.raises(EmptyResultError):
            q_family_optimum(theorem2_sigma, range(5, 5))

    def test_family_satisfies_hypothesis(self):
        for q in range(2, 11):
            p = q_family_pair(q)
            assert 3 * p.k + p.l < 1

    def test_gate_rejects(self):
        with pytest.raises(HypothesisError):
            theorem2_sigma(H89)  # 3k + l = 641/570 > 1
        with pytest.raises(HypothesisError):
            theorem2_sigma(SEED_PAIRS["trivial"])

    def test_branches_dominance_under_gate(self):
        # (11k+l+1)(8k+1) - (11k+l)(8k+2) = 1 - 3k - l
        for q in range(2, 11):
            first, second = theorem2_branches(q_family_pair(q))
            assert first >= second

    def test_huxley32_fourth_power_value(self):
        # 3k + l = 461/410 > 1: the fourth-power bound does not apply
        with pytest.raises(HypothesisError):
            theorem2_sigma(H32)


class TestMuThreshold:
    def test_headline_value(self):
        mt = mu_threshold(1, F(32, 205))
        assert mt.value == F(589, 666)
        assert mt.feasible

    def test_known_j2_value(self):
        # (1/2 + 12*mu)/(1 + 8*mu) at mu = 32/205: exact arithmetic
        mt = mu_threshold(2, F(32, 205))
        assert mt.value == F(973, 922)
        assert not mt.feasible

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_feasibility_flips_exactly_at_quarter_j(self, j):
        at = mu_threshold(j, F(1, 4 * j))
        assert at.value == 1 and at.feasible
        below = mu_threshold(j, F(1, 4 * j) - F(1, 10**9))
        assert below.value < 1 and below.feasible
        above = mu_threshold(j, F(1, 4 * j) + F(1, 10**9))
        assert above.value > 1 and not above.feasible

    def test_mu_zero(self):
        assert mu_threshold(1, F(0)) == (F(1, 2), True)

    @pytest.mark.parametrize("bad_j", [0, -1, 1.5])
    def test_bad_j(self, bad_j):
        with pytest.raises(DomainError):
            mu_threshold(bad_j, F(1, 10))

    def test_negative_mu(self):
        with pytest.raises(DomainError):
            mu_threshold(1, F(-1, 10))


class TestConsistency:
    def test_hundred_rationals(self):
        ks = [F(i, 201) for i in range(100)]  # 0 <= k < 100/201 < 1/2
        assert all(consistency_check_mu_equals_pair(k) for k in ks)

    @given(st.fractions(min_value=0, max_value=F(499, 1000)))
    def test_identity_property(self, k):
        assert consistency_check_mu_equals_pair(k)


class TestCutoffExponent:
    def test_headline_value(self):
        assert y_cutoff_exponent(F(5, 6)) == F(3, 8)

    def test_endpoints(self):
        assert y_cutoff_exponent(F(1, 2)) == F(1, 4)
        assert y_cutoff_exponent(F(1)) == F(1, 2)

    def test_monotone_increasing(self):
        values = [y_cutoff_exponent(F(1, 2) + F(i, 20)) for i in range(11)]
        assert values == sorted(values)

    @pytest.mark.parametrize("bad", [F(0), F(2, 5), F(11, 10)])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            y_cutoff_exponent(bad)
