"""Parsing and exact minimization of linear-fractional objectives."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zetalab import (
    DomainError,
    EmptyResultError,
    ExponentPair,
    FractionalObjective,
    ParseError,
    SEED_PAIRS,
    enumerate_pairs,
    eval_objective,
    optimize,
    parse_constraint,
    parse_objective,
)
from zetalab.objectives import LinearForm

H32 = SEED_PAIRS["huxley32"]


def form(ck, cl, const) -> LinearForm:
    return LinearForm(F(ck), F(cl), F(const))


def shuffled(pairs, seed: int) -> list[ExponentPair]:
    """Deterministically shuffled copy, for permutation-invariance checks."""
    out = list(pairs)
    random.Random(seed).shuffle(out)
    return out


class TestParseObjective:
    def test_plain_linear(self):
        obj = parse_objective("l - k")
        assert obj.num == form(-1, 1, 0)
        assert obj.den == form(0, 0, 1)

    def test_ratio_with_parens(self):
        obj = parse_objective("(5k + l)/(4k + 1)")
        assert obj.num == form(5, 1, 0)
        assert obj.den == form(4, 0, 1)

    def test_rational_coefficients(self):
        obj = parse_objective("(1/2 + 6k)/(1 + 4k)")
        assert obj.num == form(6, 0, F(1, 2))
        assert obj.den == form(4, 0, 1)

    def test_explicit_star_and_case(self):
        obj = parse_objective("2*K + 3*L - 1")
        assert obj.num == form(2, 3, -1)

    def test_top_level_slash_is_the_ratio_split(self):
        # Outside parentheses '/' divides objective parts, not coefficients.
        obj = parse_objective("11/8 k")
        assert obj.num == form(0, 0, 11)
        assert obj.den == form(8, 0, 0)

    def test_repeated_terms_accumulate(self):
        obj = parse_objective("k + k + 1 - 2k")
        assert (obj.num.ck, obj.num.const) == (F(0), F(1))

    @pytest.mark.parametrize(
        "bad, position",
        [
            pytest.param(bad, position, id=bad)
            for bad, position in [
                ("", 0), ("   ", 0), ("k*l", 1), ("k^2", 1), ("(k", 2), ("k)", 1),
                ("k/(l)/(1)", 5), ("q + 1", 0), ("1//2", 2), ("k 2", 2), ("(1/0k)", 3),
                # the leftmost fault, ahead of a later paren or '/' fault
                ("k^2/(l", 1), ("//^", 0), ("(k*/)", 2),
                # a '*' needs a variable after it
                ("2*", 2), ("(2* + k)", 4),
                # a superscript is a digit to str.isdigit but not to int()
                ("\N{SUPERSCRIPT TWO}k", 0),
            ]
        ],
    )
    def test_rejects_malformed(self, bad, position):
        with pytest.raises(ParseError) as info:
            parse_objective(bad)
        assert info.value.position == position

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_objective("(k)/(0)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_objective("(5k + l")
        assert info.value.position == 7

    @pytest.mark.parametrize("parse", [parse_objective, parse_constraint])
    def test_overlong_integer_literal(self, parse):
        # longer than the interpreter's int-string conversion limit
        with pytest.raises(ParseError) as info:
            parse("k + " + "9" * 5000 + "l < 1")
        assert info.value.position == 4

    def test_str_round_trips_semantics(self):
        obj = parse_objective("(5k + l)/(4k + 1)")
        again = parse_objective(str(obj))
        assert again == obj


SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=7)
FORMS = st.builds(LinearForm, SMALL, SMALL, SMALL)


@settings(max_examples=200, deadline=None)
@given(num=FORMS, den=FORMS.filter(lambda f: f != form(0, 0, 0)))
def test_objective_str_round_trips(num, den):
    obj = FractionalObjective(num, den)
    assert parse_objective(str(obj)) == obj


@settings(max_examples=200, deadline=None)
@given(lhs=FORMS, rhs=FORMS, op=st.sampled_from(["<", "<=", "=", ">=", ">"]))
def test_constraint_reads_lhs_minus_rhs(lhs, rhs, op):
    c = parse_constraint(f"{lhs} {op} {rhs}")
    assert (c.form, c.op) == (lhs - rhs, op)


class TestEvalObjective:
    def test_threshold_form_at_huxley(self):
        obj = parse_objective("(5k + l)/(4k + 1)")
        assert eval_objective(obj, H32) == F(589, 666)

    def test_vanishing_denominator_is_domain_error(self):
        obj = parse_objective("(k + 1)/(k)")
        with pytest.raises(DomainError):
            eval_objective(obj, SEED_PAIRS["trivial"])


class TestParseConstraint:
    def test_simple(self):
        c = parse_constraint("k + l < 1")
        assert c.op == "<"
        assert c.satisfied(H32)
        assert not c.satisfied(ExponentPair(F(1, 2), F(1, 2)))

    def test_both_sides_linear(self):
        c = parse_constraint("3k + l <= k + 1/2")
        assert c.satisfied(ExponentPair(F(0), F(1, 2)))
        assert not c.satisfied(ExponentPair(F(1, 2), F(1)))

    def test_equality(self):
        c = parse_constraint("l = k + 1/2")
        assert c.satisfied(H32)
        assert not c.satisfied(SEED_PAIRS["trivial"])

    def test_no_comparator(self):
        with pytest.raises(ParseError):
            parse_constraint("k + l")

    @pytest.mark.parametrize(
        "bad, position",
        [("2* < 3", 3), ("k < l <= 1", 2), ("k <= 1/0", 7), ("k/l > 0", 1), ("(k + l < 1", 7)],
    )
    def test_rejects_malformed(self, bad, position):
        with pytest.raises(ParseError) as info:
            parse_constraint(bad)
        assert info.value.position == position


class TestOptimize:
    def test_minimizes_exactly(self):
        pairs = enumerate_pairs(list(SEED_PAIRS.values()), 4)
        obj = parse_objective("(5k + l)/(4k + 1)")
        gate = parse_constraint("k + l < 1")
        best, value = optimize(obj, pairs, gate)
        for p in pairs:
            if gate.satisfied(p):
                assert eval_objective(obj, p) >= value

    def test_order_invariant(self):
        pairs = list(enumerate_pairs(list(SEED_PAIRS.values()), 4))
        obj = parse_objective("(5k + l)/(4k + 1)")
        base = optimize(obj, pairs)
        for seed in (1, 2, 3):
            assert optimize(obj, shuffled(pairs, seed)) == base

    def test_tie_breaks_lexicographically(self):
        a = ExponentPair(F(0), F(1))
        b = ExponentPair(F(1, 2), F(1, 2))
        best, value = optimize(parse_objective("k + l"), [b, a])
        assert value == F(1)
        assert best.key() == (F(0), F(1))

    def test_empty_result(self):
        with pytest.raises(EmptyResultError):
            optimize(
                parse_objective("k"),
                [SEED_PAIRS["trivial"]],
                parse_constraint("k >= 2"),
            )

    def test_domain_violations_skipped(self):
        # denominator k vanishes at the trivial pair; the other survives
        best, value = optimize(
            parse_objective("(l)/(k)"), [SEED_PAIRS["trivial"], H32]
        )
        assert best.key() == H32.key()
        assert value == F(269, 410) / F(32, 205)
