"""Linear-fractional objectives over exponent pairs: num/den, both forms
linear in (k, l) with exact coefficients, read from the text grammar
OBJECTIVE_GRAMMAR by `parse_objective` and `parse_constraint` and
minimized exactly over a finite pair set by `optimize`.  Whitespace is
ignored, and a missing denominator means 1.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError, EmptyResultError, ParseError
from .pairs import ExponentPair, PairSet

OBJECTIVE_GRAMMAR = """\
objective  := part [ '/' part ]          (the '/' at paren depth 0)
part       := '(' linear ')' | linear
linear     := term (('+'|'-') term)*
term       := [ coeff [ '*' ] ] var | coeff
coeff      := integer [ '/' integer ]
var        := 'k' | 'l'
constraint := part op part               op in { <, <=, =, >=, > }
Rational coefficients inside a ratio need parentheses,
e.g. (1/2 + 6k)/(1 + 4k); a constraint needs none.  Objectives
are minimized exactly; a parse error reports the leftmost fault.
"""


@dataclass(frozen=True)
class LinearForm:
    """ck*k + cl*l + const with exact coefficients."""

    ck: Fraction
    cl: Fraction
    const: Fraction

    def __call__(self, p: ExponentPair) -> Fraction:
        return self.ck * p.k + self.cl * p.l + self.const

    def __sub__(self, other: LinearForm) -> LinearForm:
        return LinearForm(self.ck - other.ck, self.cl - other.cl, self.const - other.const)

    def __str__(self) -> str:
        parts = []
        for coeff, sym in ((self.ck, "k"), (self.cl, "l"), (self.const, "")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{sym}" if sym and mag == 1 else f"{sign}{mag}{sym}")
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class FractionalObjective:
    """num / den, both linear forms in (k, l)."""

    num: LinearForm
    den: LinearForm

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"


_TOKEN = re.compile(r"\s*(\d+|\S)")
_VARS = {"k": 0, "K": 0, "l": 1, "L": 1}  # index of the coefficient in a LinearForm


class _Tokens:
    """(token, position) of each integer or character in text[start:stop], then ("", stop)."""

    def __init__(self, text: str, start: int, stop: int):
        self.toks = [(m[1], m.start(1)) for m in _TOKEN.finditer(text, start, stop)]
        self.toks.append(("", stop))
        self.i = 0

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.i + ahead][0]

    def take(self) -> tuple[str, int]:
        self.i += 1
        return self.toks[self.i - 1]

    def error(self, message: str) -> ParseError:
        tok, pos = self.toks[self.i]
        return ParseError(f"{message}, found {repr(tok) if tok else 'the end'}", pos)

    def expect(self, tok: str):
        if self.peek() != tok:
            raise self.error(f"expected {tok!r}" if tok else "expected the end")
        self.take()


def _integer(toks: _Tokens) -> tuple[int, int]:
    tok, pos = toks.take()
    try:
        return int(tok), pos
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise ParseError(f"integer literal of {len(tok)} digits is too long", pos) from None


def _term(toks: _Tokens, ratios: bool) -> tuple[int, Fraction]:
    """(index in a LinearForm: 0 k, 1 l, 2 constant; coefficient) of one term."""
    coeff = Fraction(1)
    if toks.peek().isdecimal():
        coeff = Fraction(_integer(toks)[0])
        if ratios and toks.peek() == "/" and toks.peek(1).isdecimal():
            toks.take()
            den, pos = _integer(toks)
            if den == 0:
                raise ParseError("zero denominator in coefficient", pos)
            coeff /= den
        if toks.peek() == "*":
            toks.take()
            if toks.peek() not in _VARS:
                raise toks.error("expected k or l after '*'")
        elif toks.peek() not in _VARS:
            return 2, coeff
    if toks.peek() not in _VARS:
        raise toks.error("expected a term")
    index = _VARS[toks.take()[0]]
    if toks.peek() in _VARS or toks.peek() in ("*", "^") or toks.peek().isdecimal():
        raise toks.error("nonlinear term: objectives must be linear in k and l")
    return index, coeff


def _linear(toks: _Tokens, ratios: bool) -> LinearForm:
    coeffs = [Fraction(0)] * 3
    while True:
        sign = -1 if toks.peek() == "-" else 1
        if toks.peek() in ("+", "-"):
            toks.take()
        index, coeff = _term(toks, ratios)
        coeffs[index] += sign * coeff
        if toks.peek() not in ("+", "-"):
            return LinearForm(*coeffs)


def _part(toks: _Tokens, ratios: bool) -> LinearForm:
    """An integer/integer is a coefficient in parentheses, and also outside if `ratios`."""
    if toks.peek() != "(":
        return _linear(toks, ratios)
    toks.take()
    form = _linear(toks, True)
    toks.expect(")")
    return form


def parse_objective(text: str) -> FractionalObjective:
    """Parse "(5k + l)/(4k + 1)" style text into exact coefficients.  At
    the top level a '/' divides the parts, so "11/8 k" is 11/(8k)."""
    if not text.strip():
        raise ParseError("empty objective", 0)
    toks = _Tokens(text, 0, len(text))
    num = _part(toks, False)
    den, den_at = LinearForm(Fraction(0), Fraction(0), Fraction(1)), 0
    if toks.peek() == "/":
        den_at = toks.take()[1] + 1
        den = _part(toks, False)
    toks.expect("")
    if not (den.ck or den.cl or den.const):
        raise ParseError("denominator is identically zero", den_at)
    return FractionalObjective(num, den)


def eval_objective(obj: FractionalObjective, p: ExponentPair) -> Fraction:
    """Exact value of obj at the pair; division-by-zero is a domain error."""
    den = obj.den(p)
    if den == 0:
        raise DomainError(f"objective denominator vanishes at {p}")
    return obj.num(p) / den


# parse_constraint tries these in order, so "<=" is found before "<" and "="
_COMPARATORS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
                ">": operator.gt, "=": operator.eq}


@dataclass(frozen=True)
class LinearConstraint:
    """A linear inequality g(k, l) OP 0 used to filter pairs."""

    form: LinearForm
    op: str  # one of <, <=, >, >=, =
    text: str = ""

    def satisfied(self, p: ExponentPair) -> bool:
        return _COMPARATORS[self.op](self.form(p), 0)

    def __str__(self) -> str:
        return self.text or f"{self.form} {self.op} 0"


def _whole_part(text: str, start: int, stop: int) -> LinearForm:
    toks = _Tokens(text, start, stop)
    form = _part(toks, True)
    toks.expect("")
    return form


def parse_constraint(text: str) -> LinearConstraint:
    """Parse "k + l < 1" style text (both sides linear in k, l)."""
    for op in _COMPARATORS:
        at = text.find(op)
        if at >= 0:
            form = _whole_part(text, 0, at) - _whole_part(text, at + len(op), len(text))
            return LinearConstraint(form, op, text.strip())
    raise ParseError("no comparator (<, <=, >, >=, =) in constraint", 0)


def optimize(
    obj: FractionalObjective,
    pairs: PairSet | Iterable[ExponentPair],
    constraint: Optional[LinearConstraint] = None,
) -> tuple[ExponentPair, Fraction]:
    """Minimize the objective over a finite pair set, exactly.

    Pairs violating the constraint or the objective's domain (vanishing
    denominator) are skipped.  Ties break lexicographically by
    (value, k, l), so the result is independent of input order.  No
    claim is made beyond the supplied set.
    """
    best: Optional[tuple[tuple[Fraction, Fraction, Fraction], ExponentPair]] = None
    for p in pairs:
        if constraint is not None and not constraint.satisfied(p):
            continue
        den = obj.den(p)
        if den == 0:
            continue
        rank = (obj.num(p) / den, p.k, p.l)
        if best is None or rank < best[0]:
            best = rank, p
    if best is None:
        raise EmptyResultError("no pair satisfies the constraint and objective domain")
    return best[1], best[0][0]
