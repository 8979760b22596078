"""Linear-fractional objectives over exponent pairs, with a small parser.

An objective is (a*k + b*l + c) / (d*k + e*l + f) with exact rational
coefficients.  The text grammar accepted by `parse_objective`:

    objective  := part [ '/' part ]          (the '/' at paren depth 0)
    part       := '(' linear ')' | linear
    linear     := term (('+'|'-') term)*
    term       := coeff? '*'? var | coeff
    coeff      := integer [ '/' integer ]    (rational constants need the
                                              whole part parenthesized,
                                              e.g. "(1/2 + 6k)/(1 + 4k)")
    var        := 'k' | 'l'

Whitespace is ignored everywhere.  A missing denominator means 1.
Nonlinear input (k*l, k*k, powers) is rejected with a position.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError, EmptyResultError, ParseError
from .pairs import ExponentPair, PairSet

OBJECTIVE_GRAMMAR = """\
objective  := part [ '/' part ]          (the '/' at paren depth 0)
part       := '(' linear ')' | linear
linear     := term (('+'|'-') term)*
term       := coeff? '*'? var | coeff
coeff      := integer [ '/' integer ]
var        := 'k' | 'l'
constraint := linear op linear           op in { <, <=, =, >=, > }
Rational coefficients inside a ratio need parentheses,
e.g. (1/2 + 6k)/(1 + 4k).  Objectives are minimized exactly.
"""


@dataclass(frozen=True)
class LinearForm:
    """ck*k + cl*l + const with exact coefficients."""

    ck: Fraction
    cl: Fraction
    const: Fraction

    def __call__(self, p: ExponentPair) -> Fraction:
        return self.ck * p.k + self.cl * p.l + self.const

    def is_zero(self) -> bool:
        return self.ck == 0 and self.cl == 0 and self.const == 0


@dataclass(frozen=True)
class FractionalObjective:
    """(a*k + b*l + c) / (d*k + e*l + f), all coefficients exact."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    @property
    def numerator(self) -> LinearForm:
        return LinearForm(self.a, self.b, self.c)

    @property
    def denominator(self) -> LinearForm:
        return LinearForm(self.d, self.e, self.f)

    def __str__(self) -> str:
        return f"({_format_linear(self.a, self.b, self.c)})/({_format_linear(self.d, self.e, self.f)})"


def _format_linear(ck: Fraction, cl: Fraction, const: Fraction) -> str:
    parts = []
    for coeff, sym in ((ck, "k"), (cl, "l"), (const, "")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        if sym and mag == 1:
            parts.append(f"{sign}{sym}")
        else:
            parts.append(f"{sign}{mag}{sym}" if sym else f"{sign}{mag}")
    return "".join(parts) if parts else "0"


class _Scanner:
    """Character scanner that skips whitespace and tracks source positions."""

    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = 0
        self.offset = offset  # position of text[0] in the original input

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def here(self) -> int:
        self.skip_ws()
        return self.offset + self.pos

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.here())

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])


def _parse_linear(sc: _Scanner) -> LinearForm:
    ck = cl = const = Fraction(0)
    first = True
    while True:
        ch = sc.peek()
        if ch == "":
            if first:
                raise sc.error("empty expression")
            break
        # sign
        sign = 1
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            sc.take()
        elif not first:
            break  # caller handles ')', end of part, etc.
        first = False
        # coefficient (optional) then variable (optional), at least one required
        coeff: Optional[Fraction] = None
        ch = sc.peek()
        if ch.isdigit():
            num = sc.integer()
            den = 1
            if sc.peek() == "/":
                save = sc.pos
                sc.take()
                if sc.peek().isdigit():
                    den = sc.integer()
                    if den == 0:
                        raise sc.error("zero denominator in coefficient")
                else:
                    sc.pos = save  # the '/' splits numerator from denominator
            coeff = Fraction(num, den)
            if sc.peek() == "*":
                sc.take()
        ch = sc.peek()
        if ch in ("k", "K"):
            sc.take()
            _reject_nonlinear(sc)
            ck += sign * (coeff if coeff is not None else Fraction(1))
        elif ch in ("l", "L"):
            sc.take()
            _reject_nonlinear(sc)
            cl += sign * (coeff if coeff is not None else Fraction(1))
        elif coeff is not None:
            const += sign * coeff
        else:
            raise sc.error(f"expected a term, found {ch!r}" if ch else "expected a term")
    return LinearForm(ck, cl, const)


def _reject_nonlinear(sc: _Scanner):
    ch = sc.peek()
    if ch in ("k", "K", "l", "L", "*", "^"):
        raise sc.error("nonlinear term: objectives must be linear in k and l")
    if ch.isdigit():
        raise sc.error("variable followed by a number: write the coefficient first")


def _parse_part(text: str, offset: int) -> LinearForm:
    sc = _Scanner(text, offset)
    if sc.peek() == "(":
        sc.take()
        form = _parse_linear(sc)
        if sc.peek() != ")":
            raise sc.error("expected ')'")
        sc.take()
    else:
        form = _parse_linear(sc)
    if sc.peek() != "":
        raise sc.error(f"unexpected {sc.peek()!r}")
    return form


def _split_ratio(text: str) -> tuple[str, int, Optional[str], Optional[int]]:
    """Split at the single '/' at paren depth 0, if any.

    Returns (numerator_text, numerator_offset, denominator_text,
    denominator_offset).  Rational coefficients at top level must be
    parenthesized, otherwise their '/' would be ambiguous here.
    """
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", i)
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ParseError(
                    "more than one '/' at top level; parenthesize rational "
                    "coefficients, e.g. (1/2 + 6k)/(1 + 4k)",
                    i,
                )
            split_at = i
    if depth != 0:
        raise ParseError("unbalanced '('", len(text))
    if split_at is None:
        return text, 0, None, None
    return text[:split_at], 0, text[split_at + 1 :], split_at + 1


def parse_objective(text: str) -> FractionalObjective:
    """Parse "(5k + l)/(4k + 1)" style text into exact coefficients."""
    if not text or not text.strip():
        raise ParseError("empty objective", 0)
    num_text, num_off, den_text, den_off = _split_ratio(text)
    num = _parse_part(num_text, num_off)
    if den_text is None:
        den = LinearForm(Fraction(0), Fraction(0), Fraction(1))
    else:
        den = _parse_part(den_text, den_off)
    if den.is_zero():
        raise ParseError("denominator is identically zero", den_off or 0)
    return FractionalObjective(num.ck, num.cl, num.const, den.ck, den.cl, den.const)


def eval_objective(obj: FractionalObjective, p: ExponentPair) -> Fraction:
    """Exact value of obj at the pair; division-by-zero is a domain error."""
    den = obj.denominator(p)
    if den == 0:
        raise DomainError(f"objective denominator vanishes at {p}")
    return obj.numerator(p) / den


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
        return self.text or f"{_format_linear(self.form.ck, self.form.cl, self.form.const)} {self.op} 0"


def parse_constraint(text: str) -> LinearConstraint:
    """Parse "k + l < 1" style text (both sides linear in k, l)."""
    for op in _COMPARATORS:
        idx = text.find(op)
        if idx >= 0:
            lhs = _parse_part(text[:idx], 0)
            rhs = _parse_part(text[idx + len(op) :], idx + len(op))
            form = LinearForm(
                lhs.ck - rhs.ck, lhs.cl - rhs.cl, lhs.const - rhs.const
            )
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
    best: Optional[tuple[Fraction, Fraction, Fraction]] = None
    best_pair: Optional[ExponentPair] = None
    for p in pairs:
        if constraint is not None and not constraint.satisfied(p):
            continue
        if obj.denominator(p) == 0:
            continue
        value = eval_objective(obj, p)
        rank = (value, p.k, p.l)
        if best is None or rank < best:
            best = rank
            best_pair = p
    if best_pair is None or best is None:
        raise EmptyResultError("no pair satisfies the constraint and objective domain")
    return best_pair, best[0]

