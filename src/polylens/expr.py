"""Parser and evaluator for vector-valued complex rational expressions.

Grammar (LL(1), recursive descent with one-token lookahead)::

    vector   := expr (',' expr)*
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' signed-integer)?
    base     := number | 'i' | variable | '(' expr ')' | '-' base
    variable := 'w' digits          (plain 'w' allowed when n = 1)

Binary operators associate to the left; '^' binds tightest and requires an
integer exponent.  Digits are the ASCII 0-9 only.  A number immediately
followed by 'i' is an imaginary literal.  Decimal literals are held as exact
rationals, never binary floats, so conversion to the exact Laurent form loses
nothing.  The parser refuses input nested deeper than MAX_NESTING.

A component is a tree of five node types: the leaves `Lit` and `Var`, the
unary `Neg` and `Pow` (integer exponent), and `BinOp(op, left, right)` for
'+', '-', '*', '/'.  `fold` is the one post-order traversal: it hands each
node, with the results of folding its subtrees, to the step a table holds
for the node's type.  The exponent range, the evaluator, `to_laurent`, the
printer and `substitute` are each such a table.  `MeroExpr` folds each
component at construction into its range and into a numpy function of the
coordinate arrays, literals already converted to complex, which `eval_grid`
calls.

The default variable letter is 'w'; a different letter (e.g. 'u' for target
coordinates of a coordinate change) can be requested at parse time.  Offsets
in errors are byte positions into the original input.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DivisionNearZero,
    DimensionMismatch,
    ExpansionTooLarge,
    NotLaurent,
    ParseError,
    UnknownVariable,
)
from .laurent import CR_ONE, ComplexRational, LaurentPoly, _integral

# Divisors with modulus below this are treated as poles.
EPS_POLE = 1e-9

# Caps on exact expansion: the largest |exponent|, and the term products one
# multiplication may form (its cost; exact coefficients make each one slow).
MAX_EXPANSION_DEGREE = 4096
MAX_EXPANSION_PRODUCTS = 4096

# Cap on the nesting of an input, so that parsing and every fold stay well
# inside Python's recursion limit.  Parentheses and unary minus nest their
# operand one level deeper, and each operator of a sum or product chain puts
# the chain so far one level deeper (the parser builds it left-deep).
MAX_NESTING = 100

Bounds = list[tuple[int, int]]  # per-axis (lo, hi) exponent range

_ZERO = Fraction(0)

_DIGITS = frozenset("0123456789")  # str.isdigit also accepts '²' and '١'

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


# ------------------------------------------------------------------ AST nodes


@dataclass(frozen=True)
class Lit:
    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class Var:
    index: int  # zero-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Lit, Var, Neg, BinOp, Pow]


Steps = dict  # node class -> step(node, *results of folding its subtrees)


def fold(node: Node, steps: Steps):
    """Post-order fold: steps[type(node)](node, *results of folding its
    subtrees), the left subtree before the right.  Each reader of a tree is
    one table of steps, one step per node type."""
    kind = type(node)
    if kind is BinOp:
        return steps[BinOp](node, fold(node.left, steps), fold(node.right, steps))
    if kind is Neg:
        return steps[Neg](node, fold(node.operand, steps))
    if kind is Pow:
        return steps[Pow](node, fold(node.base, steps))
    if kind is Lit or kind is Var:
        return steps[kind](node)
    raise TypeError(f"unknown node {node!r}")


@dataclass(frozen=True)
class MeroExpr:
    """A parsed vector expression in n complex variables."""

    n: int
    components: tuple[Node, ...]
    var_letter: str = "w"
    # the exponent range and the compiled evaluators, found once from the tree
    _bounds: Bounds | None = field(init=False, repr=False, compare=False)
    _evaluators: tuple = field(init=False, repr=False, compare=False)
    pointwise = True  # eval_grid acts point by point (see quadrature)

    def __post_init__(self):
        steps = _bounds_steps(self.n)
        ranges = [fold(node, steps) for node in self.components]
        bounds = None if None in ranges else functools.reduce(_hull, ranges)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_evaluators",
                           tuple(fold(node, _COMPILE) for node in self.components))

    def __reduce__(self):
        # the compiled closures do not pickle; rebuild them from the tree
        return MeroExpr, (self.n, self.components, self.var_letter)

    @property
    def k(self) -> int:
        return len(self.components)

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate every component on broadcastable coordinate arrays."""
        if len(coords) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinate arrays")
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        return [np.broadcast_to(np.asarray(f(coords)), shape) for f in self._evaluators]

    def eval_at(self, point: Sequence[complex]) -> tuple[complex, ...]:
        coords = [np.asarray(complex(p)) for p in point]
        return tuple(complex(v) for v in self.eval_grid(coords))

    def exponent_bounds(self) -> Bounds | None:
        """Per-axis range holding every exponent of every component's Laurent
        expansion, or None when some division (or negative power) is by an
        expression that is not a monomial."""
        return None if self._bounds is None else list(self._bounds)


# ------------------------------------------------------------------ parsing


@dataclass  # not frozen: a frozen dataclass is three times as slow to build
class _Token:
    kind: str  # NUM, IMAG, VAR, OP, EOF
    offset: int
    text: str
    value: object = None


class _Parser:
    """Recursive descent over a lazy single-token-lookahead scanner.

    Tokens are produced on demand so that a grammar error at an early token
    is reported before any lexical problem later in the input: offsets always
    point at the first invalid token.
    """

    def __init__(self, text: str, n: int, var_letter: str):
        self.text = text
        self.n = n
        self.var_letter = var_letter
        self.pos = 0
        self._lookahead: _Token | None = None
        self.depth = 0   # nesting of the subtree being parsed (see MAX_NESTING)
        self.height = 0  # nesting inside the subtree parsed last

    def peek(self) -> _Token:
        if self._lookahead is None:
            self._lookahead = self._next_token()
        return self._lookahead

    def advance(self) -> _Token:
        token = self.peek()
        self._lookahead = None
        return token

    def _next_token(self) -> _Token:
        text, length = self.text, len(self.text)
        pos = self.pos
        while pos < length and text[pos].isspace():
            pos += 1
        if pos >= length:
            self.pos = length
            return _Token("EOF", length, "")
        ch = text[pos]
        if ch in _DIGITS:
            start = pos
            while pos < length and text[pos] in _DIGITS:
                pos += 1
            if pos < length and text[pos] == "." and pos + 1 < length and text[pos + 1] in _DIGITS:
                pos += 1
                while pos < length and text[pos] in _DIGITS:
                    pos += 1
            value, kind = Fraction(text[start:pos]), "NUM"
            if pos < length and text[pos] == "i":
                pos, kind = pos + 1, "IMAG"
            self.pos = pos
            return _Token(kind, start, text[start:pos], value)
        if ch == "i":
            self.pos = pos + 1
            return _Token("IMAG", pos, "i", Fraction(1))
        if ch == self.var_letter:
            start = pos
            pos += 1
            digits = ""
            while pos < length and text[pos] in _DIGITS:
                digits += text[pos]
                pos += 1
            if digits:
                index = int(digits)
            elif self.n == 1:
                index = 1
            else:
                raise UnknownVariable(start, self.var_letter, self.n)
            if not 1 <= index <= self.n:
                raise UnknownVariable(start, text[start:pos], self.n)
            self.pos = pos
            return _Token("VAR", start, text[start:pos], index - 1)
        if ch in "+-*/^(),":
            self.pos = pos + 1
            return _Token("OP", pos, ch)
        raise ParseError(pos, "a token", f"character {ch!r}")

    def _nested(self, tok: _Token, levels: int, parse: Callable[[], Node]) -> Node:
        """parse() one level deeper, the subtree one level higher; first a
        ParseError at tok if the nesting there, depth + levels, crosses
        MAX_NESTING."""
        if self.depth + levels > MAX_NESTING:
            expected = f"at most {MAX_NESTING} levels of nesting"
            raise ParseError(tok.offset, expected, repr(tok.text))
        self.depth += 1
        node = parse()
        self.depth -= 1
        self.height += 1
        return node

    def _found(self, tok: _Token) -> str:
        return "end of input" if tok.kind == "EOF" else f"{tok.text!r}"

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            self.advance()
            return
        raise ParseError(tok.offset, f"'{op}'", self._found(tok))

    def parse_vector(self) -> tuple[Node, ...]:
        components = [self.parse_expr()]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == ",":
                self.advance()
                components.append(self.parse_expr())
            elif tok.kind == "EOF":
                return tuple(components)
            else:
                raise ParseError(tok.offset, "',' or end of input", self._found(tok))

    def parse_expr(self) -> Node:
        return self._left_assoc("+-", self.parse_term)

    def parse_term(self) -> Node:
        return self._left_assoc("*/", self.parse_factor)

    def _left_assoc(self, ops: str, operand: Callable[[], Node]) -> Node:
        node = operand()
        height = self.height
        while (tok := self.peek()).kind == "OP" and tok.text in ops:
            self.advance()
            height += 1  # the chain so far goes one level down
            node = BinOp(tok.text, node, self._nested(tok, height, operand))
            height = max(height, self.height)
        self.height = height
        return node

    def parse_factor(self) -> Node:
        node = self.parse_base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            node = Pow(node, self.parse_signed_integer())
        return node

    def parse_signed_integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind != "NUM" or tok.value.denominator != 1:
            raise ParseError(tok.offset, "integer exponent", self._found(tok))
        self.advance()
        return sign * int(tok.value)

    def parse_base(self) -> Node:
        tok = self.peek()
        self.height = 0
        if tok.kind == "NUM":
            self.advance()
            return Lit(tok.value, _ZERO)
        if tok.kind == "IMAG":
            self.advance()
            return Lit(_ZERO, tok.value)
        if tok.kind == "VAR":
            self.advance()
            return Var(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self._nested(tok, 1, self.parse_expr)
            self.expect_op(")")
            return node
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self._nested(tok, 1, self.parse_base))
        raise ParseError(tok.offset, "number, 'i', variable, '(' or '-'", self._found(tok))


def parse(text: str, n: int, var_letter: str = "w") -> MeroExpr:
    """Parse a comma-separated vector expression in n variables.

    Raises ParseError (or its subclass UnknownVariable) with the byte offset
    of the first invalid token, and DimensionMismatch unless n is an integer
    >= 1 (see laurent._integral).
    """
    if not _integral((n,)) or n < 1:
        raise DimensionMismatch(f"dimension must be an integer >= 1, got {n!r}")
    if var_letter == "i" or len(var_letter) != 1:
        raise ValueError("variable letter must be a single letter other than 'i'")
    return MeroExpr(n, _Parser(text, n, var_letter).parse_vector(), var_letter)


# ---------------------------------------------------------------- evaluation


def _locate_min(values: np.ndarray, coords: Sequence[np.ndarray]) -> tuple:
    """Coordinates of the grid point where |values| is smallest (error path)."""
    shape = np.broadcast_shapes(np.shape(values), *(np.shape(c) for c in coords))
    flat_idx = int(np.argmin(np.abs(np.broadcast_to(values, shape))))
    idx = np.unravel_index(flat_idx, shape) if shape else ()
    return tuple(complex(np.broadcast_to(c, shape)[idx]) for c in coords)


def _guard_pole(values, coords, what: str) -> np.ndarray:
    """values as an array; DivisionNearZero if a modulus is below EPS_POLE."""
    values = np.asarray(values)
    if float(np.min(np.abs(values))) < EPS_POLE:
        raise DivisionNearZero(
            f"{what} a value of modulus below the pole threshold",
            point=_locate_min(values, coords),
        )
    return values


# Fold steps that compile a subtree into a function of the coordinate arrays,
# given those of its subtrees; operands are evaluated left before right.


def _compile_lit(node: Lit) -> Callable:
    # the quotient float(Fraction) computes, without its two calls
    value = complex(node.re.numerator / node.re.denominator,
                    node.im.numerator / node.im.denominator)
    return lambda coords: value


def _compile_binop(node: BinOp, left: Callable, right: Callable) -> Callable:
    if node.op == "/":
        return lambda coords: left(coords) / _guard_pole(right(coords), coords, "division by")
    apply = _OPS[node.op]
    return lambda coords: apply(left(coords), right(coords))


def _compile_pow(node: Pow, base: Callable) -> Callable:
    e = node.exponent
    if e >= 0:
        return lambda coords: np.asarray(base(coords)) ** e
    return lambda coords: _guard_pole(base(coords), coords, "negative power of") ** e


_COMPILE = {
    Lit: _compile_lit,
    Var: lambda node: operator.itemgetter(node.index),
    Neg: lambda node, operand: lambda coords: -operand(coords),
    BinOp: _compile_binop,
    Pow: _compile_pow,
}


# ------------------------------------------------------------ exponent range


def _hull(a: Bounds, b: Bounds) -> Bounds:
    return [(min(lo1, lo2), max(hi1, hi2)) for (lo1, hi1), (lo2, hi2) in zip(a, b)]


def _is_monomial(bounds: Bounds) -> bool:
    return all(lo == hi for lo, hi in bounds)


def _bounds_binop(node: BinOp, left: Bounds | None, right: Bounds | None) -> Bounds | None:
    if left is None or right is None:
        return None
    if node.op in "+-":
        return _hull(left, right)
    if node.op == "*":
        return [(lo1 + lo2, hi1 + hi2) for (lo1, hi1), (lo2, hi2) in zip(left, right)]
    if not _is_monomial(right):
        return None
    return [(lo - p, hi - p) for (lo, hi), (p, _) in zip(left, right)]


def _bounds_pow(node: Pow, base: Bounds | None) -> Bounds | None:
    e = node.exponent
    if base is None or (e < 0 and not _is_monomial(base)):
        return None
    return [(min(e * lo, e * hi), max(e * lo, e * hi)) for lo, hi in base]


def _bounds_steps(n: int) -> Steps:
    """Fold steps: the exponent range of a subtree (MeroExpr.exponent_bounds)."""
    return {
        Lit: lambda node: [(0, 0)] * n,
        Var: lambda node: [(1, 1) if j == node.index else (0, 0) for j in range(n)],
        Neg: lambda node, operand: operand,
        BinOp: _bounds_binop,
        Pow: _bounds_pow,
    }


def _check_degree(bounds: Bounds) -> None:
    """Raise ExpansionTooLarge when an exponent range exceeds the degree cap."""
    if max(max(-lo, hi) for lo, hi in bounds) > MAX_EXPANSION_DEGREE:
        raise ExpansionTooLarge(
            f"exponent range {bounds} exceeds the degree cap {MAX_EXPANSION_DEGREE}"
        )


def _product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, refused before multiplying when it exceeds the product cap."""
    if len(a.terms) * len(b.terms) > MAX_EXPANSION_PRODUCTS:
        raise ExpansionTooLarge(
            f"a product of {len(a.terms)} by {len(b.terms)} terms exceeds the cap "
            f"of {MAX_EXPANSION_PRODUCTS} term products"
        )
    return a * b


# --------------------------------------------------------------- exact form


def to_laurent(e: MeroExpr) -> LaurentPoly:
    """Expand the expression into an exact Laurent polynomial.

    Succeeds when the expression uses +, -, *, nonnegative integer powers, and
    divides (or raises to negative powers) only by single monomials c*w^a.
    Raises NotLaurent with the offending subtree otherwise,
    AdmissibilityViolation when expansion would create a pole of order >= 2,
    and ExpansionTooLarge when the exponent range (checked before expanding,
    and for each power's expanded base) or one multiplication exceeds the
    expansion caps.
    """
    bounds = e.exponent_bounds()
    if bounds is not None:
        _check_degree(bounds)
    steps = _laurent_steps(e.n, e.var_letter)
    return LaurentPoly.from_components([fold(node, steps) for node in e.components])


def _laurent_steps(n: int, letter: str) -> Steps:
    """Fold steps: the exact Laurent expansion of a subtree."""

    def binop(node: BinOp, left: LaurentPoly, right: LaurentPoly) -> LaurentPoly:
        if node.op == "/":
            return left * _monomial_inverse(right, node.right, letter)
        if node.op == "*":
            return _product(left, right)
        return _OPS[node.op](left, right)

    def power(node: Pow, base: LaurentPoly) -> LaurentPoly:
        if node.exponent >= 0:
            return _power(base, node.exponent)
        return _power(_monomial_inverse(base, node.base, letter), -node.exponent)

    return {
        Lit: lambda node: LaurentPoly.scalar(n, {(0,) * n: ComplexRational(node.re, node.im)}),
        Var: lambda node: LaurentPoly.scalar(
            n, {tuple(int(j == node.index) for j in range(n)): CR_ONE}),
        Neg: lambda node, operand: -operand,
        BinOp: binop,
        Pow: power,
    }


def _power(base: LaurentPoly, e: int) -> LaurentPoly:
    """base^e for e >= 0 by binary exponentiation, after checking the degree
    of the result against the cap."""
    _check_degree([(e * lo, e * hi) for lo, hi in base.exponent_bounds()])
    out = LaurentPoly.scalar(base.n, {(0,) * base.n: CR_ONE})
    while e:
        if e & 1:
            out = _product(out, base)
        e >>= 1
        if e:
            base = _product(base, base)
    return out


def _monomial_inverse(poly: LaurentPoly, node: Node, letter: str) -> LaurentPoly:
    """1/poly, where poly is the expansion of node; NotLaurent unless it is a
    single monomial."""
    if len(poly.terms) != 1:
        raise NotLaurent(
            f"division by non-monomial: {render_node(node, letter)}",
            subtree=render_node(node, letter),
        )
    ((exps, (coeff,)),) = poly.terms.items()
    return LaurentPoly.scalar(poly.n, {tuple(-e for e in exps): coeff.reciprocal()})


# ------------------------------------------------------------------ printing


def _frac_to_decimal(x: Fraction) -> str:
    """Exact decimal rendering; denominators from parsed literals are 2^a 5^b."""
    if x.denominator == 1:
        return str(x.numerator)
    num, den = x.numerator, x.denominator
    digits = 0
    while den % 2 == 0:
        den //= 2
        digits += 1
        num *= 5
    while den % 5 == 0:
        den //= 5
        digits += 1
        num *= 2
    if den != 1:  # not expressible in decimal; can't arise from parsed text
        return f"{x.numerator}/{x.denominator}"
    s = str(num).rjust(digits + 1, "0")
    return f"{s[:-digits]}.{s[-digits:]}"


def _render_lit(node: Lit) -> str:
    if node.im == 0:
        return _frac_to_decimal(node.re)
    if node.re == 0:
        return _frac_to_decimal(node.im) + "i"
    # mixed literals never come from the parser; render re-parseably
    return f"({_frac_to_decimal(node.re)}+{_frac_to_decimal(node.im)}i)"


_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}  # grammar level of an operator; a base is 4


def _operand(rendered: tuple[str, int], level: int) -> str:
    """A rendered subtree, (text, grammar level), where the grammar expects
    the given level: parenthesized only when the subtree sits below it."""
    text, own = rendered
    return text if own >= level else f"({text})"


def render_node(node: Node, letter: str = "w") -> str:
    def binop(node: BinOp, left, right) -> tuple[str, int]:
        # operators associate left: a right operand of their own level needs parentheses
        level = _LEVEL[node.op]
        return f"{_operand(left, level)}{node.op}{_operand(right, level + 1)}", level

    return fold(node, {
        Lit: lambda node: (_render_lit(node), 4),
        Var: lambda node: (f"{letter}{node.index + 1}", 4),
        Neg: lambda node, operand: (f"-{_operand(operand, 4)}", 4),
        BinOp: binop,
        Pow: lambda node, base: (f"{_operand(base, 4)}^{node.exponent}", _LEVEL["^"]),
    })[0]


def to_text(e: MeroExpr) -> str:
    """Canonical printed form: explicit '*', and parentheses only where the
    grammar needs them, so parse(to_text(parse(s))) is structurally identical
    to parse(s)."""
    return ", ".join(render_node(node, e.var_letter) for node in e.components)


def substitute(node: Node, replacements: Sequence[Node]) -> Node:
    """Replace every variable j by replacements[j]."""
    return fold(node, {
        Lit: lambda node: node,
        Var: lambda node: replacements[node.index],
        Neg: lambda node, operand: Neg(operand),
        BinOp: lambda node, left, right: BinOp(node.op, left, right),
        Pow: lambda node, base: Pow(base, node.exponent),
    })
