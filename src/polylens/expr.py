"""Parser and evaluator for vector-valued complex rational expressions.

Grammar (LL(1), recursive descent with one-token lookahead)::

    vector   := expr (',' expr)*
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' signed-integer)?
    base     := number | 'i' | variable | '(' expr ')' | '-' base
    variable := 'w' digits          (plain 'w' allowed when n = 1)

Binary operators associate to the left; '^' binds tightest and requires an
integer exponent.  A number immediately followed by 'i' is an imaginary
literal.  Decimal literals are held as exact rationals, never binary floats,
so conversion to the exact Laurent form loses nothing.

The default variable letter is 'w'; a different letter (e.g. 'u' for target
coordinates of a coordinate change) can be requested at parse time.  Offsets
in errors are byte positions into the original input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    DivisionNearZero,
    DimensionMismatch,
    ExpansionTooLarge,
    NotLaurent,
    ParseError,
    UnknownVariable,
)
from .laurent import CR_ONE, ComplexRational, LaurentPoly

# Divisors with modulus below this are treated as poles.
EPS_POLE = 1e-9

# Caps on exact expansion: the largest |exponent|, and the term products one
# multiplication may form (its cost; exact coefficients make each one slow).
MAX_EXPANSION_DEGREE = 4096
MAX_EXPANSION_PRODUCTS = 4096

Bounds = list[tuple[int, int]]  # per-axis (lo, hi) exponent range


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
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Lit, Var, Neg, Add, Sub, Mul, Div, Pow]


@dataclass(frozen=True)
class MeroExpr:
    """A parsed vector expression in n complex variables."""

    n: int
    components: tuple[Node, ...]
    var_letter: str = "w"
    # the exponent range, found once: the tree never changes
    _bounds: Bounds | None = field(init=False, repr=False, compare=False)
    pointwise = True  # eval_grid acts point by point (see quadrature)

    def __post_init__(self):
        ranges = [_node_bounds(node, self.n) for node in self.components]
        bounds = None if None in ranges else functools.reduce(_hull, ranges)
        object.__setattr__(self, "_bounds", bounds)

    @property
    def k(self) -> int:
        return len(self.components)

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate every component on broadcastable coordinate arrays."""
        if len(coords) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinate arrays")
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        return [
            np.broadcast_to(np.asarray(_eval_node(node, coords)), shape)
            for node in self.components
        ]

    def eval_at(self, point: Sequence[complex]) -> tuple[complex, ...]:
        coords = [np.asarray(complex(p)) for p in point]
        return tuple(complex(v) for v in self.eval_grid(coords))

    def exponent_bounds(self) -> Bounds | None:
        """Per-axis range holding every exponent of every component's Laurent
        expansion, or None when some division (or negative power) is by an
        expression that is not a monomial."""
        return None if self._bounds is None else list(self._bounds)


# ------------------------------------------------------------------ scanning


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IMAG, VAR, OP, EOF
    offset: int
    text: str
    value: object = None


class _TokenStream:
    """Lazy single-token-lookahead scanner.

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
        if ch.isdigit():
            start = pos
            while pos < length and text[pos].isdigit():
                pos += 1
            if pos < length and text[pos] == "." and pos + 1 < length and text[pos + 1].isdigit():
                pos += 1
                while pos < length and text[pos].isdigit():
                    pos += 1
            value = Fraction(text[start:pos])
            if pos < length and text[pos] == "i":
                pos += 1
                self.pos = pos
                return _Token("IMAG", start, text[start:pos], value)
            self.pos = pos
            return _Token("NUM", start, text[start:pos], value)
        if ch == "i":
            self.pos = pos + 1
            return _Token("IMAG", pos, "i", Fraction(1))
        if ch == self.var_letter:
            start = pos
            pos += 1
            digits = ""
            while pos < length and text[pos].isdigit():
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


# ------------------------------------------------------------------ parsing


class _Parser:
    def __init__(self, stream: _TokenStream):
        self.stream = stream

    def peek(self) -> _Token:
        return self.stream.peek()

    def advance(self) -> _Token:
        return self.stream.advance()

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
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            else:
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
        if tok.kind != "NUM":
            raise ParseError(tok.offset, "integer exponent", self._found(tok))
        if tok.value.denominator != 1:
            raise ParseError(tok.offset, "integer exponent", self._found(tok))
        self.advance()
        return sign * int(tok.value)

    def parse_base(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Lit(tok.value, Fraction(0))
        if tok.kind == "IMAG":
            self.advance()
            return Lit(Fraction(0), tok.value)
        if tok.kind == "VAR":
            self.advance()
            return Var(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_base())
        raise ParseError(
            tok.offset,
            "number, 'i', variable, '(' or '-'",
            self._found(tok),
        )


def parse(text: str, n: int, var_letter: str = "w") -> MeroExpr:
    """Parse a comma-separated vector expression in n variables.

    Raises ParseError (or its subclass UnknownVariable) with the byte offset
    of the first invalid token.
    """
    if n < 1:
        raise DimensionMismatch("dimension must be at least 1")
    if var_letter == "i" or len(var_letter) != 1:
        raise ValueError("variable letter must be a single letter other than 'i'")
    parser = _Parser(_TokenStream(text, n, var_letter))
    return MeroExpr(n, parser.parse_vector(), var_letter)


# ---------------------------------------------------------------- evaluation


def _locate_min(values: np.ndarray, coords: Sequence[np.ndarray]) -> tuple:
    """Coordinates of the grid point where |values| is smallest (error path)."""
    shape = np.broadcast_shapes(np.shape(values), *(np.shape(c) for c in coords))
    flat_idx = int(np.argmin(np.abs(np.broadcast_to(values, shape))))
    idx = np.unravel_index(flat_idx, shape) if shape else ()
    return tuple(complex(np.broadcast_to(c, shape)[idx]) for c in coords)


def _eval_node(node: Node, coords: Sequence[np.ndarray]):
    if isinstance(node, Lit):
        return complex(float(node.re), float(node.im))
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, coords)
    if isinstance(node, Add):
        return _eval_node(node.left, coords) + _eval_node(node.right, coords)
    if isinstance(node, Sub):
        return _eval_node(node.left, coords) - _eval_node(node.right, coords)
    if isinstance(node, Mul):
        return _eval_node(node.left, coords) * _eval_node(node.right, coords)
    if isinstance(node, Div):
        num = _eval_node(node.left, coords)
        den = np.asarray(_eval_node(node.right, coords))
        if float(np.min(np.abs(den))) < EPS_POLE:
            raise DivisionNearZero(
                "division by a value of modulus below the pole threshold",
                point=_locate_min(den, coords),
            )
        return num / den
    if isinstance(node, Pow):
        base = np.asarray(_eval_node(node.base, coords))
        if node.exponent < 0 and float(np.min(np.abs(base))) < EPS_POLE:
            raise DivisionNearZero(
                "negative power of a value of modulus below the pole threshold",
                point=_locate_min(base, coords),
            )
        return base ** node.exponent
    raise TypeError(f"unknown node {node!r}")


# ------------------------------------------------------------ exponent range


def _hull(a: Bounds, b: Bounds) -> Bounds:
    return [(min(lo1, lo2), max(hi1, hi2)) for (lo1, hi1), (lo2, hi2) in zip(a, b)]


def _is_monomial(bounds: Bounds) -> bool:
    return all(lo == hi for lo, hi in bounds)


def _node_bounds(node: Node, n: int) -> Bounds | None:
    """Bottom-up exponent range of a subtree (see MeroExpr.exponent_bounds)."""
    if isinstance(node, Lit):
        return [(0, 0)] * n
    if isinstance(node, Var):
        return [(1, 1) if j == node.index else (0, 0) for j in range(n)]
    if isinstance(node, Neg):
        return _node_bounds(node.operand, n)
    if isinstance(node, Pow):
        base = _node_bounds(node.base, n)
        e = node.exponent
        if base is None or (e < 0 and not _is_monomial(base)):
            return None
        return [(min(e * lo, e * hi), max(e * lo, e * hi)) for lo, hi in base]
    left, right = _node_bounds(node.left, n), _node_bounds(node.right, n)
    if left is None or right is None:
        return None
    if isinstance(node, (Add, Sub)):
        return _hull(left, right)
    if isinstance(node, Mul):
        return [(lo1 + lo2, hi1 + hi2) for (lo1, hi1), (lo2, hi2) in zip(left, right)]
    if isinstance(node, Div):
        if not _is_monomial(right):
            return None
        return [(lo - p, hi - p) for (lo, hi), (p, _) in zip(left, right)]
    raise TypeError(f"unknown node {node!r}")


def _check_degree(bounds: Bounds) -> None:
    """Raise ExpansionTooLarge when an exponent range exceeds the degree cap."""
    if max(max(-lo, hi) for lo, hi in bounds) > MAX_EXPANSION_DEGREE:
        raise ExpansionTooLarge(
            f"exponent range {bounds} exceeds the degree cap {MAX_EXPANSION_DEGREE}"
        )


def _product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, refused before multiplying when it exceeds the product cap."""
    count = len(a.terms) * len(b.terms)
    if count > MAX_EXPANSION_PRODUCTS:
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
    return LaurentPoly.from_components(
        [_node_to_laurent(node, e.n, e.var_letter) for node in e.components]
    )


def _node_to_laurent(node: Node, n: int, letter: str) -> LaurentPoly:
    if isinstance(node, Lit):
        return LaurentPoly.scalar(n, {(0,) * n: ComplexRational(node.re, node.im)})
    if isinstance(node, Var):
        exps = tuple(1 if j == node.index else 0 for j in range(n))
        return LaurentPoly.scalar(n, {exps: CR_ONE})
    if isinstance(node, Neg):
        return -_node_to_laurent(node.operand, n, letter)
    if isinstance(node, Add):
        return _node_to_laurent(node.left, n, letter) + _node_to_laurent(node.right, n, letter)
    if isinstance(node, Sub):
        return _node_to_laurent(node.left, n, letter) - _node_to_laurent(node.right, n, letter)
    if isinstance(node, Mul):
        return _product(_node_to_laurent(node.left, n, letter),
                        _node_to_laurent(node.right, n, letter))
    if isinstance(node, Div):
        num = _node_to_laurent(node.left, n, letter)
        return num * _monomial_inverse(node.right, n, letter)
    if isinstance(node, Pow):
        if node.exponent >= 0:
            return _power(_node_to_laurent(node.base, n, letter), node.exponent)
        return _power(_monomial_inverse(node.base, n, letter), -node.exponent)
    raise TypeError(f"unknown node {node!r}")


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


def _monomial_inverse(node: Node, n: int, letter: str) -> LaurentPoly:
    poly = _node_to_laurent(node, n, letter)
    if len(poly.terms) != 1:
        raise NotLaurent(
            f"division by non-monomial: {render_node(node, letter)}",
            subtree=render_node(node, letter),
        )
    ((exps, (coeff,)),) = poly.terms.items()
    inv_exps = tuple(-e for e in exps)
    return LaurentPoly.scalar(n, {inv_exps: coeff.reciprocal()})


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


def _atom(node: Node, letter: str) -> str:
    text = render_node(node, letter)
    if isinstance(node, (Lit, Var)):
        return text
    return f"({text})"


def render_node(node: Node, letter: str = "w") -> str:
    if isinstance(node, Lit):
        if node.im == 0:
            return _frac_to_decimal(node.re)
        if node.re == 0:
            return _frac_to_decimal(node.im) + "i"
        # mixed literals never come from the parser; render re-parseably
        return f"({_frac_to_decimal(node.re)}+{_frac_to_decimal(node.im)}i)"
    if isinstance(node, Var):
        return f"{letter}{node.index + 1}"
    if isinstance(node, Neg):
        return f"-{_atom(node.operand, letter)}"
    if isinstance(node, Add):
        return f"{_atom(node.left, letter)}+{_atom(node.right, letter)}"
    if isinstance(node, Sub):
        return f"{_atom(node.left, letter)}-{_atom(node.right, letter)}"
    if isinstance(node, Mul):
        return f"{_atom(node.left, letter)}*{_atom(node.right, letter)}"
    if isinstance(node, Div):
        return f"{_atom(node.left, letter)}/{_atom(node.right, letter)}"
    if isinstance(node, Pow):
        return f"{_atom(node.base, letter)}^{node.exponent}"
    raise TypeError(f"unknown node {node!r}")


def to_text(e: MeroExpr) -> str:
    """Canonical printed form: explicit '*', parenthesized subexpressions.

    parse(to_text(parse(s))) is structurally identical to parse(s).
    """
    return ", ".join(render_node(node, e.var_letter) for node in e.components)


def substitute(node: Node, replacements: Sequence[Node]) -> Node:
    """Replace every variable j by replacements[j], recursively."""
    if isinstance(node, Lit):
        return node
    if isinstance(node, Var):
        return replacements[node.index]
    if isinstance(node, Neg):
        return Neg(substitute(node.operand, replacements))
    if isinstance(node, Add):
        return Add(substitute(node.left, replacements), substitute(node.right, replacements))
    if isinstance(node, Sub):
        return Sub(substitute(node.left, replacements), substitute(node.right, replacements))
    if isinstance(node, Mul):
        return Mul(substitute(node.left, replacements), substitute(node.right, replacements))
    if isinstance(node, Div):
        return Div(substitute(node.left, replacements), substitute(node.right, replacements))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, replacements), node.exponent)
    raise TypeError(f"unknown node {node!r}")
