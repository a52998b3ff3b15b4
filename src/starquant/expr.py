"""Parser of the generating-function DSL, and its compiler to closures
that evaluate an expression on jets.

The compiler works on coefficient arrays: `jet_function` compiles an
AST once for each jet space it meets, into closures over the raw
coefficient arrays of that space, (size,) for one point or (rows, size)
for a stack, which call the array operations of `jets`.  Jets appear
only at the boundary: the wrapper reads the variables' arrays and wraps
the result in one Jet, so its callers see the same Jet in and out.

Grammar (whitespace-insensitive, ASCII only)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' number)*
    atom   := number | ident | fname '(' expr ')' | '(' expr ')'

Precedence: ^  >  unary minus  >  * /  >  + -.  Exponents are numeric
literals only; a chain like x1^2^3 associates to the right and collapses
into a single literal exponent at parse time.

Variables are x1..xn for the base plus p1..pn (cotangent bundle) or
y1..yn (tangent bundle) for the fiber.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ParseError, StarquantError, UnknownVariable
from . import jets
from .jets import _frozen, _pow_rows, _scale_rows, _unary_rows, _wrap, jet_const, jet_space

FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")

BUNDLE_FIBER_LETTER = {"cotangent": "p", "tangent": "y"}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    slot: int  # position in the flattened (base..., fiber...) variable list


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float


@dataclass(frozen=True)
class Call:
    fname: str
    arg: object


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_VARNAME = re.compile(r"([xpy])([1-9]\d*)\Z")


class _Parser:
    def __init__(self, src, n, bundle):
        if bundle not in BUNDLE_FIBER_LETTER:
            raise ValueError(f"unknown bundle tag {bundle!r}")
        self.src = src
        self.n = n
        self.fiber_letter = BUNDLE_FIBER_LETTER[bundle]
        self.pos = 0

    def error(self, expected):
        if self.pos >= len(self.src):
            found = "end of input"
            offset = len(self.src)
        else:
            found = f"{self.src[self.pos]!r}"
            offset = self.pos
        raise ParseError(offset, expected, found)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error(f"{ch!r}")

    def number(self):
        self.skip_ws()
        m = _NUMBER.match(self.src, self.pos)
        if not m:
            self.error("number")
        value = float(m.group())
        if not math.isfinite(value):
            raise ParseError(self.pos, "finite number", repr(m.group()))
        self.pos = m.end()
        return value

    def parse(self):
        self.skip_ws()
        if self.pos >= len(self.src):
            self.error("expression")
        node = self.expr()
        self.skip_ws()
        if self.pos < len(self.src):
            self.error("operator or end of input")
        return node

    def expr(self):
        node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self):
        if self.accept("-"):
            return Neg(self.factor())
        node = self.atom()
        exponents = []
        start = self.pos
        while self.accept("^"):
            exponents.append(self.number())
        if exponents:
            # literal chain folds right to left: x^2^3 = x^(2^3)
            acc = exponents[-1]
            for e in reversed(exponents[:-1]):
                try:
                    acc = e**acc
                except OverflowError:
                    raise ParseError(start, "finite exponent",
                                     repr(self.src[start:self.pos].strip())) from None
            node = Pow(node, acc)
        return node

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Const(self.number())
        if ch.isalpha():
            start = self.pos
            m = _IDENT.match(self.src, self.pos)
            name = m.group()
            self.pos = m.end()
            if name in FUNCTION_NAMES:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            return self.variable(name, start)
        self.error("number, variable, function, or '('")

    def variable(self, name, offset):
        m = _VARNAME.match(name)
        if not m:
            raise UnknownVariable(name, offset)
        letter, idx = m.group(1), int(m.group(2))
        if idx > self.n:
            raise UnknownVariable(name, offset)
        if letter == "x":
            return Var(name, idx - 1)
        if letter == self.fiber_letter:
            return Var(name, self.n + idx - 1)
        raise UnknownVariable(name, offset)


def parse(src, n, bundle="cotangent"):
    """Parse DSL text into an AST with variables resolved for (n, bundle)."""
    return _Parser(src, n, bundle).parse()


def _format_number(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _pp(node):
    # returns (text, precedence of the outermost operator)
    if isinstance(node, Const):
        return _format_number(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Neg):
        text, prec = _pp(node.arg)
        if prec < _PREC_NEG:
            text = f"({text})"
        return f"-{text}", _PREC_NEG
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        lt, lp = _pp(node.left)
        rt, rp = _pp(node.right)
        if lp < _PREC_ADD:
            lt = f"({lt})"
        # right operand needs parens at equal precedence: a - (b + c)
        if rp <= _PREC_ADD:
            rt = f"({rt})"
        return f"{lt} {op} {rt}", _PREC_ADD
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        lt, lp = _pp(node.left)
        rt, rp = _pp(node.right)
        if lp < _PREC_MUL:
            lt = f"({lt})"
        if rp <= _PREC_MUL:
            rt = f"({rt})"
        return f"{lt}{op}{rt}", _PREC_MUL
    if isinstance(node, Pow):
        bt, bp = _pp(node.base)
        if bp < _PREC_ATOM:
            bt = f"({bt})"
        return f"{bt}^{_format_number(node.exponent)}", _PREC_POW
    if isinstance(node, Call):
        at, _ = _pp(node.arg)
        return f"{node.fname}({at})", _PREC_ATOM
    raise TypeError(f"not an AST node: {node!r}")


def pretty(node):
    """Render an AST back to DSL text with minimal parentheses."""
    return _pp(node)[0]


def _compile(node, space):
    """Turn an AST into a closure f(rows) for one jet space: `rows` is the
    flat (base..., fiber...) list of the variables' coefficient arrays in
    `space`, each (size,) for one point or (rows, size) for a stack, and
    f returns the expression's coefficient array, with the bits of the
    plain walk over Jets.

    No Jet is built between nodes.  Each closure binds its space and its
    constant rows when it is built and calls the array operations of
    `jets`, which the Jet operations wrap; a constant's row has no row
    axis and combines with a stack as with each of its rows.  Operands
    are evaluated left to right, except that a divisor is evaluated (and
    checked) before its numerator.

    Every Var-free subtree is evaluated once per compile, in one
    variable, and its closure hands out one read-only row: its
    coefficient 0 followed by one repeated signed zero, at every order
    >= 1.  A product or quotient with a Var-free operand scales the other
    operand by that coefficient (by its reciprocal for a divisor) instead
    of going through the product table.  Both keep the bits of the plain
    evaluation.  A subtree whose evaluation raises, or gives a zero
    divisor or a non-finite number, is not folded, so it fails where and
    as it always did.  Series terms of a constant above order 1 are never
    formed, so a constant whose higher terms overflow (1 / 1e-100 at
    order 3) does not fail.
    """
    return _closure(node, space, {})[0]


# what evaluating a Var-free subtree may raise; such a subtree is left
# to raise at evaluation time
_FOLD_ERRORS = (StarquantError, ArithmeticError, Warning)


def _closure(node, space, memo):
    # (closure, whether the subtree is Var-free), built bottom-up once per
    # node and space of a compile; `memo` holds them and the folds
    key = (id(node), space)
    if key not in memo:
        fn, var_free = _build(node, space, memo)
        if var_free and not isinstance(node, Const):
            folded = _folded(node, memo)
            if folded is not None:
                fn = _layout(folded, space)
        memo[key] = fn, var_free
    return memo[key]


def _folded(node, memo):
    # a Var-free subtree evaluated once: its row at order 0, and at order
    # 1 its coefficient 0 and the signed zero every higher coefficient
    # repeats; None where evaluating it raises or is not finite
    key = ("fold", id(node))
    if key not in memo:
        try:
            low = _build(node, jet_space(1, 0), memo)[0](())
            c0, zero = _build(node, jet_space(1, 1), memo)[0](())
        except _FOLD_ERRORS:
            memo[key] = None
        else:
            finite = np.isfinite(np.append(low, (c0, zero))).all()
            memo[key] = (low, c0, zero) if finite else None
    return memo[key]


def _layout(folded, space):
    # the closure of a folded subtree: one row of `space`, shared by
    # every call
    low, c0, zero = folded
    if space.order == 0:
        row = low.copy()
    else:
        row = np.full(space.size, zero)
        row[0] = c0
    row = _frozen(row)
    return lambda v: row


def _factor(node, memo, reciprocal=False):
    # coefficient 0 of a Var-free subtree (or of its reciprocal), or None;
    # the same at every order >= 1, so order 1 in one variable serves
    # every space
    unit = jet_space(1, 1)
    try:
        row = _closure(node, unit, memo)[0](())
        c = complex((_pow_rows(unit, row, -1) if reciprocal else row)[0])
    except _FOLD_ERRORS:
        return None
    return c if cmath.isfinite(c) else None


def _build(node, space, memo):
    if isinstance(node, Const):
        row = _frozen(jet_const(space, node.value).coeffs)
        return (lambda v: row), True
    if isinstance(node, Var):
        return itemgetter(node.slot), False
    if isinstance(node, Neg):
        a, const = _closure(node.arg, space, memo)
        return (lambda v: -a(v)), const
    if isinstance(node, (Add, Sub, Mul, Div)):
        a, a_const = _closure(node.left, space, memo)
        b, b_const = _closure(node.right, space, memo)
        const = a_const and b_const
        if isinstance(node, Add):
            return (lambda v: a(v) + b(v)), const
        if isinstance(node, Sub):
            return (lambda v: a(v) - b(v)), const
        return _product(node, space, memo, a, a_const, b, b_const), const
    if isinstance(node, Pow):
        a, const = _closure(node.base, space, memo)
        e = node.exponent
        if float(e).is_integer():
            e = int(e)
        return (lambda v: _pow_rows(space, a(v), e)), const
    if isinstance(node, Call):
        a, const = _closure(node.arg, space, memo)
        fname = node.fname
        return (lambda v: _unary_rows(space, a(v), fname)), const
    raise TypeError(f"not an AST node: {node!r}")


def _product(node, space, memo, a, a_const, b, b_const):
    # closure of a Mul or Div, folding a Var-free operand.  Its value is
    # real, so scaling gives the table's bits on either side.  Products
    # look the kernel up when they run, so that it can be counted.
    if isinstance(node, Mul):
        c = _factor(node.left, memo) if a_const else None
        if c is not None:
            return lambda v: _scale_rows(c, b(v))
        c = _factor(node.right, memo) if b_const else None
        if c is not None:
            return lambda v: _scale_rows(c, a(v))
        return lambda v: jets._mul_rows(space, a(v), b(v))
    # a / b is a times b^-1, so a constant divisor folds to its reciprocal
    r = _factor(node.right, memo, reciprocal=True) if b_const else None
    if r is not None:
        return lambda v: _scale_rows(r, a(v))
    c = _factor(node.left, memo) if a_const else None
    if c is not None:
        return lambda v: _scale_rows(c, _pow_rows(space, b(v), -1))

    def div(v):
        den = b(v)
        return jets._mul_rows(space, a(v), _pow_rows(space, den, -1))

    return div


def _lowest_rows(values):
    # jets of several orders: the lowest order's space, and every jet's
    # coefficient arrays cut to it, as the order rule cuts the operands of
    # a sum or a product
    if len({v.space.dim for v in values}) > 1:
        raise ValueError(f"jet mismatch: {sorted({v.space.dim for v in values})} variables")
    space = min((v.space for v in values), key=lambda sp: sp.order)
    return space, [v.coeffs[..., : space.size] for v in values]


def evaluate(node, values):
    """Evaluate an AST over a flat (base..., fiber...) list of jets."""
    return jet_function(node)(values, ())


def eval_jet(node, point, order):
    """K-jet of the expression at a bundle point."""
    _, base, fiber = point.jets(order)
    return evaluate(node, list(base) + list(fiber))


def jet_function(node):
    """Wrap an AST as f(base_jets, fiber_jets) -> Jet for the geometry layer.

    The AST is compiled once for each jet space the wrapper meets, for
    the life of the wrapper; a call reads the jets' coefficient arrays,
    runs the closures on them and wraps the result in one Jet.
    """
    compiled = {}

    def f(base, fiber):
        values = [*base, *fiber]
        space = values[0].space
        rows = [v.coeffs for v in values if v.space is space]
        if len(rows) < len(values):
            space, rows = _lowest_rows(values)
        fn = compiled.get(space)
        if fn is None:
            fn = compiled[space] = _compile(node, space)
        return _wrap(space, fn(rows))

    return f
