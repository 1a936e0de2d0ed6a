"""Expression front end: tokenizer, parser, canonical printer, evaluator.

Grammar (left-associative products, ^ > * > +/-):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' NAT)?
    base   := RATIONAL | SYMBOL | '(' expr ')'

Symbols: x1 x2 x3 e+ e- (one-parameter alphabet), xi1 xi2 xi3 E+ E-
(two-parameter alphabet), and the scalar parameters eps and h.  The two
alphabets cannot be mixed in one expression, and h is only a scalar of the
two-parameter ring.  There is no unary minus; write ``0 - x1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

from .ncalg import EM, EP, NCElement, RewriteSystem, X1, X2, X3

X_ALPHABET = {"x1": X1, "x2": X2, "x3": X3, "e+": EP, "e-": EM}
XI_ALPHABET = {"xi1": X1, "xi2": X2, "xi3": X3, "E+": EP, "E-": EM}
SCALAR_SYMBOLS = ("eps", "h")
ALL_SYMBOLS = tuple(X_ALPHABET) + tuple(XI_ALPHABET) + SCALAR_SYMBOLS


class ExprError(ValueError):
    """Syntax or evaluation error with a source position."""

    def __init__(self, message: str, pos: int = None):
        if pos is not None:
            message = f"{message} (column {pos + 1})"
        super().__init__(message)
        self.pos = pos


# -- AST ----------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Num, Sym, Add, Sub, Mul, Pow]


# -- tokenizer ----------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | SYMBOL | OP | END
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprError("expected digits after '/'", j)
                if int(text[j + 1:k]) == 0:
                    raise ExprError(f"zero denominator in {text[i:k]!r}", i)
                tokens.append(Token("NUMBER", text[i:k], i))
                i = k
            else:
                tokens.append(Token("NUMBER", text[i:j], i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j].isdigit()):
                j += 1
            word = text[i:j]
            # the exponential letters are a letter fused with a sign
            if word in ("e", "E") and j < n and text[j] in "+-":
                word += text[j]
                j += 1
            if word not in ALL_SYMBOLS:
                raise ExprError(f"unknown symbol {word!r}", i)
            tokens.append(Token("SYMBOL", word, i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(Token("END", "", n))
    return tokens


# -- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ExprError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.next()
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.next()
            tok = self.next()
            if tok.kind != "NUMBER" or "/" in tok.text:
                raise ExprError("power must be a literal natural number", tok.pos)
            return Pow(base, int(tok.text))
        return base

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUMBER":
            num, _, den = tok.text.partition("/")
            return Num(Fraction(int(num), int(den) if den else 1))
        if tok.kind == "SYMBOL":
            return Sym(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Expr:
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ExprError(f"trailing input {tail.text!r}", tail.pos)
    return node


# -- canonical printer ---------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Pow: 3}


def print_expr(node: Expr) -> str:
    """Canonical text form; parse(print_expr(t)) reproduces t."""
    return _print(node, 0)


def _print(node: Expr, parent_prec: int, right_side: bool = False) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    prec = _PREC[type(node)]
    if isinstance(node, Pow):
        s = f"{_print(node.base, prec, True)}^{node.exponent}"
    else:
        op = {Add: "+", Sub: "-", Mul: "*"}[type(node)]
        s = (f"{_print(node.left, prec)} {op} "
             f"{_print(node.right, prec, True)}") if op != "*" else (
            f"{_print(node.left, prec)}*{_print(node.right, prec, True)}")
    # left-associative operators need parens around a same-precedence right child
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({s})"
    return s


# -- evaluator -----------------------------------------------------------

class MixedAlphabetError(ExprError):
    pass


def _collect_symbols(node: Expr, out: set) -> None:
    if isinstance(node, Sym):
        out.add(node.name)
    elif isinstance(node, (Add, Sub, Mul)):
        _collect_symbols(node.left, out)
        _collect_symbols(node.right, out)
    elif isinstance(node, Pow):
        _collect_symbols(node.base, out)


def choose_alphabet(node: Expr) -> str:
    """Decide which algebra an expression lives in ("x" or "xi")."""
    seen: set = set()
    _collect_symbols(node, seen)
    uses_x = seen & set(X_ALPHABET)
    uses_xi = seen & set(XI_ALPHABET)
    if uses_x and uses_xi:
        raise MixedAlphabetError(
            f"cannot mix alphabets: {sorted(uses_x)} with {sorted(uses_xi)}")
    if "h" in seen and uses_x:
        raise MixedAlphabetError(
            "h is a scalar of the two-parameter algebra only")
    if uses_xi or ("h" in seen and not uses_x):
        return "xi"
    return "x"


def evaluate(node: Expr, system: RewriteSystem) -> NCElement:
    """Interpret an AST in the given rewrite system, normal-formed.

    Scalar subexpressions are computed in the series ring and promoted to
    multiples of the unit element only when combined with letters.
    """
    value = _eval(node, system)
    if isinstance(value, NCElement):
        return value
    return system.one * value


def _scalar_symbol(name: str, system: RewriteSystem):
    ring = system.ring
    if name == "eps":
        if ring.kind == "eps":
            return ring.eps_power(1, 1)
        return ring.monomial(1, 1, 0)
    if name == "h":
        if ring.kind != "bi":
            raise MixedAlphabetError(
                "h is a scalar of the two-parameter algebra only")
        return ring.monomial(1, 0, 1)
    return None


def _eval(node: Expr, system: RewriteSystem):
    if isinstance(node, Num):
        return system.ring.constant(node.value)
    if isinstance(node, Sym):
        scalar = _scalar_symbol(node.name, system)
        if scalar is not None:
            return scalar
        alphabet = X_ALPHABET if system.label == "x" else XI_ALPHABET
        try:
            return system.generator(alphabet[node.name])
        except KeyError:
            raise MixedAlphabetError(
                f"symbol {node.name!r} does not belong to the "
                f"{system.label}-alphabet") from None
    if isinstance(node, Mul):
        return _eval(node.left, system) * _eval(node.right, system)
    if isinstance(node, (Add, Sub)):
        left = _eval(node.left, system)
        right = _eval(node.right, system)
        if isinstance(left, NCElement) != isinstance(right, NCElement):
            if not isinstance(left, NCElement):
                left = system.one * left
            else:
                right = system.one * right
        return left - right if isinstance(node, Sub) else left + right
    if isinstance(node, Pow):
        return _eval(node.base, system) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")
