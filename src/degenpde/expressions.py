"""A small arithmetic expression language for right-hand sides and kernels.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are either variables (t, x, y, s) or the functions
sin, cos, exp, sqrt.  '^' is exponentiation and binds tighter than
unary minus, so -x^2 is -(x^2); its right operand is a unary, so
2^3^2 parses as 2^(3^2).

Evaluation is numpy-vectorized: variable bindings may be scalars or
broadcastable arrays.  Non-finite results raise EvaluationError.

Parsing and evaluation recurse, so `parse` refuses a tree deeper than
MAX_DEPTH levels and nesting (brackets, function calls, signs, powers)
deeper than MAX_NESTING levels, both well inside Python's recursion
limit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError

VARIABLES = ("t", "x", "y", "s")
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}

MAX_SOURCE_BYTES = 65536
MAX_DEPTH = 500                 # tree levels; evaluation recurses once per level
MAX_NESTING = MAX_DEPTH // 5    # the parser spends up to five frames per level


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Func(Node):
    name: str
    argument: Node


class _Tokenizer:
    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()

    def _advance(self):
        if self.pos < len(self.source) and self.source[self.pos] == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        self.pos += 1

    def _scan(self):
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            span = (self.line, self.col)
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, span))
                self._advance()
                continue
            if ch.isdigit() or ch == ".":
                start = self.pos
                seen_dot = False
                seen_exp = False
                while self.pos < len(src):
                    c = src[self.pos]
                    if c.isdigit():
                        self._advance()
                    elif c == "." and not seen_dot and not seen_exp:
                        seen_dot = True
                        self._advance()
                    elif c in "eE" and not seen_exp and self.pos + 1 < len(src) and (
                        src[self.pos + 1].isdigit()
                        or (src[self.pos + 1] in "+-" and self.pos + 2 < len(src) and src[self.pos + 2].isdigit())
                    ):
                        seen_exp = True
                        self._advance()
                        if src[self.pos] in "+-":
                            self._advance()
                    else:
                        break
                text = src[start:self.pos]
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(f"bad number {text!r}", *span)
                self.tokens.append(("num", value, span))
                continue
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
                    self._advance()
                self.tokens.append(("ident", src[start:self.pos], span))
                continue
            raise ParseError(f"unexpected character {ch!r}", self.line, self.col)
        self.tokens.append(("end", None, (self.line, self.col)))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", *tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", *tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            node = BinOp(self.take()[0], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            node = BinOp(self.take()[0], node, self.unary())
        return node

    def unary(self):
        # every recursion of the grammar passes through here
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} "
                             "levels", *tok[2])
        if tok[0] == "-":
            self.take()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        tok = self.take()
        kind, value, span = tok
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Func(value, arg)
            if value in VARIABLES:
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", *span)
        raise ParseError(f"unexpected token {value!r}", *span)


def parse(source):
    """Parse an expression string into an AST node."""
    if not isinstance(source, str):
        raise ParseError("expression must be a string")
    if len(source.encode("utf-8", "replace")) > MAX_SOURCE_BYTES:
        raise ParseError("expression source exceeds 64 KiB")
    tokens = _Tokenizer(source).tokens
    if tokens[0][0] == "end":
        raise ParseError("empty expression")
    tree = _Parser(tokens).parse()
    # long chains of + - * / are built by loops, not recursion, so the
    # tree can be deeper than the nesting; count its levels without recursing
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        if level > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels")
        stack.extend((child, level + 1) for child in vars(node).values()
                     if isinstance(child, Node))
    return tree


def variables_of(node):
    """Set of variable names appearing in the expression."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables_of(node.operand)
    if isinstance(node, Func):
        return variables_of(node.argument)
    if isinstance(node, BinOp):
        return variables_of(node.left) | variables_of(node.right)
    return set()


def separate(node, groups, max_terms):
    """A tree as a sum of products a_i b_i, a_i in the variables of
    groups[0] and b_i in those of groups[1] (sets of names, such as {"x"},
    {"s"} for a kernel): the list of (a_i, b_i) node pairs, or None when
    +, -, * and Neg do not reduce it to that form or it takes more than
    max_terms products.  A constant is an a part."""
    names = variables_of(node)
    if max_terms < 1:
        return None
    if names <= groups[0]:
        return [(node, Num(1.0))]
    if names <= groups[1]:
        return [(Num(1.0), node)]
    if isinstance(node, Neg):
        terms = separate(node.operand, groups, max_terms)
        return None if terms is None else [(Neg(a), b) for a, b in terms]
    if not (isinstance(node, BinOp) and node.op in ("+", "-", "*")):
        return None
    left = separate(node.left, groups, max_terms)
    right = None if left is None else separate(node.right, groups, max_terms)
    if right is None:
        return None
    count = len(left) * len(right) if node.op == "*" else len(left) + len(right)
    if count > max_terms:
        return None
    if node.op == "*":
        return [(BinOp("*", a, c), BinOp("*", b, d)) for a, b in left for c, d in right]
    return left + (right if node.op == "+" else [(Neg(a), b) for a, b in right])


def _eval(node, env):
    if isinstance(node, Num):
        # numpy scalars keep 1/0 and overflow as inf for the finiteness check
        return np.float64(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvaluationError(f"variable {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Func):
        arg = _eval(node.argument, env)
        with np.errstate(all="ignore"):
            return FUNCTIONS[node.name](arg)
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            if node.op == "^":
                return left ** right
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(node, **bindings):
    """Evaluate an AST (or a source string) under variable bindings.

    Bindings may be scalars or numpy arrays; arrays broadcast.  Any
    non-finite value in the result raises EvaluationError.
    """
    if isinstance(node, str):
        node = parse(node)
    env = {name: np.asarray(value, dtype=float) if isinstance(value, np.ndarray)
           else np.float64(value) for name, value in bindings.items()}
    result = _eval(node, env)
    result = np.asarray(result, dtype=float)
    if not np.all(np.isfinite(result)):
        raise EvaluationError("expression produced a non-finite value")
    if result.ndim == 0:
        return float(result)
    return result
