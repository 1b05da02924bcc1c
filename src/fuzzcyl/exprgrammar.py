"""Minimal arithmetic expression grammar for user-supplied interval maps.

Supports numbers, the point variable ``x``, the step symbol ``h``, the four
arithmetic operators, integer powers via ``^``, parentheses, and ``sqrt``.
That covers affine maps, polynomials, and the square-root closed forms the
built-in families use, without pulling in a full parser dependency.

Compiled expressions are vectorized: they accept numpy arrays for ``x``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_TOKEN_CHARS = set("+-*/^()")

# deepest nesting of signs, parentheses and sqrt, and tallest expression tree,
# that parsing and evaluation recurse through without nearing Python's limit
MAX_DEPTH = 100


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append(c)
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r} in expression {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.level = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r} in {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input {self.peek()!r} in {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        # every nested parse passes through here
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels: {self.source[:40]!r}...")
        if self.peek() == "-":
            self.take()
            node = ("neg", self.unary())
        elif self.peek() == "+":
            self.take()
            node = self.unary()
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            tok = self.take()
            if tok == "-":
                neg = True
                tok = self.take()
            try:
                exp = int(tok)
            except ValueError:
                raise ExpressionError(f"power must be an integer, got {tok!r} in {self.source!r}") from None
            return ("pow", base, -exp if neg else exp)
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok == "sqrt":
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return ("sqrt", node)
        if tok in ("x", "h"):
            return (tok,)
        try:
            # a numpy float: under the errstate of `fn` a constant part that divides
            # by zero gives inf, as a part in x does, where a Python float raises
            return ("num", np.float64(float(tok)))
        except ValueError:
            raise ExpressionError(f"unknown symbol {tok!r} in {self.source!r}") from None


def _evaluate(node, x, h):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "x":
        return x
    if op == "h":
        return h
    if op == "neg":
        return -_evaluate(node[1], x, h)
    if op == "sqrt":
        return np.sqrt(_evaluate(node[1], x, h))
    if op == "pow":
        return _evaluate(node[1], x, h) ** node[2]
    a = _evaluate(node[1], x, h)
    b = _evaluate(node[2], x, h)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ExpressionError(f"bad node {op!r}")


def _height(node) -> int:
    """Levels of an expression tree, counted without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in node[1:] if isinstance(child, tuple))
    return height


def is_translation(text: str) -> bool:
    """Whether an expression parses as x + c or x - c with c free of x."""
    tokens = _tokenize(text)
    node = _Parser(tokens, text).parse()
    return node[0] in ("+", "-") and node[1] == ("x",) and tokens.count("x") == 1


def compile_expression(text: str) -> Callable[[np.ndarray, float], np.ndarray]:
    """Compile an expression in x (and optionally h) to a vectorized callable."""
    node = _Parser(_tokenize(text), text).parse()
    if _height(node) > MAX_DEPTH:
        # a long chain like x+0+0+... nests to the left without nesting the parse
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels: {text[:40]!r}...")

    def fn(x, h=0.0):
        # off its domain a map gives NaN or inf, which the family checks report
        with np.errstate(all="ignore"):
            return _evaluate(node, np.asarray(x, dtype=float), np.float64(h))

    return fn
