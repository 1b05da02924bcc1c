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
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

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
            return ("num", float(tok))
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


def compile_expression(text: str) -> Callable[[np.ndarray, float], np.ndarray]:
    """Compile an expression in x (and optionally h) to a vectorized callable."""
    node = _Parser(_tokenize(text), text).parse()

    def fn(x, h=0.0):
        # off its domain a map gives NaN or inf, which the family checks report
        with np.errstate(all="ignore"):
            return _evaluate(node, np.asarray(x, dtype=float), h)

    return fn
