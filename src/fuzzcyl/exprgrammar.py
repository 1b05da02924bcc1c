"""Minimal arithmetic expression grammar for user-supplied interval maps.

Supports numbers, the point variable ``x``, the step symbol ``h``, the four
arithmetic operators, integer powers via ``^``, parentheses, and ``sqrt``.
That covers affine maps, polynomials, and the square-root closed forms the
built-in families use.

Python's own parser reads the text, with ``^`` rewritten to ``**``, and a
whitelist of its tree nodes is compiled to numpy closures. Text longer than
``MAX_LENGTH``, holding a character outside the grammar's or ``**`` or ``0x``,
is refused before the parser sees it; so is every node outside the grammar,
a power whose exponent is not an integer literal (``n`` or ``-n``) that fits
a float, and a tree taller than ``MAX_DEPTH``.

Compiled expressions are vectorized: they accept numpy arrays for ``x``.
"""

from __future__ import annotations

import ast
import functools
import operator
import sys
from typing import Callable

import numpy as np

_CHARS = set("0123456789.eExhsqrt+-*/^() \t\n\r\v\f")
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}

# longest text handed to Python's parser, and tallest tree compiled; both stay
# far inside the parser's and the interpreter's recursion limits
MAX_LENGTH = 1000
MAX_DEPTH = 100


class ExpressionError(ValueError):
    pass


def _parse(text: str) -> ast.expr:
    if len(text) > MAX_LENGTH:
        raise ExpressionError(f"expression longer than {MAX_LENGTH} characters: {text[:40]!r}...")
    if not set(text) <= _CHARS or "**" in text or "0x" in text:
        raise ExpressionError(f"unexpected characters in expression {text!r}")
    try:
        return ast.parse(" ".join(text.split()).replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as e:
        raise ExpressionError(f"cannot parse expression {text!r}: {e}") from None


def _compile(node: ast.expr, depth: int) -> Callable:
    """Closures f(x, h) for a tree in the grammar, applying the operations that
    the tree spells in its order; ExpressionError for any other tree."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels")
    match node:
        case ast.Constant(value=int() | float() as v):
            # a numpy float, from the literal's text as float() reads it: under the
            # errstate of `fn` a constant part that divides by zero gives inf, as a
            # part in x does, and an integer past the float range is inf as well
            c = np.float64(float(str(v)))
            return lambda x, h: c
        case ast.Name(id="x"):
            return lambda x, h: x
        case ast.Name(id="h"):
            return lambda x, h: h
        case ast.UnaryOp(op=ast.UAdd(), operand=a):
            return _compile(a, depth + 1)
        case ast.UnaryOp(op=ast.USub(), operand=a):
            f = _compile(a, depth + 1)
            return lambda x, h: -f(x, h)
        case ast.Call(func=ast.Name(id="sqrt"), args=[a], keywords=[]):
            f = _compile(a, depth + 1)
            return lambda x, h: np.sqrt(f(x, h))
        case ast.BinOp(left=a, op=ast.Pow(), right=ast.Constant(value=int() as n) | ast.UnaryOp(
                op=ast.USub(), operand=ast.Constant(value=int() as n))):
            n = -n if isinstance(node.right, ast.UnaryOp) else n
            if abs(n) > sys.float_info.max:
                raise ExpressionError(f"power {ast.unparse(node.right)[:40]!r} is past the float range")
            f = _compile(a, depth + 1)
            return lambda x, h: f(x, h) ** n
        case ast.BinOp(left=a, op=op, right=b) if type(op) in _OPS:
            op, f, g = _OPS[type(op)], _compile(a, depth + 1), _compile(b, depth + 1)
            return lambda x, h: op(f(x, h), g(x, h))
    raise ExpressionError(f"{ast.unparse(node)[:40]!r} is outside the expression grammar")


@functools.lru_cache
def _read(text: str) -> tuple[ast.expr, Callable]:
    """The tree of a text in the grammar and its closures f(x, h), read once per
    text: a family compiles its two texts, then asks whether they are translations."""
    node = _parse(text)
    return node, _compile(node, 1)


def _unplus(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        node = node.operand
    return node


def is_translation(text: str) -> bool:
    """Whether an expression parses as x + c or x - c with c free of x."""
    node = _unplus(_read(text)[0])
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    left = _unplus(node.left)
    x_in_c = any(isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(node.right))
    return isinstance(left, ast.Name) and left.id == "x" and not x_in_c


def compile_expression(text: str) -> Callable[[np.ndarray, float], np.ndarray]:
    """Compile an expression in x (and optionally h) to a vectorized callable."""
    f = _read(text)[1]

    def fn(x, h=0.0):
        # off its domain a map gives NaN or inf, which the family checks report
        with np.errstate(all="ignore"):
            return f(np.asarray(x, dtype=float), np.float64(h))

    return fn
