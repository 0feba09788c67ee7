"""Seeded random expression generators and a printer shared by the compiler
tests, and a guard for the tests that build very deep values."""

from __future__ import annotations

import functools
import random

import pytest

from gradcast.compiler import BinOp, Binop, Const, Exp

ALL_OPS = tuple(Binop)
COMMUTATIVE_OPS = (Binop.PLUS, Binop.TIMES)
SYMBOL = {Binop.PLUS: "+", Binop.MINUS: "-", Binop.TIMES: "*"}
PRECEDENCE = {Binop.PLUS: 1, Binop.MINUS: 1, Binop.TIMES: 2}


def recursion_fails_fast(f):
    """``f``, except that a ``RecursionError`` fails the test at once.

    A ``RecursionError`` reaching pytest makes it compare the locals of each
    traceback frame with those of earlier frames by ``==``, which walks every
    deep value held there and can take minutes.  So the test fails after the
    ``except`` block, with no exception chained, and without a traceback.
    """

    @functools.wraps(f)
    def guarded(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except RecursionError as error:
            message = f"{f.__qualname__} hit the recursion limit: {error}"
        pytest.fail(message, pytrace=False)

    return guarded


def random_exp(
    rng: random.Random,
    max_depth: int,
    ops: tuple[Binop, ...] = ALL_OPS,
    max_const: int = 9,
) -> Exp:
    """A random expression of depth at most ``max_depth`` (a constant counts
    as depth 1)."""
    if max_depth <= 1 or rng.random() < 0.25:
        return Const(rng.randint(0, max_const))
    return BinOp(
        rng.choice(ops),
        random_exp(rng, max_depth - 1, ops, max_const),
        random_exp(rng, max_depth - 1, ops, max_const),
    )


def exprs_by_op_count(max_ops: int, ops: tuple[Binop, ...] = ALL_OPS) -> list[Exp]:
    """Every expression with at most ``max_ops`` operator nodes over the
    constants {0, 1, 2}; sub-expressions are shared, so this is cheap to hold.
    """
    consts: list[Exp] = [Const(0), Const(1), Const(2)]
    layers: list[list[Exp]] = [consts]
    for k in range(1, max_ops + 1):
        layer: list[Exp] = []
        for i in range(k):
            for op in ops:
                for left in layers[i]:
                    for right in layers[k - 1 - i]:
                        layer.append(BinOp(op, left, right))
        layers.append(layer)
    return [e for layer in layers for e in layer]


def count_exprs_by_op_count(max_ops: int, num_ops: int, num_consts: int = 3) -> int:
    """Closed-form size of :func:`exprs_by_op_count`'s output, via the Catalan
    numbers; used to double-check the enumeration is exhaustive."""
    total = 0
    for k in range(max_ops + 1):
        catalan = 1
        for i in range(k):  # C(k) = prod (2(2i+1)/(i+2))
            catalan = catalan * 2 * (2 * i + 1) // (i + 2)
        total += catalan * (num_ops**k) * (num_consts ** (k + 1))
    return total


def contains_op(e: Exp, op: Binop) -> bool:
    match e:
        case Const():
            return False
        case BinOp(op=b, left=left, right=right):
            return b is op or contains_op(left, op) or contains_op(right, op)
    raise TypeError(f"not an expression: {e!r}")


def exp_text(e: Exp, min_prec: int = 0) -> str:
    """Source text for ``e`` with the fewest parentheses, for left-associative
    operators where ``*`` binds tighter; ``parse_exp`` reads it back as ``e``.
    Recursive, so for trees a few hundred levels deep at most."""
    if isinstance(e, Const):
        return str(e.value)
    prec = PRECEDENCE[e.op]
    text = f"{exp_text(e.left, prec)} {SYMBOL[e.op]} {exp_text(e.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text

