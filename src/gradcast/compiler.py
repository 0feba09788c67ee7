"""A gradually checked compiler for arithmetic expressions.

Source expressions are built from naturals and three binary operations; the
target is a tiny stack machine.  Two compilers are provided: ``compile_buggy``
emits the left subexpression's code first, which reverses the operand order on
the stack and miscompiles every non-commutative node, and ``compile_fixed``
emits right-then-left so the stack top lines up with the first operand.

Rather than proving either compiler correct, :func:`checked_compile` wraps one
in a dependent range cast: each compiled program is checked, at compile time
of that one expression, to run to the same result the interpreter gives.

Subtraction on naturals truncates at zero (1 - 2 = 0); that is what makes the
buggy compiler observably wrong on subtraction while agreeing on sums and
products.

Parsing, compiling, evaluating and running each walk their input once with
an explicit stack, so they take linear time and accept any nesting depth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .casts import FailureMode, Refined, proj1
from .hocasts import cast_forall_range
from .instances import Nat, check_nat, eq_list, eq_nat, eq_option
from .predicates import Pred, PredFamily
from .render import show_value


class Binop(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    TIMES = "Times"


@dataclass(frozen=True)
class Const:
    value: Nat


@dataclass(frozen=True)
class BinOp:
    op: Binop
    left: "Exp"
    right: "Exp"


Exp = Union[Const, BinOp]


@dataclass(frozen=True)
class IConst:
    value: Nat


@dataclass(frozen=True)
class IBinop:
    op: Binop


Instr = Union[IConst, IBinop]
Prog = list[Instr]
Stack = list[Nat]


@show_value.register
def _show_iconst(instr: IConst) -> str:
    return f"iConst {instr.value}"


@show_value.register
def _show_ibinop(instr: IBinop) -> str:
    return f"iBinop {instr.op.value}"


def eval_binop(b: Binop, x: Nat, y: Nat) -> Nat:
    check_nat(x)
    check_nat(y)
    if b is Binop.PLUS:
        return x + y
    if b is Binop.MINUS:
        return x - y if x >= y else 0
    return x * y


# Marks, on an explicit traversal stack, that the operands of the BinOp
# pushed just beneath it have been visited.
_OPERANDS_DONE = object()


def eval_exp(e: Exp) -> Nat:
    """The interpreter: evaluates left operand, right operand, then the node,
    with an explicit stack, so any nesting depth is fine."""
    values: Stack = []
    todo: list = [e]
    pop = todo.pop
    while todo:
        node = pop()
        if isinstance(node, Const):
            values.append(check_nat(node.value))
        elif node is _OPERANDS_DONE:
            right = values.pop()
            values[-1] = eval_binop(pop().op, values[-1], right)
        elif isinstance(node, BinOp):
            todo += (node, _OPERANDS_DONE, node.right, node.left)
        else:
            raise TypeError(f"not an expression: {node!r}")
    return values[0]


def run_instr(i: Instr, s: Stack) -> Optional[Stack]:
    """Execute one instruction; see :func:`run_prog`."""
    return run_prog([i], s)


def run_prog(p: Prog, s: Stack) -> Optional[Stack]:
    """Run ``p`` on ``s``. The stack top is the first element; a binary
    operation pops arg1 then arg2 and pushes arg1 OP arg2. ``None`` signals
    stack underflow. ``s`` is not modified."""
    # Work on one list whose top is its last element, so a push or pop never
    # copies the stack.
    stack = list(s)
    stack.reverse()
    push, pop = stack.append, stack.pop
    for instr in p:
        if isinstance(instr, IConst):
            push(instr.value)
        elif isinstance(instr, IBinop):
            if len(stack) < 2:
                return None
            arg1 = pop()
            stack[-1] = eval_binop(instr.op, arg1, stack[-1])
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    stack.reverse()
    return stack


# Instructions are immutable, so one IBinop per operation serves every program.
_IBINOP = {b: IBinop(b) for b in Binop}


def _compile(e: Exp, left_first: bool) -> Prog:
    """Post-order code for ``e``: both operands' code, then the operation."""
    prog: Prog = []
    emit = prog.append
    todo: list = [e]
    pop = todo.pop
    while todo:
        node = pop()
        if isinstance(node, Const):
            emit(IConst(node.value))
        elif node is _OPERANDS_DONE:
            emit(_IBINOP[pop().op])
        elif isinstance(node, BinOp):
            if left_first:
                todo += (node, _OPERANDS_DONE, node.right, node.left)
            else:
                todo += (node, _OPERANDS_DONE, node.left, node.right)
        else:
            raise TypeError(f"not an expression: {node!r}")
    return prog


def compile_buggy(e: Exp) -> Prog:
    """Compile left subexpression first. Looks plausible, reverses operands."""
    return _compile(e, left_first=True)


def compile_fixed(e: Exp) -> Prog:
    """Compile right subexpression first so the stack top is the first operand."""
    return _compile(e, left_first=False)


_RESULT_EQ = eq_option(eq_list(eq_nat()))


def correct_prog(e: Exp) -> Pred[Prog]:
    """The property of programs: running on an empty stack yields exactly the
    interpreter's value for ``e``.  Decided by synthesized equality over
    optional stacks."""
    expected: Optional[Stack] = [eval_exp(e)]

    return Pred(
        decide=lambda p: _RESULT_EQ.eq_decide(run_prog(p, []), expected),
        render=lambda p: _RESULT_EQ.render_eq(run_prog(p, []), expected),
    )


COMPILERS: dict[str, Callable[[Exp], Prog]] = {
    "buggy": compile_buggy,
    "fixed": compile_fixed,
}


def checked_compile(
    variant: str = "buggy", mode: FailureMode = FailureMode.LAZY
) -> Callable[[Exp], Refined]:
    """Wrap a compiler so each compiled program carries (or fails to carry)
    evidence of correctness for the expression it was compiled from."""
    if variant not in COMPILERS:
        raise ValueError(f"unknown compiler variant {variant!r}")
    return cast_forall_range(PredFamily(at=correct_prog), COMPILERS[variant], mode)


def runc(c: Callable[[Exp], Refined], e: Exp) -> Optional[Stack]:
    """Run a checked compiler's output on the empty stack.

    Projects the compiled program out of the refined wrapper first, so a
    failed compilation cast faults here rather than producing a wrong answer.
    """
    return run_prog(proj1(c(e)), [])


class ParseError(Exception):
    """Raised on malformed expression text; ``offset`` is the 1-based byte
    position of the failure."""

    def __init__(self, reason: str, offset: int) -> None:
        super().__init__(f"{reason} at offset {offset}")
        self.reason = reason
        self.offset = offset


_WHITESPACE = " \t\r\n\f\v"
_DIGITS = "0123456789"
_OPERATORS = {"+": Binop.PLUS, "-": Binop.MINUS, "*": Binop.TIMES}
_PRECEDENCE = {Binop.PLUS: 1, Binop.MINUS: 1, Binop.TIMES: 2}
_SYMBOL = {b: symbol for symbol, b in _OPERATORS.items()}
# Precedence on the parser's operator stack, where None is an open parenthesis.
_BINDING = {None: 0, **_PRECEDENCE}


def parse_exp(src: str) -> Exp:
    """Parse ``expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := NAT | '(' expr ')'``; operators are left-associative and ``*``
    binds tighter.

    An operator-precedence loop with explicit stacks, so any nesting depth
    is fine.  A numeral too long for ``int`` is a :class:`ParseError`."""
    end = len(src)
    # A NUL sentinel ends the text; reading it at ``end`` means end of input.
    text = src + "\0"
    pos = 0
    operands: list[Exp] = []
    # Operators waiting for their right operand, and open parentheses (None).
    pending: list[Optional[Binop]] = []
    open_parens = 0

    def reduce(min_prec: int) -> None:
        while pending and _BINDING[pending[-1]] >= min_prec:
            right = operands.pop()
            operands[-1] = BinOp(pending.pop(), operands[-1], right)

    while True:
        # Expect an operand: open parentheses, then a numeral.
        ch = text[pos]
        while ch in _WHITESPACE or ch == "(":
            if ch == "(":
                pending.append(None)
                open_parens += 1
            pos += 1
            ch = text[pos]
        if ch not in _DIGITS:
            if pos == end:
                raise ParseError("expected a number or '('", pos + 1)
            raise ParseError(f"unexpected character {ch!r}", pos + 1)
        start = pos
        pos += 1
        while text[pos] in _DIGITS:
            pos += 1
        try:
            operands.append(Const(int(text[start:pos])))
        except ValueError:
            raise ParseError(
                f"numeral of {pos - start} digits is too long", start + 1
            ) from None
        # After an operand: close parentheses, then an operator or the end.
        while True:
            ch = text[pos]
            while ch in _WHITESPACE:
                pos += 1
                ch = text[pos]
            op = _OPERATORS.get(ch)
            if op is not None:
                break
            if not open_parens:
                if pos == end:
                    reduce(1)
                    return operands[0]
                raise ParseError(f"unexpected character {ch!r}", pos + 1)
            if ch != ")":
                raise ParseError("expected ')'", pos + 1)
            reduce(1)
            pending.pop()
            open_parens -= 1
            pos += 1
        reduce(_PRECEDENCE[op])
        pending.append(op)
        pos += 1


def format_exp(e: Exp) -> str:
    """Render an expression in the grammar :func:`parse_exp` accepts;
    round-trips through the parser.  Iterative, so any depth is fine."""
    parts: list[str] = []
    # Text still to emit, last item first: literal strings and
    # (subexpression, least precedence that needs no parentheses) pairs.
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, min_prec = item
        if isinstance(node, Const):
            parts.append(str(node.value))
        elif isinstance(node, BinOp):
            prec = _PRECEDENCE[node.op]
            parens = prec < min_prec
            if parens:
                todo.append(")")
            todo += ((node.right, prec + 1), f" {_SYMBOL[node.op]} ", (node.left, prec))
            if parens:
                todo.append("(")
        else:
            raise TypeError(f"not an expression: {node!r}")
    return "".join(parts)
