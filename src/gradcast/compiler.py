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

Parsing, compiling, evaluating and running each visit a node once with an explicit
stack, so any nesting depth works, as it does for a tree's ``==``, ``hash``, ``repr``,
``copy``, ``deepcopy`` and ``pickle``: a copy shares what the tree shares; copying a
cycle raises ``ValueError``.  A failed check's render is the one place a computed value
becomes text (a program shows only leaves), so nothing is refused for size before
evaluating: past the interpreter's digit limit it and the ``IConst`` renderer raise
:class:`LimitError`.
"""

from __future__ import annotations

import enum
import re
from operator import is_
from typing import Callable, Optional, Union

from .casts import FailureMode, LimitError, Refined, proj1
from .hocasts import cast_forall_range
from .instances import Nat, check_nat, eq_list, eq_nat, eq_option
from .predicates import Decision, Pred, PredFamily
from .records import _new, record
from .render import show_value


class Binop(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    TIMES = "Times"

    __hash__ = object.__hash__  # members are singletons, compared by identity


# Marks, on BinOp.__reduce__'s stack, that the BinOp beneath it has its operands visited.
_OPERANDS_DONE = object()


class Const(record("value")):
    __slots__ = ()


class BinOp(record("op", "left", "right")):
    __slots__ = ()

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle get an entry per node, operands first, with an
        # operand node as its entry's number: any depth works and a node met twice
        # is one entry.  index maps a node's id to its entry, None while open.
        entries, index, todo = [], {}, [self]
        while todo:
            if (node := todo.pop()) is _OPERANDS_DONE:
                node = todo.pop()
                index[id(node)] = len(entries)  # no leaf's id is a key: keys are live nodes'
                refs = isinstance(node._left, BinOp) | isinstance(node._right, BinOp) << 1
                entries.append((type(node), node._op, index.get(id(node._left), node._left),
                                index.get(id(node._right), node._right), refs))
            elif isinstance(node, BinOp) and id(node) not in index:
                index[id(node)] = None
                todo += (node, _OPERANDS_DONE, node._right, node._left)
            elif isinstance(node, BinOp) and index[id(node)] is None:  # below itself
                raise ValueError("cannot copy a cyclic expression tree")
        return _rebuild_tree, (entries,)


def _rebuild_tree(nodes: list) -> BinOp:
    for i, (cls, op, left, right, refs) in enumerate(nodes):
        nodes[i] = cls(op, nodes[left] if refs & 1 else left, nodes[right] if refs & 2 else right)
    return nodes[-1]


Exp = Union[Const, BinOp]


class IConst(record("value")):
    __slots__ = ()


class IBinop(record("op")):
    __slots__ = ()


Instr = Union[IConst, IBinop]
Prog = list[Instr]
Stack = list[Nat]

_IBINOP_TEXT = {b: f"iBinop {b.value}" for b in Binop}


@show_value.register(IConst)
def _show_iconst(instr: IConst) -> str:
    try:
        return f"iConst {instr._value}"
    except ValueError:  # int-to-text past the interpreter's digit limit
        raise LimitError("an instruction's value exceeds the integer digit limit") from None


@show_value.register(IBinop)
def _show_ibinop(instr: IBinop) -> str:
    op = instr._op
    return _IBINOP_TEXT[op] if type(op) is Binop else f"iBinop {op.value}"


_PLUS, _MINUS = Binop.PLUS, Binop.MINUS


def _denote(op: Binop, x: Nat, y: Nat) -> Nat:
    if not (type(x) is int and x >= 0):
        check_nat(x)
    if not (type(y) is int and y >= 0):
        check_nat(y)
    if op is _PLUS:
        return x + y
    if op is _MINUS:
        return x - y if x >= y else 0
    return x * y


def eval_exp(e: Exp) -> Nat:
    """The interpreter: left operand, right operand, then the node.  A node is its own frame
    while its left operand is evaluated, to ``x``, then ``(op, x)`` while its right is."""
    todo: list = []
    push, pop = todo.append, todo.pop
    denote = _denote
    node = e
    while True:
        while isinstance(node, BinOp):
            push(node)
            node = node._left
        if not isinstance(node, Const):
            raise TypeError(f"not an expression: {node!r}")
        value = node._value
        x = value if type(value) is int and value >= 0 else check_nat(value)
        while todo:
            frame = pop()
            if type(frame) is tuple:
                x = denote(frame[0], frame[1], x)  # frame[1] is the left operand's value
            else:
                push((frame._op, x))
                node = frame._right
                break
        else:
            return x


def run_prog(p: Prog, s: Stack) -> Optional[Stack]:
    """Run ``p`` on ``s``. The stack top is the first element; a binary
    operation pops arg1 then arg2 and pushes arg1 OP arg2. ``None`` signals
    stack underflow. ``s`` is not modified."""
    # Work on one list whose top is its last element, so a push or pop never
    # copies the stack.
    stack = list(s)
    stack.reverse()
    push, pop = stack.append, stack.pop
    denote = _denote
    for instr in p:
        if isinstance(instr, IConst):
            push(instr._value)
        elif isinstance(instr, IBinop):
            if len(stack) < 2:
                return None
            stack[-1] = denote(instr._op, pop(), stack[-1])  # x popped; y's slot gets x OP y
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    stack.reverse()
    return stack


# Instructions are immutable, so these tables, built once, serve every program.
_IBINOP = {b: IBinop(b) for b in Binop}
_ICONST = tuple(map(IConst, range(256)))


def _compile(e: Exp, left_first: bool) -> Prog:
    """Post-order code for ``e``: both operands' code, then the operation.  A node is
    its own frame while its first operand is compiled, then ``(op,)`` while its second is."""
    prog: Prog = []
    emit = prog.append
    todo: list = []
    push, pop = todo.append, todo.pop
    node = e
    while True:
        while isinstance(node, BinOp):
            push(node)
            node = node._left if left_first else node._right
        if not isinstance(node, Const):
            raise TypeError(f"not an expression: {node!r}")
        value = node._value
        emit(_ICONST[value] if type(value) is int and 0 <= value < 256 else IConst(value))
        while todo:
            frame = pop()
            if type(frame) is tuple:
                emit(_IBINOP[frame[0]])
            else:
                push((frame._op,))
                node = frame._right if left_first else frame._left
                break
        else:
            return prog


def compile_buggy(e: Exp) -> Prog:
    """Compile left subexpression first. Looks plausible, reverses operands."""
    return _compile(e, left_first=True)


def compile_fixed(e: Exp) -> Prog:
    """Compile right subexpression first so the stack top is the first operand."""
    return _compile(e, left_first=False)


_RESULT_EQ = eq_option(eq_list(eq_nat()))
_RESULT_DECIDE = _RESULT_EQ.eq_decide


class _ProgCheck:
    """``correct_prog(e)``'s decider: what it expects, and what its last decision ran and saw."""

    __slots__ = ("expected", "last")

    def __init__(self, expected: Stack) -> None:
        self.expected = expected
        self.last: tuple[tuple, Optional[Stack]] = ((), [])  # () runs to []

    def run(self, p: Prog) -> Optional[Stack]:
        snapshot, stack = self.last
        if len(p) != len(snapshot) or not all(map(is_, p, snapshot)):
            return run_prog(p, [])
        return None if stack is None else stack.copy()

    def __call__(self, p: Prog) -> Decision:
        snapshot = tuple(p)
        stack = run_prog(snapshot, [])
        self.last = (snapshot, stack)
        return _RESULT_DECIDE(stack, self.expected)

    def render(self, p: Prog) -> str:
        stack = self.run(p)  # outside the try: a ValueError from running is no limit
        try:
            return _RESULT_EQ.render_eq(stack, self.expected)
        except ValueError:  # int-to-text past the interpreter's digit limit
            raise LimitError("a stack value exceeds the integer digit limit") from None


def correct_prog(e: Exp) -> Pred[Prog]:
    """The property of programs: running on an empty stack yields exactly the interpreter's
    value for ``e``.  Decided by synthesized equality over optional stacks.

    Its ``decide`` is a ``_ProgCheck``, which keeps the stack each program ran to;
    ``render`` and :func:`runc` reuse it while the program holds the instructions that
    ran, so a checked program runs once, and a changed one again.  ``render`` raises
    :class:`LimitError` for a stack value past the interpreter's int-string digit limit."""
    check = _ProgCheck([eval_exp(e)])
    return Pred(decide=check, render=check.render)


COMPILERS: dict[str, Callable[[Exp], Prog]] = {
    "buggy": compile_buggy,
    "fixed": compile_fixed,
}


def checked_compile(
    variant: str = "buggy", mode: FailureMode = FailureMode.LAZY
) -> Callable[[Exp], Refined]:
    """Wrap a compiler so each compiled program carries (or fails to carry)
    evidence of correctness for the expression it was compiled from.  An
    unknown variant or mode raises ``ValueError``."""
    if variant not in COMPILERS:
        raise ValueError(f"unknown compiler variant {variant!r}")
    return cast_forall_range(PredFamily(at=correct_prog), COMPILERS[variant], mode)


def runc(c: Callable[[Exp], Refined], e: Exp) -> Optional[Stack]:
    """Run a checked compiler's output on the empty stack.

    Projects the compiled program out of the refined wrapper first, so a
    failed compilation cast faults here rather than producing a wrong answer.
    A program attested by :func:`correct_prog`'s check, its ``decide``, is not run
    again while it holds the instructions that ran: a copy of their stack is returned.
    """
    refined = c(e)
    prog = proj1(refined)
    check = getattr(refined.pred, "decide", None)
    return check.run(prog) if type(check) is _ProgCheck else run_prog(prog, [])


class ParseError(Exception):
    """Raised on malformed expression text; ``offset`` is the 1-based byte
    position of the failure."""

    def __init__(self, reason: str, offset: int) -> None:
        super().__init__(f"{reason} at offset {offset}")
        self.reason, self.offset = reason, offset

    def __reduce__(self) -> tuple:  # rebuilt from its fields by copy and pickle
        return type(self), (self.reason, self.offset), self.__dict__


# A character outside the grammar: the parse fails at or before the first one.
_FOREIGN = re.compile(r"[^0-9+*()\- \t\r\n\f\v]")
_OPERATORS = {"+": Binop.PLUS, "-": Binop.MINUS, "*": Binop.TIMES}
# Precedence of each symbol on the parser's operator stack; "(" marks an open
# parenthesis and binds least.
_BINDING = {"(": 0, "+": 1, "-": 1, "*": 2}
# Leaves are immutable, so one Const per numeral "0" to "255" serves every parse.
_NUMERALS = {str(n): Const(n) for n in range(256)}


def _parse_error(
    src: str, tokens: list[str], index: int, reason: Optional[str] = None
) -> ParseError:
    """The error at token ``index``, by default naming its first character.
    The offset comes from finding the tokens in ``src`` one after another,
    which only a failing parse pays for: before the first foreign character
    only ASCII whitespace lies between them."""
    offset = end = 0
    for token in tokens[: index + 1]:  # "" is the end-of-input sentinel
        offset = src.index(token, end) if token else len(src)
        end = offset + len(token)
    if reason is None:
        reason = f"unexpected character {tokens[index][0]!r}"
    return ParseError(reason, offset + 1)


def parse_exp(src: str) -> Exp:
    """Parse ``expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := NAT | '(' expr ')'``; operators are left-associative and ``*``
    binds tighter.

    The text up to its first character outside the grammar is split into tokens by
    padding ``( ) + - *`` with spaces and calling ``split()``; that character, which
    the parse cannot get past, is the last token.  Then an operator-precedence loop
    with explicit stacks builds the tree, so any nesting depth is fine.  Any error, a
    numeral too long for ``int`` too, is a :class:`ParseError`."""
    foreign = _FOREIGN.search(src)
    end = foreign.start() if foreign else len(src)
    text = src[:end].replace("(", " ( ").replace(")", " ) ").replace("+", " + ")
    tokens = text.replace("-", " - ").replace("*", " * ").split()
    # That character is one token, even a "\xa0" that split() drops; "" if none.
    tokens += (src[end : end + 1], "")
    operands: list[Exp] = []
    pop_operand = operands.pop
    # Operator symbols waiting for their right operand, and "(" for each open
    # parenthesis; the bottom "(" stands for the whole text, closed by its end.
    pending = ["("]
    push_pending, pop_pending = pending.append, pending.pop
    open_parens = 0
    i = 0
    while True:
        # Expect an operand: open parentheses, then a numeral.
        token = tokens[i]
        while token == "(":
            push_pending(token)
            open_parens += 1
            i += 1
            token = tokens[i]
        const = _NUMERALS.get(token)
        if const is None:
            # A token is a numeral exactly when its first character is a digit.
            if not "0" <= token[:1] <= "9":
                raise _parse_error(
                    src, tokens, i, None if token else "expected a number or '('"
                )
            try:
                const = Const(int(token))
            except ValueError:
                raise _parse_error(
                    src, tokens, i, f"numeral of {len(token)} digits is too long"
                ) from None
        operands.append(const)
        # After an operand: close parentheses, then an operator or the end.
        i += 1
        token = tokens[i]
        while token not in _OPERATORS:
            if open_parens:
                if token != ")":
                    raise _parse_error(src, tokens, i, "expected ')'")
                open_parens -= 1
            elif token:
                raise _parse_error(src, tokens, i)
            symbol = pop_pending()
            while symbol != "(":
                node = _new(BinOp)
                node._op, node._right = _OPERATORS[symbol], pop_operand()
                node._left, operands[-1] = operands[-1], node
                symbol = pop_pending()
            if not token:
                return operands[0]
            i += 1
            token = tokens[i]
        binding = _BINDING[token]
        while _BINDING[pending[-1]] >= binding:
            node = _new(BinOp)
            node._op, node._right = _OPERATORS[pop_pending()], pop_operand()
            node._left, operands[-1] = operands[-1], node
        push_pending(token)
        i += 1
