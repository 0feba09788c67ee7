"""The references the tests compare the library against, and the helpers
that more than one test module uses.  Each reference is written once, here; a
test module imports it from here and imports no other test module.

- Predicates and derived equalities, evidence-eager: the decision procedures
  as they were before evidence text was deferred.  Every decision formats its
  summary at once, combinators read their children's summaries and renders
  while deciding, a refuted list equation renders both elements, and
  ``check_nat`` runs the full natural-number checks.  Decisions are the
  library's ``Holds``/``Refutes`` around a literal summary, so the library and
  this reference can be compared on arm, summary text, render and exception.
- Renderers: ``ref_show_value`` and ``ref_show_sequence`` (the renderers of the
  equalities above) render a sequence element by element through a per-call
  closure and every int but a bool by ``str``; ``ref_show_instr``,
  ``ref_show_prog`` and ``ref_show_ilist`` read the public fields.
- The compiler kernels: ``ref_parse_exp`` scans the text one character at a
  time and builds a new leaf per numeral; ``ref_eval_exp``, ``ref_compile``
  and ``ref_run_prog`` dispatch operations through Enum-keyed tables and check
  every operand through ``ref_eval_binop``.
- Records: ``eq_key``, ``hash_key`` and ``ref_repr`` walk the shown fields
  recursively, without the record's own methods.
- Rationals: Euclid's ``ref_gcd``, ``ref_irreducible_gcd`` through
  ``p_equivalent``, an evidence-bearing equivalence step that only this
  reference has, ``ref_cast_rat``, and the scans
  ``divisor_scan_irreducible`` and ``least_counterexample``.
- Helpers: ``issued`` makes the records whose constructors refuse every call
  (evidence, rationals, refined values) as the library's builders make them,
  so tests can build reference values of those types; ``holds``,
  ``counting_pred``, ``outcome`` (what a compiler call shows its caller) and
  ``Small``, an ``int`` subclass that changes nothing.
"""

from typing import Optional

from gradcast.casts import CastFault, FailureMode, check_choice
from gradcast.compiler import BinOp, Binop, Const, IBinop, IConst, ParseError
from gradcast.instances import EqDec
from gradcast.predicates import Evidence, Holds, Pred, Refutes
from gradcast.rationals import (
    _RATIONAL_EVIDENCE,
    MACHINE_ARITH,
    PEANO_ARITH,
    RAT_INVARIANTS,
    AttestedRat,
    FailedCastRat,
    IrredStrategy,
    Rat,
    _require_nonzero_bottom,
    irreducible_bounded,
)
from gradcast.records import _Record
from gradcast.render import show_optional, show_value


# -- helpers -------------------------------------------------------------------


def issued(cls, *args, **kwargs):
    """A ``cls`` made by ``object.__new__`` and, for a record, the generated
    ``__init__`` of its record base; an ``Evidence`` takes its summary."""
    made = object.__new__(cls)
    if cls is Evidence:
        (made._text,) = args
    else:
        base = next(c for c in cls.__mro__ if _Record in c.__bases__)
        base.__init__(made, *args, **kwargs)
    return made


def holds(decision):
    return isinstance(decision, Holds)


def counting_pred(inner):
    """``inner`` with each decide recorded: the predicate and the list of the
    values it decided."""
    calls = []

    def decide(a):
        calls.append(a)
        return inner.decide(a)

    return Pred(decide=decide, render=inner.render), calls


class Small(int):
    """An int subclass that changes nothing: takes check_nat's slow path."""


# -- predicates and derived equalities, evidence-eager -------------------------


def _holds(summary):
    return Holds(issued(Evidence, summary))


def _refutes(summary):
    return Refutes(issued(Evidence, summary))


_EQ_REFL = _holds("eq_refl")


def check_nat(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"natural number expected, got {value!r}")
    if value < 0:
        raise ValueError(f"natural number expected, got {value}")
    return value


def dec_le(x, y):
    check_nat(x)
    check_nat(y)
    if x <= y:
        return _holds(f"{x} <= {y} by arithmetic")
    return _refutes(f"{x} <= {y} is false: {y} < {x}")


def pred_lt_const(k):
    check_nat(k)

    def decide(n):
        check_nat(n)
        return dec_le(n + 1, k)

    def render(n):
        check_nat(n)
        return f"{n + 1} <= {k}"

    return Pred(decide=decide, render=render)


def pred_gt_const(k):
    check_nat(k)
    return Pred(decide=lambda n: dec_le(k + 1, n), render=lambda n: f"{k + 1} <= {check_nat(n)}")


def pred_ge_const(k):
    check_nat(k)
    return Pred(decide=lambda n: dec_le(k, n), render=lambda n: f"{k} <= {check_nat(n)}")


def eq_nat():
    def decide(a, b):
        check_nat(a)
        check_nat(b)
        if a == b:
            return _EQ_REFL
        return _refutes(f"{a} <> {b}")

    return EqDec(eq_decide=decide, render_value=ref_show_value)


def eq_list(elem):
    def decide(xs, ys):
        if len(xs) != len(ys):
            return _refutes(f"lengths differ: {len(xs)} <> {len(ys)}")
        for x, y in zip(xs, ys):
            verdict = elem.eq_decide(x, y)
            if isinstance(verdict, Refutes):
                return _refutes(f"elements differ: {elem.render_eq(x, y)}")
        return _EQ_REFL

    return EqDec(eq_decide=decide, render_value=ref_show_sequence(elem.render_value))


def eq_option(elem):
    def decide(a, b):
        if a is None and b is None:
            return _EQ_REFL
        if a is None or b is None:
            return _refutes("None <> Some")
        return elem.eq_decide(a, b)

    return EqDec(eq_decide=decide, render_value=show_optional(elem.render_value))


def pred_equals(eq, expected):
    return Pred(
        decide=lambda a: eq.eq_decide(a, expected),
        render=lambda a: eq.render_eq(a, expected),
    )


def p_true():
    return Pred(decide=lambda _a: _holds("trivially true"), render=lambda _a: "True")


def p_false():
    return Pred(decide=lambda _a: _refutes("False never holds"), render=lambda _a: "False")


def p_and(p, q):
    def decide(a):
        left = p.decide(a)
        if isinstance(left, Refutes):
            return _refutes(f"left conjunct refuted: {p.render(a)}")
        right = q.decide(a)
        if isinstance(right, Refutes):
            return _refutes(f"right conjunct refuted: {q.render(a)}")
        return _holds(f"{left.evidence.summary} and {right.evidence.summary}")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} /\\ {q.render(a)}")


def p_or(p, q):
    def decide(a):
        left = p.decide(a)
        if isinstance(left, Holds):
            return _holds(f"left disjunct holds: {left.evidence.summary}")
        right = q.decide(a)
        if isinstance(right, Holds):
            return _holds(f"right disjunct holds: {right.evidence.summary}")
        return _refutes("both disjuncts refuted")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} \\/ {q.render(a)}")


def p_not(p):
    def decide(a):
        inner = p.decide(a)
        if isinstance(inner, Refutes):
            return _holds(f"negated proposition refuted: {inner.refutation.summary}")
        return _refutes(f"negated proposition holds: {p.render(a)}")

    return Pred(decide=decide, render=lambda a: f"~ {p.render(a)}")


def p_implies(p, q):
    def decide(a):
        antecedent = p.decide(a)
        if isinstance(antecedent, Refutes):
            return _holds("vacuously true: antecedent refuted")
        consequent = q.decide(a)
        if isinstance(consequent, Holds):
            return _holds(f"consequent holds: {consequent.evidence.summary}")
        return _refutes(f"antecedent holds but consequent refuted: {q.render(a)}")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} -> {q.render(a)}")


def p_equivalent(substitute, render_override, justification):
    def decide(a):
        inner = substitute.decide(a)
        if isinstance(inner, Holds):
            return _holds(f"{inner.evidence.summary} (via equivalence: {justification})")
        return _refutes(f"{inner.refutation.summary} (via equivalence: {justification})")

    return Pred(decide=decide, render=render_override)


def p_forall_bounded(k, family):
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"bound must be a natural, got {k!r}")
    if k < 0:
        raise ValueError(f"bound must be a natural, got {k}")

    def decide(_unit):
        for n in range(k + 1):
            verdict = (pred := family(n)).decide(n)
            if isinstance(verdict, Refutes):
                return _refutes(f"counterexample at n = {n}: {pred.render(n)}")
        return _holds(f"holds for every n in 0..{k}")

    return Pred(decide=decide, render=lambda _unit: f"forall n <= {k}, P n")


def p_relate(witness, render):
    def decide(a):
        if witness(a):
            return _holds("witness = true")
        return _refutes("witness = false")

    return Pred(decide=decide, render=render)


# -- renderers -----------------------------------------------------------------


def ref_show_sequence(show_elem):
    def show(xs):
        parts = [show_elem(x) for x in xs]
        parts.append("nil")
        return " :: ".join(parts)

    return show


def ref_show_value(value):
    # The renderers that changed: sequences rendered element by element
    # through a per-call closure, every int but a bool by str, and None by
    # its own renderer.
    if isinstance(value, (list, tuple)):
        return ref_show_sequence(ref_show_value)(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if value is None:
        return "None"
    return show_value(value)


def ref_show_instr(instr):
    """The instruction renderers as they read the public fields."""
    if isinstance(instr, IConst):
        return f"iConst {instr.value}"
    return f"iBinop {instr.op.value}"


def ref_show_prog(p):
    return " :: ".join([ref_show_instr(instr) for instr in p] + ["nil"])


def ref_show_ilist(value):
    """The renderer before it went linear: rebuilds the nested text per element."""
    text = "Nil"
    for index, item in enumerate(reversed(value.items)):
        tail = text if text == "Nil" else f"({text})"
        text = f"Cons {index} {show_value(item)} {tail}"
    return text


# -- the compiler kernels ------------------------------------------------------


def ref_eval_binop(b, x, y):
    check_nat(x)
    check_nat(y)
    if b is Binop.PLUS:
        return x + y
    if b is Binop.MINUS:
        return x - y if x >= y else 0
    return x * y


_DONE = object()


def ref_eval_exp(e):
    values = []
    todo = [e]
    pop = todo.pop
    while todo:
        node = pop()
        if isinstance(node, Const):
            values.append(check_nat(node.value))
        elif node is _DONE:
            right = values.pop()
            values[-1] = ref_eval_binop(pop().op, values[-1], right)
        elif isinstance(node, BinOp):
            todo += (node, _DONE, node.right, node.left)
        else:
            raise TypeError(f"not an expression: {node!r}")
    return values[0]


def ref_run_prog(p, s):
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
            stack[-1] = ref_eval_binop(instr.op, arg1, stack[-1])
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    stack.reverse()
    return stack


_REF_IBINOP = {b: IBinop(b) for b in Binop}


def ref_compile(e, left_first):
    prog = []
    emit = prog.append
    todo = [e]
    pop = todo.pop
    while todo:
        node = pop()
        if isinstance(node, Const):
            emit(IConst(node.value))
        elif node is _DONE:
            emit(_REF_IBINOP[pop().op])
        elif isinstance(node, BinOp):
            if left_first:
                todo += (node, _DONE, node.right, node.left)
            else:
                todo += (node, _DONE, node.left, node.right)
        else:
            raise TypeError(f"not an expression: {node!r}")
    return prog


_WHITESPACE = " \t\r\n\f\v"
_DIGITS = "0123456789"
_OPERATORS = {"+": Binop.PLUS, "-": Binop.MINUS, "*": Binop.TIMES}
_PRECEDENCE = {Binop.PLUS: 1, Binop.MINUS: 1, Binop.TIMES: 2}
_BINDING = {None: 0, **_PRECEDENCE}


def ref_parse_exp(src):
    end = len(src)
    text = src + "\0"
    pos = 0
    operands = []
    pending: list[Optional[Binop]] = []
    open_parens = 0

    def reduce(min_prec):
        while pending and _BINDING[pending[-1]] >= min_prec:
            right = operands.pop()
            operands[-1] = BinOp(pending.pop(), operands[-1], right)

    while True:
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


def outcome(fn, *args):
    """What a call shows its caller: the result with its exact rendering
    (``IConst(True)`` equals ``IConst(1)``, but does not print like it), or
    the exception with its message, reason and offset."""
    try:
        result = fn(*args)
    except ParseError as exc:
        return ("parse error", exc.reason, exc.offset, str(exc))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("returned", type(result), repr(result))


# -- records -------------------------------------------------------------------


def is_record(x):
    return hasattr(type(x), "_shown")


def eq_key(x):
    """``x`` with each record replaced by ``(type, *fields)``, recursively."""
    if is_record(x):
        return (type(x), *[eq_key(getattr(x, name)) for name in x._shown])
    return x


def hash_key(x):
    """``x`` with each record replaced by the tuple of its fields, recursively."""
    if is_record(x):
        return tuple([hash_key(getattr(x, name)) for name in x._shown])
    return x


def ref_repr(x):
    if is_record(x):
        shown = ", ".join([f"{name}={ref_repr(getattr(x, name))}" for name in x._shown])
        return f"{type(x).__qualname__}({shown})"
    return repr(x)


# -- rationals -----------------------------------------------------------------


def ref_gcd(a, b):
    check_nat(a)
    check_nat(b)
    while b:
        a, b = b, a % b
    return a


def ref_irreducibility_text(top, bottom):
    return f"forall x y z, y * x = {top} /\\ z * x = {bottom} -> 1 = x"


def ref_decide_gcd(pair):
    top, bottom = pair
    g = ref_gcd(top, bottom)
    if g == 1:
        return _holds(f"gcd {top} {bottom} = 1")
    return _refutes(f"gcd {top} {bottom} = {g}")


REF_GCD_IRREDUCIBLE = p_equivalent(
    Pred(decide=ref_decide_gcd, render=lambda pair: f"gcd {pair[0]} {pair[1]} = 1"),
    render_override=lambda pair: ref_irreducibility_text(*pair),
    justification="irreducibility is equivalent to gcd(top, bottom) = 1 for a nonzero bottom",
)


def ref_irreducible_gcd(top, bottom):
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    return REF_GCD_IRREDUCIBLE.decide((top, bottom))


REF_IRREDUCIBLE = {
    IrredStrategy.BOUNDED: lambda t, b: isinstance(irreducible_bounded(t, b, PEANO_ARITH), Holds),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, MACHINE_ARITH), Holds
    ),
    IrredStrategy.GCD: lambda t, b: ref_gcd(t, b) == 1,
}


def ref_cast_rat(sign, top, bottom, strategy=IrredStrategy.GCD, mode=FailureMode.LAZY):
    """``cast_rat`` built the old way: strategy and mode checked first, each natural
    validated through ``check_nat`` (in ``ref_gcd`` too), ``Rat`` built through its
    record base's ``__init__``."""
    if type(strategy) is not IrredStrategy:
        check_choice("strategy", strategy, IrredStrategy)
    if type(mode) is not FailureMode:
        check_choice("mode", mode, FailureMode)
    check_nat(top)
    check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")
    if bottom != 0 and REF_IRREDUCIBLE[strategy](top, bottom):
        return issued(AttestedRat, issued(Rat, sign, top, bottom), RAT_INVARIANTS, _RATIONAL_EVIDENCE)
    value_text = f"mkRat {show_value(sign)} {top} {bottom}"
    violated = f"0 <> {bottom}" if bottom == 0 else ref_irreducibility_text(top, bottom)
    if mode is FailureMode.EAGER:
        raise CastFault(value_text, violated)
    return FailedCastRat(value_text, violated)


def divisor_scan_irreducible(top, bottom):
    """Independent oracle: no x >= 2 divides both top and bottom."""
    return not any(
        top % x == 0 and bottom % x == 0 for x in range(2, max(top, bottom) + 1)
    )


def least_counterexample(top, bottom):
    """Least (x, y, z) with y*x = top, z*x = bottom and x != 1, by triple scan."""
    bound = max(top, bottom)
    for x in range(bound + 1):
        for y in range(bound + 1):
            for z in range(bound + 1):
                if y * x == top and z * x == bottom and x != 1:
                    return (x, y, z)
    return None
