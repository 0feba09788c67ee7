"""The evidence-eager reference for ``predicates`` and ``instances``.

These are the decision procedures as they were before evidence text was
deferred: every decision formats its summary at once, combinators read their
children's summaries and renders while deciding, and a refuted list equation
renders both elements.  Decisions are the library's ``Holds``/``Refutes``
around a literal summary, so the library and this reference can be compared
on arm, summary text, render and exception.
"""

from gradcast.instances import EqDec
from gradcast.predicates import _EVIDENCE_KEY, Evidence, Holds, Pred, Refutes
from gradcast.render import show_optional, show_sequence, show_value


def _holds(summary):
    return Holds(Evidence(summary, _key=_EVIDENCE_KEY))


def _refutes(summary):
    return Refutes(Evidence(summary, _key=_EVIDENCE_KEY))


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

    return Pred(decide=decide, render=lambda n: f"{n + 1} <= {k}")


def pred_gt_const(k):
    check_nat(k)
    return Pred(decide=lambda n: dec_le(k + 1, n), render=lambda n: f"{k + 1} <= {n}")


def pred_ge_const(k):
    check_nat(k)
    return Pred(decide=lambda n: dec_le(k, n), render=lambda n: f"{k} <= {n}")


def eq_nat():
    def decide(a, b):
        check_nat(a)
        check_nat(b)
        if a == b:
            return _EQ_REFL
        return _refutes(f"{a} <> {b}")

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_bool():
    def decide(a, b):
        if a == b:
            return _EQ_REFL
        return _refutes(f"{show_value(a)} <> {show_value(b)}")

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_list(elem):
    def decide(xs, ys):
        if len(xs) != len(ys):
            return _refutes(f"lengths differ: {len(xs)} <> {len(ys)}")
        for x, y in zip(xs, ys):
            verdict = elem.eq_decide(x, y)
            if isinstance(verdict, Refutes):
                return _refutes(f"elements differ: {elem.render_eq(x, y)}")
        return _EQ_REFL

    return EqDec(eq_decide=decide, render_value=show_sequence(elem.render_value))


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


def p_proven(description):
    return Pred(decide=lambda _a: _holds(description), render=lambda _a: description)


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
            verdict = family(n).decide(n)
            if isinstance(verdict, Refutes):
                return _refutes(f"counterexample at n = {n}: {family(n).render(n)}")
        return _holds(f"holds for every n in 0..{k}")

    return Pred(decide=decide, render=lambda _unit: f"forall n <= {k}, P n")


def p_relate(witness, render):
    def decide(a):
        if witness(a):
            return _holds("witness = true")
        return _refutes("witness = false")

    return Pred(decide=decide, render=render)
