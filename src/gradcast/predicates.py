"""Decidable propositions as first-class values.

A :class:`Pred` packages a total decision procedure together with a renderer
that produces the instantiated proposition text ("16 <= 10", "2 = 3", ...).
Complex procedures are composed from simple ones with the logical combinators
below; every combinator computes the classical connective of the sub-decisions.

Evidence is deliberately unforgeable: the only ways to obtain an
:class:`Evidence` are the ``Holds``/``Refutes`` arm of a decision and
:func:`p_proven`, which is an explicit, documented trust step.  Evidence is
immutable and may be shared: compare it with ``==``, not by identity.
``Holds``/``Refutes`` take only an ``Evidence``, and a child verdict that is no
decision raises ``TypeError``.

A cast reads only the arm of a decision, so evidence text is deferred: it is kept
as a format string with immutable arguments (naturals, booleans, text, ``None``,
child evidence, or a renderer call over such values) and joined on the first read
of ``summary``, ``==``, ``hash`` or ``repr``, in one store, so concurrent readers get
the same text.  The join recurses once per level of child evidence, as deciding does,
so both reach about 990 ``p_and`` levels at a recursion limit of 1000.  Other values,
such as lists, are rendered while deciding, so mutating a value never changes its
evidence.  A read raises what formatting raises: ``pred_lt_const(10**5000)`` holds at
5, and only reading the summary hits the int-string digit limit (``ValueError``).
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

from .records import _new, record

A = TypeVar("A")
B = TypeVar("B")

_IMMUTABLE = frozenset({int, bool, str, type(None)})


def _join(evidence: Evidence) -> str:
    text = evidence._text  # read once: another thread may join it meanwhile
    if type(text) is tuple:
        fmt, args = text
        parts = []  # a loop, not a comprehension: one frame per level of child evidence
        for a in args:
            parts.append(_join(a) if type(a) is Evidence else a[0](*a[1:]) if type(a) is tuple else a)
        evidence._text = text = fmt.format(*parts)
    return text


class Evidence:
    """Human-readable justification for a decision outcome.

    Cannot be constructed directly; decision procedures issue it.
    """

    __slots__ = ("_text",)  # pending: (format string, arguments); joined: the text

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError(
            "Evidence cannot be constructed directly; it is only issued by "
            "decision procedures (or by p_proven, an explicit trust step)"
        )

    summary = property(_join, doc="Read-only justification text, joined on first read.")

    def __repr__(self) -> str:
        return f"Evidence({self.summary!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Evidence):
            return NotImplemented
        return self.summary == other.summary

    def __hash__(self) -> int:
        return hash(("Evidence", self.summary))


def _later(render: Callable[..., str], *args: object) -> object:
    return (render, *args) if _IMMUTABLE.issuperset(map(type, args)) else render(*args)


def _evidence_only(verdict: object, evidence: object) -> Evidence:
    if type(evidence) is Evidence:
        return evidence
    raise TypeError(f"{type(verdict).__name__} takes an Evidence, not {type(evidence).__name__}")


class Holds(record("evidence")):
    __slots__ = ()

    def __init__(self, evidence: Evidence) -> None:
        super().__init__(_evidence_only(self, evidence))


class Refutes(record("refutation")):
    __slots__ = ()

    def __init__(self, refutation: Evidence) -> None:
        super().__init__(_evidence_only(self, refutation))


Decision = Holds | Refutes
_NOT_A_DECISION = "decide returned {}, not Holds or Refutes; wrap a boolean decider in p_relate"


def _refuted(verdict: object) -> bool:
    if isinstance(verdict, (Holds, Refutes)):
        return isinstance(verdict, Refutes)
    raise TypeError(_NOT_A_DECISION.format(type(verdict).__qualname__))


# ``text`` is a format string only when ``args`` are given: text from callers
# is passed as an argument, never as ``text``.
def _holds(text: str, *args: object) -> Holds:
    verdict = _new(Holds)
    verdict._evidence = evidence = _new(Evidence)
    evidence._text = (text, args) if args else text
    return verdict


def _refutes(text: str, *args: object) -> Refutes:
    verdict = _new(Refutes)
    verdict._refutation = evidence = _new(Evidence)
    evidence._text = (text, args) if args else text
    return verdict


class Pred(record("decide", "render"), Generic[A]):
    """A decidable unary property over ``A``.

    ``decide`` must terminate on every input and always return the same arm
    for the same input.  ``render`` yields the instantiated proposition text,
    which is what a failed cast reports.
    """

    __slots__ = ()


class PredFamily(record("at"), Generic[A, B]):
    """An argument-indexed property: ``at(a)`` is a full :class:`Pred` over B."""

    __slots__ = ()


def p_true() -> Pred[Any]:
    """The property that holds of everything."""
    return Pred(decide=lambda _a: _holds("trivially true"), render=lambda _a: "True")


def p_false() -> Pred[Any]:
    """The property that holds of nothing."""
    return Pred(decide=lambda _a: _refutes("False never holds"), render=lambda _a: "False")


def p_and(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Conjunction. Decides left first; the refutation names the first failing
    conjunct and the right conjunct is not decided when the left refutes."""
    p_decide, p_render, q_decide, q_render = p.decide, p.render, q.decide, q.render

    def decide(a: A) -> Decision:
        left = p_decide(a)
        if not isinstance(left, Holds) and _refuted(left):
            return _refutes("left conjunct refuted: {}", _later(p_render, a))
        right = q_decide(a)
        if not isinstance(right, Holds) and _refuted(right):
            return _refutes("right conjunct refuted: {}", _later(q_render, a))
        return _holds("{} and {}", left._evidence, right._evidence)

    return Pred(decide=decide, render=lambda a: f"{p_render(a)} /\\ {q_render(a)}")


def p_or(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Disjunction, decided left first."""
    p_decide, p_render, q_decide, q_render = p.decide, p.render, q.decide, q.render

    def decide(a: A) -> Decision:
        left = p_decide(a)
        if isinstance(left, Holds) or not _refuted(left):
            return _holds("left disjunct holds: {}", left._evidence)
        right = q_decide(a)
        if isinstance(right, Holds) or not _refuted(right):
            return _holds("right disjunct holds: {}", right._evidence)
        return _refutes("both disjuncts refuted")

    return Pred(decide=decide, render=lambda a: f"{p_render(a)} \\/ {q_render(a)}")


def p_not(p: Pred[A]) -> Pred[A]:
    """Negation."""
    p_decide, p_render = p.decide, p.render

    def decide(a: A) -> Decision:
        inner = p_decide(a)
        if not isinstance(inner, Holds) and _refuted(inner):
            return _holds("negated proposition refuted: {}", inner._refutation)
        return _refutes("negated proposition holds: {}", _later(p_render, a))

    return Pred(decide=decide, render=lambda a: f"~ {p_render(a)}")


def p_implies(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Implication: holds when the antecedent refutes or the consequent holds."""
    p_decide, p_render, q_decide, q_render = p.decide, p.render, q.decide, q.render

    def decide(a: A) -> Decision:
        antecedent = p_decide(a)
        if not isinstance(antecedent, Holds) and _refuted(antecedent):
            return _holds("vacuously true: antecedent refuted")
        consequent = q_decide(a)
        if isinstance(consequent, Holds) or not _refuted(consequent):
            return _holds("consequent holds: {}", consequent._evidence)
        return _refutes("antecedent holds but consequent refuted: {}", _later(q_render, a))

    return Pred(decide=decide, render=lambda a: f"{p_render(a)} -> {q_render(a)}")


def p_proven(description: str) -> Pred[Any]:
    """A property the caller asserts has been established elsewhere.

    This is a trust boundary: the library takes the caller's word for it and
    always decides ``Holds``, with the description as the evidence summary.
    Keep the description auditable (point at the external argument).
    """
    text = _later(format, description)
    return Pred(decide=lambda _a: _holds("{}", text), render=lambda _a: description)


def p_equivalent(
    substitute: Pred[A],
    render_override: Callable[[A], str],
    justification: str,
) -> Pred[A]:
    """Decide one property by running an equivalent one.

    The caller asserts that the proposition described by ``render_override``
    is logically equivalent to ``substitute``'s; that assertion is a trust
    boundary, so ``justification`` is mandatory and is carried into the
    evidence.  Failures render the original proposition, not the substitute,
    which is what makes swapping in a faster decision procedure transparent
    to cast reports.
    """

    why, inner_decide = _later(format, justification), substitute.decide

    def decide(a: A) -> Decision:
        inner = inner_decide(a)
        if isinstance(inner, Holds) or not _refuted(inner):
            return _holds("{} (via equivalence: {})", inner.evidence, why)
        return _refutes("{} (via equivalence: {})", inner.refutation, why)

    return Pred(decide=decide, render=render_override)


def p_forall_bounded(k: int, family: Callable[[int], Pred[int]]) -> Pred[None]:
    """Bounded universal quantification over the naturals 0..k inclusive.

    Decidable by exhaustion; the refutation names the least counterexample.
    The input of the resulting predicate is ignored (pass ``None``).
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"bound must be a natural, got {k!r}")
    if k < 0:
        raise ValueError(f"bound must be a natural, got {k}")

    def decide(_unit: None) -> Decision:
        for n in range(k + 1):
            verdict = family(n).decide(n)
            if not isinstance(verdict, Holds) and _refuted(verdict):
                return _refutes("counterexample at n = {}: {}", n, _later(family(n).render, n))
        return _holds("holds for every n in 0..{}", _later(format, k))

    return Pred(decide=decide, render=lambda _unit: f"forall n <= {k}, P n")


def p_relate(witness: Callable[[A], bool], render: Callable[[A], str]) -> Pred[A]:
    """Boolean reflection: the decision procedure *is* the boolean ``witness``.

    The evidence records only which way the witness went.
    """

    def decide(a: A) -> Decision:
        if witness(a):
            return _holds("witness = true")
        return _refutes("witness = false")

    return Pred(decide=decide, render=render)

