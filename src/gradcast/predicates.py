"""Decidable propositions as first-class values.

A :class:`Pred` packages a total decision procedure together with a renderer
that produces the instantiated proposition text ("16 <= 10", "2 = 3", ...).
Complex procedures are composed from simple ones with the logical combinators
below; every combinator computes the classical connective of the sub-decisions.

Evidence is deliberately unforgeable: the only ways to obtain an
:class:`Evidence` are the ``Holds``/``Refutes`` arm of a decision and
:func:`p_proven`, which is an explicit, documented trust step.  There is no
way to conjure evidence for a proposition whose decision procedure refuted it.
Evidence is immutable and may be shared: compare it with ``==``, not by identity.

A cast reads only the arm of a decision, so evidence text is deferred: it is
kept as a format string with immutable arguments (naturals, booleans, text,
``None``, child evidence, or a renderer call over such values) and joined on
the first read of ``summary``, ``==``, ``hash`` or ``repr``, in one store, so
concurrent readers get the same text.  Other values, such as lists, are
rendered while deciding, so mutating a value never changes its evidence.  A
read raises what formatting raises: ``pred_lt_const(10**5000)`` holds at 5,
and only reading the summary hits the int-string digit limit (``ValueError``).

All predicates are immutable once built and ``decide`` must be a pure function
of its input, so predicates can be shared freely across threads.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Sequence, TypeVar

from .records import record
from .render import show_value

A = TypeVar("A")
B = TypeVar("B")

_EVIDENCE_KEY = object()
_IMMUTABLE = frozenset({int, bool, str, type(None)})


def _join(evidence: Evidence) -> str:
    # Depth first and left to right, with an explicit stack: a pending text is
    # formatted once the child evidence it holds is joined.
    stack = [evidence]
    while stack:
        node = stack[-1]
        text = node._text  # read once: another thread may join it meanwhile
        if type(text) is tuple:
            fmt, args = text
            pending = [a for a in args if type(a) is Evidence and type(a._text) is tuple]
            if pending:
                stack.extend(reversed(pending))
                continue
            node._text = fmt.format(*[
                a._text if type(a) is Evidence else a[0](*a[1:]) if type(a) is tuple else a
                for a in args
            ])
        stack.pop()
    return evidence._text


class Evidence:
    """Human-readable justification for a decision outcome.

    Cannot be constructed directly; decision procedures issue it.
    """

    __slots__ = ("_text",)

    def __init__(self, text: str, args: tuple = (), _key: object = None) -> None:
        if _key is not _EVIDENCE_KEY:
            raise TypeError(
                "Evidence cannot be constructed directly; it is only issued by "
                "decision procedures (or by p_proven, an explicit trust step)"
            )
        # Pending: (format string, arguments).  Joined: the text itself.
        self._text = (text, args) if args else text

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
    """``render(*args)`` as an evidence argument: called when the text is
    read if every argument is immutable, and now otherwise."""
    return (render, *args) if _IMMUTABLE.issuperset(map(type, args)) else render(*args)


class Holds(record("evidence")):
    __slots__ = ()


class Refutes(record("refutation")):
    __slots__ = ()


Decision = Holds | Refutes


# ``text`` is a format string only when ``args`` are given: text from callers
# is passed as an argument, never as ``text``.
def _holds(text: str, *args: object) -> Holds:
    return Holds(Evidence(text, args, _EVIDENCE_KEY))


def _refutes(text: str, *args: object) -> Refutes:
    return Refutes(Evidence(text, args, _EVIDENCE_KEY))


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

    def decide(a: A) -> Decision:
        left = p.decide(a)
        if isinstance(left, Refutes):
            return _refutes("left conjunct refuted: {}", _later(p.render, a))
        right = q.decide(a)
        if isinstance(right, Refutes):
            return _refutes("right conjunct refuted: {}", _later(q.render, a))
        return _holds("{} and {}", left.evidence, right.evidence)

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} /\\ {q.render(a)}")


def p_or(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Disjunction, decided left first."""

    def decide(a: A) -> Decision:
        left = p.decide(a)
        if isinstance(left, Holds):
            return _holds("left disjunct holds: {}", left.evidence)
        right = q.decide(a)
        if isinstance(right, Holds):
            return _holds("right disjunct holds: {}", right.evidence)
        return _refutes("both disjuncts refuted")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} \\/ {q.render(a)}")


def p_not(p: Pred[A]) -> Pred[A]:
    """Negation."""

    def decide(a: A) -> Decision:
        inner = p.decide(a)
        if isinstance(inner, Refutes):
            return _holds("negated proposition refuted: {}", inner.refutation)
        return _refutes("negated proposition holds: {}", _later(p.render, a))

    return Pred(decide=decide, render=lambda a: f"~ {p.render(a)}")


def p_implies(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Implication: holds when the antecedent refutes or the consequent holds."""

    def decide(a: A) -> Decision:
        antecedent = p.decide(a)
        if isinstance(antecedent, Refutes):
            return _holds("vacuously true: antecedent refuted")
        consequent = q.decide(a)
        if isinstance(consequent, Holds):
            return _holds("consequent holds: {}", consequent.evidence)
        return _refutes("antecedent holds but consequent refuted: {}", _later(q.render, a))

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} -> {q.render(a)}")


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

    why = _later(format, justification)

    def decide(a: A) -> Decision:
        inner = substitute.decide(a)
        if isinstance(inner, Holds):
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
            if isinstance(verdict, Refutes):
                return _refutes("counterexample at n = {}: {}", n, _later(family(n).render, n))
        return _holds("holds for every n in 0..{}", _later(format, k))

    return Pred(decide=decide, render=lambda _unit: f"forall n <= {k}, P n")


def p_is_true(b: bool) -> Pred[None]:
    """The proposition reflected by a boolean: holds exactly when ``b`` is true."""
    text = f"Is_true {show_value(b)}"

    def decide(_unit: None) -> Decision:
        if b:
            return _holds("the boolean witness is true")
        return _refutes("the boolean witness is false")

    return Pred(decide=decide, render=lambda _unit: text)


def p_relate(witness: Callable[[A], bool], render: Callable[[A], str]) -> Pred[A]:
    """Boolean reflection: the decision procedure *is* the boolean ``witness``.

    The evidence records only which way the witness went; use
    :func:`check_relate_spec` to sample-check a witness against a reference
    decider when one exists.
    """

    def decide(a: A) -> Decision:
        if witness(a):
            return _holds("witness = true")
        return _refutes("witness = false")

    return Pred(decide=decide, render=render)


class RelateDisagreement(record("value", "witness_says", "reference_holds"), Generic[A]):
    __slots__ = ()


class RelateReport(record("checked", "disagreements"), Generic[A]):
    """Result of sampling a boolean witness against a reference decider.

    An empty ``disagreements`` tuple means the witness respected the reference
    on every sample.
    """

    __slots__ = ()

    @property
    def agrees(self) -> bool:
        return not self.disagreements


def check_relate_spec(
    witness: Callable[[A], bool],
    reference: Pred[A],
    samples: Sequence[A],
) -> RelateReport[A]:
    """Report every sample on which ``witness`` disagrees with ``reference``."""
    if not samples:
        raise ValueError("samples must be nonempty")
    found: list[RelateDisagreement[A]] = []
    for a in samples:
        w = bool(witness(a))
        r = isinstance(reference.decide(a), Holds)
        if w != r:
            found.append(RelateDisagreement(value=a, witness_says=w, reference_holds=r))
    return RelateReport(checked=len(samples), disagreements=tuple(found))
