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

All predicates are immutable once built and ``decide`` must be a pure function
of its input, so predicates can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Generic, Sequence, TypeVar

from .render import show_value

A = TypeVar("A")
B = TypeVar("B")

_EVIDENCE_KEY = object()


class Evidence:
    """Human-readable justification for a decision outcome.

    Cannot be constructed directly; decision procedures issue it.
    """

    __slots__ = ("_summary",)

    def __init__(self, summary: str, *, _key: object = None) -> None:
        if _key is not _EVIDENCE_KEY:
            raise TypeError(
                "Evidence cannot be constructed directly; it is only issued by "
                "decision procedures (or by p_proven, an explicit trust step)"
            )
        self._summary = summary

    summary = property(attrgetter("_summary"), doc="Read-only justification text.")

    def __repr__(self) -> str:
        return f"Evidence({self.summary!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Evidence):
            return NotImplemented
        return self.summary == other.summary

    def __hash__(self) -> int:
        return hash(("Evidence", self.summary))


@dataclass(frozen=True)
class Holds:
    evidence: Evidence


@dataclass(frozen=True)
class Refutes:
    refutation: Evidence


Decision = Holds | Refutes


def _holds(summary: str) -> Holds:
    return Holds(Evidence(summary, _key=_EVIDENCE_KEY))


def _refutes(summary: str) -> Refutes:
    return Refutes(Evidence(summary, _key=_EVIDENCE_KEY))


@dataclass(frozen=True)
class Pred(Generic[A]):
    """A decidable unary property over ``A``.

    ``decide`` must terminate on every input and always return the same arm
    for the same input.  ``render`` yields the instantiated proposition text,
    which is what a failed cast reports.
    """

    decide: Callable[[A], Decision]
    render: Callable[[A], str]


@dataclass(frozen=True)
class PredFamily(Generic[A, B]):
    """An argument-indexed property: ``at(a)`` is a full :class:`Pred` over B."""

    at: Callable[[A], Pred[B]]


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
            return _refutes(f"left conjunct refuted: {p.render(a)}")
        right = q.decide(a)
        if isinstance(right, Refutes):
            return _refutes(f"right conjunct refuted: {q.render(a)}")
        return _holds(f"{left.evidence.summary} and {right.evidence.summary}")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} /\\ {q.render(a)}")


def p_or(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Disjunction, decided left first."""

    def decide(a: A) -> Decision:
        left = p.decide(a)
        if isinstance(left, Holds):
            return _holds(f"left disjunct holds: {left.evidence.summary}")
        right = q.decide(a)
        if isinstance(right, Holds):
            return _holds(f"right disjunct holds: {right.evidence.summary}")
        return _refutes("both disjuncts refuted")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} \\/ {q.render(a)}")


def p_not(p: Pred[A]) -> Pred[A]:
    """Negation."""

    def decide(a: A) -> Decision:
        inner = p.decide(a)
        if isinstance(inner, Refutes):
            return _holds(f"negated proposition refuted: {inner.refutation.summary}")
        return _refutes(f"negated proposition holds: {p.render(a)}")

    return Pred(decide=decide, render=lambda a: f"~ {p.render(a)}")


def p_implies(p: Pred[A], q: Pred[A]) -> Pred[A]:
    """Implication: holds when the antecedent refutes or the consequent holds."""

    def decide(a: A) -> Decision:
        antecedent = p.decide(a)
        if isinstance(antecedent, Refutes):
            return _holds("vacuously true: antecedent refuted")
        consequent = q.decide(a)
        if isinstance(consequent, Holds):
            return _holds(f"consequent holds: {consequent.evidence.summary}")
        return _refutes(f"antecedent holds but consequent refuted: {q.render(a)}")

    return Pred(decide=decide, render=lambda a: f"{p.render(a)} -> {q.render(a)}")


def p_proven(description: str) -> Pred[Any]:
    """A property the caller asserts has been established elsewhere.

    This is a trust boundary: the library takes the caller's word for it and
    always decides ``Holds``, with the description as the evidence summary.
    Keep the description auditable (point at the external argument).
    """
    return Pred(decide=lambda _a: _holds(description), render=lambda _a: description)


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

    def decide(a: A) -> Decision:
        inner = substitute.decide(a)
        if isinstance(inner, Holds):
            return _holds(f"{inner.evidence.summary} (via equivalence: {justification})")
        return _refutes(f"{inner.refutation.summary} (via equivalence: {justification})")

    return Pred(decide=decide, render=render_override)


def p_forall_bounded(k: int, family: Callable[[int], Pred[int]]) -> Pred[None]:
    """Bounded universal quantification over the naturals 0..k inclusive.

    Decidable by exhaustion; the refutation names the least counterexample.
    The input of the resulting predicate is ignored (pass ``None``).
    """
    if k < 0:
        raise ValueError(f"bound must be a natural, got {k}")

    def decide(_unit: None) -> Decision:
        for n in range(k + 1):
            verdict = family(n).decide(n)
            if isinstance(verdict, Refutes):
                return _refutes(f"counterexample at n = {n}: {family(n).render(n)}")
        return _holds(f"holds for every n in 0..{k}")

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


@dataclass(frozen=True)
class RelateDisagreement(Generic[A]):
    value: A
    witness_says: bool
    reference_holds: bool


@dataclass(frozen=True)
class RelateReport(Generic[A]):
    """Result of sampling a boolean witness against a reference decider.

    An empty ``disagreements`` tuple means the witness respected the reference
    on every sample.
    """

    checked: int
    disagreements: tuple[RelateDisagreement[A], ...]

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
