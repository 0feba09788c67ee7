"""Refinement casts: run a decision procedure and wrap the value in evidence.

``cast`` turns a plain value into a :class:`Refined` value.  When the decision
procedure refutes the property, what happens depends on the failure regime:

* ``FailureMode.LAZY`` (the default) produces a poisoned :class:`FailedCast`
  value.  It can be passed around freely; the fault surfaces only when
  somebody tries to project the value or its evidence out of it.
* ``FailureMode.EAGER`` raises :class:`CastFault` at the cast site, which is
  how extracted/compiled code in strict languages behaves.

A ``FailedCast`` stores only a *rendering* of the offending value, never the
value itself, so no code path can smuggle a value out of a failed cast.
Library code never catches :class:`CastFault`; catching it is the business of
the outermost boundary (for instance the CLI).

A cast pays only for its decision.  An ``Attested`` keeps its predicate and
renders ``prop_text`` only when the text is read, and its evidence text is
joined only when read, so a successful cast never runs ``Pred.render`` or
formats evidence.  A ``Pred.render`` must therefore be pure: reading the text
once, many times or never must not change anything.  A ``FailedCast``
renders at the cast, since it may not keep the value to render later.
"""

from __future__ import annotations

import enum
from typing import Generic, Sequence, TypeVar

from .predicates import Evidence, Holds, Pred, _refuted
from .records import _new, record
from .render import show_value

A = TypeVar("A")


class FailureMode(enum.Enum):
    """How a failed cast manifests: poisoned value (LAZY) or raised fault (EAGER)."""

    LAZY = "lazy"
    EAGER = "eager"


def check_choice(name: str, value: object, choices: type[enum.Enum]) -> None:
    """Raise ``ValueError`` naming the allowed values unless ``value`` is a
    member of the enum ``choices``: a type identity test, with no ``==``."""
    if type(value) is not choices:
        allowed = ", ".join(f"{choices.__name__}.{member.name}" for member in choices)
        raise ValueError(f"{name} must be one of {allowed}; got {value!r}")


class CastFault(Exception):
    """A failed cast was forced.

    ``message`` is the bare fault text; ``value_text`` and ``prop_text`` identify the
    rejected value and the violated proposition.
    """

    def __init__(self, value_text: str, prop_text: str) -> None:
        self.args = (f"Cast has failed: value {value_text} does not satisfy {prop_text}",)
        self.message = "Cast has failed"
        self.value_text = value_text
        self.prop_text = prop_text

    def __reduce__(self) -> tuple:  # rebuilt from its fields by copy and pickle
        return type(self), (self.value_text, self.prop_text), self.__dict__


class LimitError(ValueError):
    """Input past a limit.  Raised by ``cast_rat`` above a bounded strategy's ceiling, by
    its failure texts and ``RAT_INVARIANTS.render`` for a top or bottom past the integer
    digit limit, and by a compile check rendering a stack value or an ``IConst`` past it.
    ``cast`` lets the digit limit's ``ValueError`` through: it renders with caller
    renderers, and must not relabel their other ``ValueError`` exceptions."""


class Attested(record("value", "pred", "evidence"), Generic[A]):
    """A value paired with evidence that the property holds of it.

    ``prop_text`` is rendered from ``pred`` each time it is read; ``repr``,
    ``==`` and ``hash`` include it in place of ``pred``.
    """

    __slots__ = ()
    _shown = ("value", "prop_text", "evidence")

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} cannot be constructed directly; a cast issues it")

    @property
    def prop_text(self) -> str:
        return self.pred.render(self.value)


class FailedCast(record("value_text", "prop_text")):
    """The poisoned result of a failed cast: a rendering of the rejected value
    and the violated proposition, with no way back to the value itself."""

    __slots__ = ()


Refined = Attested | FailedCast


def _attested(cls: type, value: object, pred: Pred, evidence: Evidence) -> Attested:
    r = _new(cls)
    r._value, r._pred, r._evidence = value, pred, evidence
    return r


def _failed(cls: type, value_text: str, prop_text: str, mode: FailureMode) -> FailedCast:
    if mode is FailureMode.EAGER:
        raise CastFault(value_text, prop_text)
    r = _new(cls)
    r._value_text, r._prop_text = value_text, prop_text
    return r


def cast(p: Pred[A], a: A, mode: FailureMode = FailureMode.LAZY) -> Refined:
    """Check ``p`` against ``a`` and wrap the outcome.

    Returns ``Attested`` exactly when ``p.decide(a)`` holds.  In EAGER mode a
    refuted property raises :class:`CastFault` instead of returning.  A bad
    ``mode`` raises ``ValueError``, and a verdict that is no decision ``TypeError``.
    """
    if type(mode) is not FailureMode:
        check_choice("mode", mode, FailureMode)
    verdict = p.decide(a)
    if isinstance(verdict, Holds) or not _refuted(verdict):
        return _attested(Attested, a, p, verdict._evidence)
    return _failed(FailedCast, show_value(a), p.render(a), mode)


def try_cast(p: Pred[A], a: A) -> Attested[A] | CastFault:
    """Cast with failure as a value: never raises :class:`CastFault`.

    Returns the :class:`Attested` pair on success and an *unraised*
    :class:`CastFault` record on failure, for callers who prefer to branch
    locally instead of living with poisoned values.
    """
    r = cast(p, a)
    return r if isinstance(r, Attested) else CastFault(r.value_text, r.prop_text)


def proj1(r: Refined) -> A:
    """Project the value. Forcing a failed cast this way raises the fault."""
    if isinstance(r, Attested):
        return r._value
    raise CastFault(r._value_text, r._prop_text)


def proj2(r: Refined) -> Evidence:
    """Project the evidence.

    On a failed cast this raises: evidence for a refuted property must be
    unobtainable, otherwise a failed cast could be laundered into a proof.
    """
    proj1(r)  # raises a failed cast's fault
    return r.evidence


def map_cast(p: Pred[A], xs: Sequence[A], mode: FailureMode = FailureMode.LAZY) -> list[Refined]:
    """Cast every element of a sequence.

    In LAZY mode the result is a mixed list of attested and failed entries; in
    EAGER mode the first failing element raises.
    """
    check_choice("mode", mode, FailureMode)
    return [cast(p, x, mode) for x in xs]
