"""Concrete decidable predicates: order and equality over naturals and
booleans, with structural equality derived for sequences and optionals.

Naturals are plain Python ints restricted to be non-negative; since Python
integers are unbounded there is no wraparound, so the only arithmetic faults
are the explicit validation errors below.  Strict comparisons render in
successor form ("n < k" prints as "(n+1) <= k") so that reported propositions
match the conventional presentation of < as <= on the successor.
"""

from __future__ import annotations

from typing import Generic, Optional, Sequence, TypeVar

from .predicates import Decision, Pred, Refutes, _holds, _later, _refutes
from .records import record
from .render import show_optional, show_sequence, show_value

A = TypeVar("A")

Nat = int
_EQ_REFL = _holds("eq_refl")  # shared by every equality that holds


def check_nat(value: object) -> int:
    """Validate that ``value`` is a natural number and return it."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"natural number expected, got {value!r}")
    if value < 0:
        raise ValueError(f"natural number expected, got {value}")
    return value


def dec_le(x: Nat, y: Nat) -> Decision:
    """Decide ``x <= y`` over naturals."""
    check_nat(x)
    check_nat(y)
    holds = x <= y
    if type(x) is not int or type(y) is not int:  # an int subclass is shown now
        x, y = format(x), format(y)
    if holds:
        return _holds("{} <= {} by arithmetic", x, y)
    return _refutes("{} <= {} is false: {} < {}", x, y, y, x)


def pred_lt_const(k: Nat) -> Pred[Nat]:
    """The property ``n < k``, rendered in successor form ``(n+1) <= k``."""
    check_nat(k)

    def decide(n: Nat) -> Decision:
        if not (type(n) is int and n >= 0):  # before n + 1, which -1 and True survive
            check_nat(n)
        return dec_le(n + 1, k)

    return Pred(decide=decide, render=lambda n: f"{n + 1} <= {k}")


def pred_gt_const(k: Nat) -> Pred[Nat]:
    """The property ``n > k``, rendered in successor form ``(k+1) <= n``."""
    check_nat(k)
    return Pred(
        decide=lambda n: dec_le(k + 1, n),
        render=lambda n: f"{k + 1} <= {n}",
    )


def pred_ge_const(k: Nat) -> Pred[Nat]:
    """The property ``k <= n``."""
    check_nat(k)
    return Pred(
        decide=lambda n: dec_le(k, n),
        render=lambda n: f"{k} <= {n}",
    )


class EqDec(record("eq_decide", "render_value"), Generic[A]):
    """Decidable equality over ``A``.

    ``render_value`` renders a single value; it is what lets the derived
    list/option instances print whole-structure equations like
    ``0 :: nil = 1 :: nil``.
    """

    __slots__ = ()

    def render_eq(self, a: A, b: A) -> str:
        return f"{self.render_value(a)} = {self.render_value(b)}"


def eq_nat() -> EqDec[Nat]:
    def decide(a: Nat, b: Nat) -> Decision:
        check_nat(a)
        check_nat(b)
        if a == b:
            return _EQ_REFL
        if type(a) is not int or type(b) is not int:  # an int subclass is shown now
            a, b = format(a), format(b)
        return _refutes("{} <> {}", a, b)

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_bool() -> EqDec[bool]:
    def decide(a: bool, b: bool) -> Decision:
        if a == b:
            return _EQ_REFL
        return _refutes("{} <> {}", _later(show_value, a), _later(show_value, b))

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_list(elem: EqDec[A]) -> EqDec[Sequence[A]]:
    """Equality of sequences, derived element-wise from ``elem``.

    A refutation reports the whole-list equation, not the mismatch index.
    """
    elem_decide = elem.eq_decide  # a field read is a property call: once, not per element

    def decide(xs: Sequence[A], ys: Sequence[A]) -> Decision:
        if len(xs) != len(ys):
            return _refutes("lengths differ: {} <> {}", len(xs), len(ys))
        for x, y in zip(xs, ys):
            verdict = elem_decide(x, y)
            if isinstance(verdict, Refutes):
                return _refutes("elements differ: {}", _later(elem.render_eq, x, y))
        return _EQ_REFL

    return EqDec(eq_decide=decide, render_value=show_sequence(elem.render_value))


def eq_option(elem: EqDec[A]) -> EqDec[Optional[A]]:
    """Equality of optional values (``None`` or a value), derived from ``elem``."""

    def decide(a: Optional[A], b: Optional[A]) -> Decision:
        if a is None and b is None:
            return _EQ_REFL
        if a is None or b is None:
            return _refutes("None <> Some")
        return elem.eq_decide(a, b)

    return EqDec(eq_decide=decide, render_value=show_optional(elem.render_value))


def pred_equals(eq: EqDec[A], expected: A) -> Pred[A]:
    """The property ``a = expected``, decided by the given equality decider."""
    return Pred(
        decide=lambda a: eq.eq_decide(a, expected),
        render=lambda a: eq.render_eq(a, expected),
    )
