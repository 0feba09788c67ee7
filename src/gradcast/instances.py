"""Concrete decidable predicates: order and equality over naturals and
booleans, with structural equality derived for sequences and optionals.

Naturals are plain Python ints restricted to be non-negative; since Python
integers are unbounded there is no wraparound, so the only arithmetic faults
are the explicit validation errors below.  Strict comparisons render in
successor form ("n < k" prints as "(n+1) <= k") so that reported propositions
match the conventional presentation of < as <= on the successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Optional, Sequence, TypeVar

from .predicates import Decision, Pred, Refutes, _holds, _refutes
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
    if x <= y:
        return _holds(f"{x} <= {y} by arithmetic")
    return _refutes(f"{x} <= {y} is false: {y} < {x}")


def pred_lt_const(k: Nat) -> Pred[Nat]:
    """The property ``n < k``, rendered in successor form ``(n+1) <= k``."""
    check_nat(k)
    return Pred(
        decide=lambda n: dec_le(n + 1, k),
        render=lambda n: f"{n + 1} <= {k}",
    )


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


@dataclass(frozen=True)
class EqDec(Generic[A]):
    """Decidable equality over ``A``.

    ``render_value`` renders a single value; it is what lets the derived
    list/option instances print whole-structure equations like
    ``0 :: nil = 1 :: nil``.
    """

    eq_decide: Callable[[A, A], Decision]
    render_value: Callable[[A], str]

    def render_eq(self, a: A, b: A) -> str:
        return f"{self.render_value(a)} = {self.render_value(b)}"


def eq_nat() -> EqDec[Nat]:
    def decide(a: Nat, b: Nat) -> Decision:
        check_nat(a)
        check_nat(b)
        if a == b:
            return _EQ_REFL
        return _refutes(f"{a} <> {b}")

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_bool() -> EqDec[bool]:
    def decide(a: bool, b: bool) -> Decision:
        if a == b:
            return _EQ_REFL
        return _refutes(f"{show_value(a)} <> {show_value(b)}")

    return EqDec(eq_decide=decide, render_value=show_value)


def eq_list(elem: EqDec[A]) -> EqDec[Sequence[A]]:
    """Equality of sequences, derived element-wise from ``elem``.

    A refutation reports the whole-list equation, not the mismatch index.
    """

    def decide(xs: Sequence[A], ys: Sequence[A]) -> Decision:
        if len(xs) != len(ys):
            return _refutes(f"lengths differ: {len(xs)} <> {len(ys)}")
        for x, y in zip(xs, ys):
            verdict = elem.eq_decide(x, y)
            if isinstance(verdict, Refutes):
                return _refutes(f"elements differ: {elem.render_eq(x, y)}")
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
