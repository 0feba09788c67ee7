"""Concrete decidable predicates: order and equality over naturals, with
structural equality derived for sequences and optionals.

Naturals are plain Python ints restricted to be non-negative; since Python
integers are unbounded there is no wraparound, so the only arithmetic faults
are the explicit validation errors below.  Strict comparisons render in
successor form ("n < k" prints as "(n+1) <= k") so that reported propositions
match the conventional presentation of < as <= on the successor.

Each natural is tested inline (``type(x) is int and x >= 0``); only a value
that fails the test reaches ``check_nat``, which raises or accepts an ``int``
subclass.  The order predicates render only the values they decide.  From its second
decide on, each one with a plain ``int`` bound keeps, in a ``dict`` in its closure, the
verdict it issues for each plain ``int`` 0-255 (at most 256, freed with the predicate)
and returns it when it decides that natural again; a predicate built for one cast keeps
nothing.  Any other input, or any input under an ``int``-subclass bound, is decided
afresh.  A kept verdict equals a fresh one; its identity is not part of the API.
"""

from __future__ import annotations

from typing import Generic, Optional, Sequence, TypeVar

from .predicates import Decision, Holds, Pred, _holds, _later, _refuted, _refutes
from .records import record
from .render import _show_int, show_optional, show_sequence, show_value

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
    if not (type(x) is int and x >= 0):
        check_nat(x)
    if not (type(y) is int and y >= 0):
        check_nat(y)
    holds = x <= y
    if type(x) is not int or type(y) is not int:  # an int subclass is shown now
        x, y = _show_int(x), _show_int(y)
    if holds:
        return _holds("{} <= {} by arithmetic", x, y)
    return _refutes("{} <= {} is false: {} < {}", x, y, y, x)


def _order(k: Nat, strict: bool) -> Pred[Nat]:
    """``n < k`` if ``strict``, else ``k <= n``; the module docstring says what it keeps."""
    if not (type(k) is int and k >= 0):
        check_nat(k)
    kept: dict[int, Decision] = {}
    full = 256 if type(k) is int else 0  # an int-subclass bound formats and compares in its own way
    top = 0  # the first decide raises it to full, so a predicate cast once keeps nothing

    def decide(n: Nat) -> Decision:
        nonlocal top
        if type(n) is int and n >= 0:
            if n < top:
                if (verdict := kept.get(n)) is None:
                    verdict = kept[n] = dec_le(n + 1, k) if strict else dec_le(k, n)
                return verdict
            top = full
        else:  # before n + 1, which -1 and True survive
            check_nat(n)
        return dec_le(n + 1, k) if strict else dec_le(k, n)

    def render(n: Nat) -> str:
        check_nat(n)
        return f"{_show_int(n + 1 if strict else k)} <= {_show_int(k if strict else n)}"

    return Pred(decide, render)  # a Pred built by keyword takes twice as long


def pred_lt_const(k: Nat) -> Pred[Nat]:
    """The property ``n < k``, rendered in successor form ``(n+1) <= k``."""
    return _order(k, True)


def pred_gt_const(k: Nat) -> Pred[Nat]:
    """The property ``n > k``: ``k + 1 <= n``, rendered in that successor form."""
    check_nat(k)
    return _order(k + 1, False)


def pred_ge_const(k: Nat) -> Pred[Nat]:
    """The property ``k <= n``."""
    return _order(k, False)


class EqDec(record("eq_decide", "render_value"), Generic[A]):
    """Decidable equality over ``A``.

    ``render_value`` renders a single value; it is what lets the derived
    list/option instances print whole-structure equations like
    ``0 :: nil = 1 :: nil``.
    """

    __slots__ = ()

    def render_eq(self, a: A, b: A) -> str:
        return f"{self._render_value(a)} = {self._render_value(b)}"


def _eq_nat_decide(a: Nat, b: Nat) -> Decision:
    if not (type(a) is int and a >= 0):
        check_nat(a)
    if not (type(b) is int and b >= 0):
        check_nat(b)
    if a == b:
        return _EQ_REFL
    if type(a) is not int or type(b) is not int:  # an int subclass is shown now
        a, b = _show_int(a), _show_int(b)
    return _refutes("{} <> {}", a, b)


def eq_nat() -> EqDec[Nat]:
    return EqDec(eq_decide=_eq_nat_decide, render_value=show_value)


def eq_list(elem: EqDec[A]) -> EqDec[Sequence[A]]:
    """Equality of sequences, derived element-wise from ``elem``.

    A refutation reports the whole-list equation, not the mismatch index.
    Over ``eq_nat``'s decider, a pair of plain naturals is compared inline and
    any other pair goes through the decider, so verdicts, texts and exceptions
    are those of the element-wise derivation.
    """
    elem_decide = elem.eq_decide
    naturals = elem_decide is _eq_nat_decide

    def decide(xs: Sequence[A], ys: Sequence[A]) -> Decision:
        if len(xs) != len(ys):
            return _refutes("lengths differ: {} <> {}", len(xs), len(ys))
        for x, y in zip(xs, ys):
            if naturals and type(x) is int and type(y) is int and x >= 0 and y >= 0:
                if x == y:
                    continue
            elif isinstance(verdict := elem_decide(x, y), Holds) or not _refuted(verdict):
                continue
            return _refutes("elements differ: {}", _later(elem.render_eq, x, y))
        return _EQ_REFL

    return EqDec(eq_decide=decide, render_value=show_sequence(elem.render_value))


def eq_option(elem: EqDec[A]) -> EqDec[Optional[A]]:
    """Equality of optional values (``None`` or a value), derived from ``elem``."""
    elem_decide = elem.eq_decide

    def decide(a: Optional[A], b: Optional[A]) -> Decision:
        if a is None and b is None:
            return _EQ_REFL
        if a is None or b is None:
            return _refutes("None <> Some")
        return elem_decide(a, b)

    return EqDec(eq_decide=decide, render_value=show_optional(elem.render_value))


def pred_equals(eq: EqDec[A], expected: A) -> Pred[A]:
    """The property ``a = expected``, decided by the given equality decider."""
    eq_decide = eq.eq_decide
    return Pred(decide=lambda a: eq_decide(a, expected), render=lambda a: eq.render_eq(a, expected))
