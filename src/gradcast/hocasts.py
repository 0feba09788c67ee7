"""Higher-order casts: defer checking to each application of a function.

Wrapping a function runs no decision procedure at all; only applying the wrapper
does.  Wrapping checks only ``mode``, raising ``ValueError`` for anything but a
:class:`FailureMode`.  The ``forall`` variants cover the dependent cases, where the
checked property (or the shape of the result) varies with the argument;
:func:`cast_fun_range` is :func:`cast_forall_range` over a constant family.

Dependent result shapes are modelled by runtime-indexed data: an
:class:`IList` carries its own length, and that index is validated as a data
invariant at construction.  The type-level bridge that would realign a
result index after a domain cast erases to the identity at runtime, which is
why :func:`cast_forall_dom` is :func:`cast_fun_dom` itself.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .casts import FailureMode, Refined, cast, check_choice
from .instances import check_nat
from .predicates import Pred, PredFamily
from .records import record
from .render import show_value

A = TypeVar("A")
B = TypeVar("B")


class IList(record("length", "items")):
    """A list of naturals carrying its own length index, its items kept as a tuple."""

    __slots__ = ()

    def __init__(self, length: int, items: tuple[int, ...]) -> None:
        check_nat(length)
        if length != len(items):
            raise ValueError(f"length index {length} does not match {len(items)} items")
        for item in items:
            check_nat(item)
        super().__init__(length, tuple(items))


@show_value.register(IList)
def _show_ilist(value: IList) -> str:
    # Constructor notation interleaves the tail's length index with the
    # element: an IList of two zeros prints "Cons 1 0 (Cons 0 0 Nil)".
    items = value.items
    if not items:
        return "Nil"
    last = len(items) - 1
    parts = [f"Cons {last - i} {show_value(x)} (" for i, x in enumerate(items[:last])]
    parts += (f"Cons 0 {show_value(items[last])} Nil", ")" * last)
    return "".join(parts)


def build_list(n: int) -> IList:
    """Build an :class:`IList` of length ``n`` whose elements are all zero."""
    check_nat(n)
    return IList(length=n, items=(0,) * n)


def cast_fun_range(
    p: Pred[B],
    f: Callable[[A], B],
    mode: FailureMode = FailureMode.LAZY,
) -> Callable[[A], Refined]:
    """Strengthen a function's range: every result is cast against ``p``."""
    return cast_forall_range(PredFamily(at=lambda _a: p), f, mode)


def cast_fun_dom(
    p: Pred[A],
    f: Callable[[Refined], B],
    mode: FailureMode = FailureMode.LAZY,
) -> Callable[[A], B]:
    """Weaken a function's domain: the argument is cast before ``f`` sees it.

    In LAZY mode ``f`` may receive a poisoned value; the fault fires only if
    ``f`` projects it.  A function that ignores its argument therefore runs
    to completion even on arguments that violate ``p``.
    """
    check_choice("mode", mode, FailureMode)

    def wrapped(a: A) -> B:
        return f(cast(p, a, mode))

    return wrapped


def cast_forall_range(
    family: PredFamily[A, B],
    f: Callable[[A], B],
    mode: FailureMode = FailureMode.LAZY,
) -> Callable[[A], Refined]:
    """Strengthen a range dependently: ``f(a)`` is cast against ``family.at(a)``."""
    check_choice("mode", mode, FailureMode)
    at = family.at

    def wrapped(a: A) -> Refined:
        return cast(at(a), f(a), mode)

    return wrapped


cast_forall_dom = cast_fun_dom
