"""Text rendering for values that cross the cast boundary.

Failed casts report the offending value as text, never as the value itself,
so every type that can flow through a cast needs a deterministic rendering.
Conventions: decimal naturals, lowercase booleans, cons notation
``x :: y :: nil`` for sequences and ``Some (...)`` / ``None`` for optionals.
"""

from __future__ import annotations

from functools import singledispatch
from typing import Any, Callable, Iterable, Optional, TypeVar

A = TypeVar("A")


@singledispatch
def show_value(value: Any) -> str:
    """Render a value for cast reports. Extend with ``show_value.register``."""
    return str(value)


@show_value.register
def _show_bool(value: bool) -> str:
    return "true" if value else "false"


@show_value.register(list)
@show_value.register(tuple)
def _show_seq(value: Iterable[Any]) -> str:
    renderers: dict[type, Callable] = {}  # per call, so later registrations apply
    parts = []
    for x in value:
        show = renderers.get(x.__class__)
        if show is None:
            show = renderers[x.__class__] = show_value.dispatch(x.__class__)
        parts.append(show(x))
    parts.append("nil")
    return " :: ".join(parts)


def show_sequence(show_elem: Callable[[A], str]) -> Callable[[Iterable[A]], str]:
    """Cons-notation renderer: ``3 :: 2 :: nil``; the empty sequence is ``nil``."""
    if show_elem is show_value:
        return _show_seq

    def show(xs: Iterable[A]) -> str:
        parts = [show_elem(x) for x in xs]
        parts.append("nil")
        return " :: ".join(parts)

    return show


def show_optional(show_elem: Callable[[A], str]) -> Callable[[Optional[A]], str]:
    """Optional renderer: ``None`` or ``Some (<elem>)``."""

    def show(value: Optional[A]) -> str:
        if value is None:
            return "None"
        return f"Some ({show_elem(value)})"

    return show
