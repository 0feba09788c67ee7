"""Text rendering for values that cross the cast boundary.

Failed casts report the offending value as text, never as the value itself,
so every type that can flow through a cast needs a deterministic rendering.
Conventions: decimal naturals, lowercase booleans, cons notation
``x :: y :: nil`` for sequences and ``Some (...)`` / ``None`` for optionals.

``show_value`` finds a value's renderer in a plain class -> renderer table,
filled from a ``functools.singledispatch`` registry the first time each class
is rendered, with ``str`` for a class the registry renders by default.  A
registration through ``show_value.register`` drops the table, and so does any
ABC registration (a change of ``abc.get_cache_token()``), so both apply to
the next render.  Sequences read the same table once per element.
"""

from __future__ import annotations

from abc import get_cache_token
from functools import singledispatch
from typing import Any, Callable, Iterable, Optional, TypeVar

A = TypeVar("A")


@singledispatch
def _dispatch(value: Any) -> str:
    return str(value)


_renderers: dict[type, Callable[[Any], str]] = {}
_abc_token = get_cache_token()  # the ABC registrations the table reflects


def _renderer(cls: type) -> Callable[[Any], str]:
    """The registered renderer of ``cls``, entered in the table."""
    show = _dispatch.dispatch(cls)
    show = _renderers[cls] = str if show is _dispatch.registry[object] else show
    return show


def show_value(value: Any) -> str:
    """Render a value for cast reports. Extend with ``show_value.register``;
    ``show_value.dispatch`` and ``show_value.registry`` are the registry's.

    The table keeps a strong reference to every class once it has been
    rendered, until the next registration of a renderer or of an ABC."""
    global _abc_token
    token = get_cache_token()
    if token != _abc_token:
        _renderers.clear()
        _abc_token = token
    show = _renderers.get(value.__class__)
    if show is None:
        show = _renderer(value.__class__)
    return show(value)


def _register(cls: Any, func: Optional[Callable] = None) -> Callable:
    """``singledispatch``'s ``register``, dropping the table once it applies."""
    registered = _dispatch.register(cls, func)
    if func is None and registered is not cls:  # register(cls) returns a decorator
        return lambda f: _register(cls, f)
    _renderers.clear()
    return registered


show_value.register = _register  # type: ignore[attr-defined]
show_value.dispatch = _dispatch.dispatch  # type: ignore[attr-defined]
show_value.registry = _dispatch.registry  # type: ignore[attr-defined]


@show_value.register
def _show_bool(value: bool) -> str:
    return "true" if value else "false"


@show_value.register(list)
@show_value.register(tuple)
def _show_seq(value: Iterable[Any]) -> str:
    global _abc_token
    token = get_cache_token()
    if token != _abc_token:
        _renderers.clear()
        _abc_token = token
    parts = []
    for x in value:
        show = _renderers.get(x.__class__)
        if show is None:
            show = _renderer(x.__class__)
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
