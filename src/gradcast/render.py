"""Text rendering for values that cross the cast boundary.

Failed casts report the offending value as text, never as the value itself,
so every type that can flow through a cast needs a deterministic rendering.
Conventions: decimal naturals, lowercase booleans, cons notation
``x :: y :: nil`` for sequences and ``Some (...)`` / ``None`` for optionals.

``show_value`` finds a value's renderer in a class -> renderer table, which
takes the renderer of the first registered class in the ``__mro__`` (``str``
for ``object``; a plain ``int`` given ``str`` reads texts of 0-255, equal to
``str``'s, made once at import).  ``show_value.register`` drops the table, so a
registration applies from the next render.  Sequences read it once per element.
Every plain ``int`` the library shows reads that texts table, which raises
:class:`LimitError` past the digit limit; an ``int`` subclass keeps its own ``format``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TypeVar

A = TypeVar("A")

_registered: dict[type, Callable[[Any], str]] = {object: str}
_renderers: dict[type, Callable[[Any], str]] = {}


class LimitError(ValueError):
    """Input past a limit: raised by the texts table for a plain ``int`` past the digit
    limit, and by ``cast_rat`` above a bounded strategy's ceiling."""


class _Naturals(dict):
    def __missing__(self, n: int) -> str:
        try:
            return str(n)
        except ValueError:  # a plain int's str raises it only past the digit limit
            raise LimitError("an integer exceeds the integer digit limit") from None


_NATURALS = _Naturals((n, str(n)) for n in range(256))  # the compiler's leaf tables' range


def _show_int(n: object) -> str:
    """A plain ``int``'s text from the table; any other value's ``format``."""
    # __missing__ called from here, not by a subscript's miss: 100 ns less past 255
    return (_NATURALS.get(n) or _NATURALS.__missing__(n)) if type(n) is int else format(n)


def show_value(value: Any) -> str:
    """Render a value for cast reports. Extend with ``show_value.register``.

    The table keeps a strong reference to every class once it has been
    rendered, until the next registration."""
    cls = value.__class__
    show = _renderers.get(cls)
    if show is None:
        show = next(_registered[c] for c in cls.__mro__ if c in _registered)
        if show is str and cls is int:
            show = _NATURALS.__getitem__
        _renderers[cls] = show
    return show(value)


def _register(cls: type, func: Optional[Callable[[Any], str]] = None) -> Callable:
    """Register ``func`` as the renderer of ``cls`` and of subclasses without
    their own, and return it; without ``func``, a decorator doing that."""
    if not isinstance(cls, type):
        raise TypeError(f"show_value.register needs a class, not {cls!r}")
    if func is None:
        return lambda f: _register(cls, f)
    _registered[cls] = func
    _renderers.clear()
    return func


show_value.register = _register  # type: ignore[attr-defined]


@show_value.register(bool)
def _show_bool(value: bool) -> str:
    return "true" if value else "false"


@show_value.register(list)
@show_value.register(tuple)
def _show_seq(value: Iterable[Any]) -> str:
    parts = []
    for x in value:  # a class not in the table yet goes through show_value
        parts.append((_renderers.get(x.__class__) or show_value)(x))
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
