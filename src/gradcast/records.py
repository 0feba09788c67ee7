"""Slotted, read-only records: the one layout of every value type.

``Pred``, ``EqDec``, ``BinOp``, ``IList``, ``Attested``, ``Rat`` and every
other value type keep private slots behind read-only properties:
three fields build in about 0.3 µs against 0.9 µs for a frozen dataclass, at
55 ns per field read against 20 ns (``timeit``, Python 3.11.7, 2-core x86), and
``copy``, ``deepcopy`` and ``pickle`` work.  Public slots refusing assignment in
``__setattr__`` read faster, but cost ``casts`` 2.7% in op_p50_us, broke copy
and pickle, and needed a second layout.  Only the public names are read-only:
the private slots stay writable, so ``r.value._top = 10`` succeeds.
``compiler``'s loops, its renderers and ``BinOp``'s ``==``, ``hash`` and ``repr`` read
the private slots of ``Const``, ``BinOp``, ``IConst`` and ``IBinop``, so a subclass
overriding a field property is ignored there.
``Rat.__init__`` stores its own slots and ``AttestedRat`` reads ``_value._top`` and
the like, so making the private slots read-only must update them too.
"""

from __future__ import annotations

from operator import attrgetter


class _Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._shown])

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def record(*fields: str) -> type:
    """A base class for a read-only record of ``fields``.

    A subclass declaring ``__slots__ = ()`` is built positionally or by
    keyword, matches class patterns in field order, and has a dataclass's
    ``repr``, ``==`` (same class, equal fields) and ``hash``; setting
    ``_shown`` prints and compares other attributes instead.  Fields sit in
    private slots behind read-only properties, so assigning one raises
    ``AttributeError``.
    """
    namespace: dict = {}
    stores = "".join(f"\n    self._{name} = {name}" for name in fields)
    exec(f"def __init__(self, {', '.join(fields)}):{stores}", namespace)  # noqa: S102
    body = {name: property(attrgetter(f"_{name}")) for name in fields}
    body.update(__slots__=tuple(f"_{name}" for name in fields), __match_args__=fields)
    body.update(__init__=namespace["__init__"], _shown=fields)
    return type("Record", (_Record,), body)
