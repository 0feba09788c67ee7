"""Slotted, read-only records: the one layout of every value type.

``Pred``, ``EqDec``, ``BinOp``, ``Attested``, ``Rat`` and every other value type keep
private slots behind read-only properties; ``copy``, ``deepcopy`` and ``pickle`` work.
A record is built by its public ``__init__`` or by :data:`_new` and slot stores,
skipping it.  Outside this module only seven store a private slot:
``predicates._holds``, ``_refutes`` and ``_join``; ``casts._attested`` and ``_failed``;
``rationals.cast_rat``; ``compiler.parse_exp``.  ``Evidence``, ``Rat`` and ``Attested``
refuse every constructor call, so only those writers issue them.  Three fields build in
220 ns the first way, 190 ns the second and 700 ns as a frozen dataclass; a field reads
in 55 ns through its property, 12 ns from its slot (``timeit``, Python 3.11.7, 2-core
x86).  So a combinator, derived equality or range wrapper reads its children's public
fields once, when built (a slot store into a child misses parents built before it), and
private slots are read only where a benchmark workload measures it: by ``cast``,
``proj1`` and ``EqDec.render_eq`` (``casts``, ``compiler``), the deciders of ``p_and``,
``p_or``, ``p_not`` and ``p_implies`` (``casts``), the compiler's loops and renderers,
which ignore a subclass's field property (``compiler``), and ``AttestedRat``'s fields
(``rationals``), besides two that no workload runs: ``_join`` (``Evidence`` has no
public field) and ``BinOp.__reduce__``.  Public slots refusing assignment in
``__setattr__`` read faster, but cost ``casts`` 2.7% in op_p50_us and broke copy and
pickle.  Private slots stay writable (``r.value._top = 10`` succeeds): sealing them must
follow both lists.  ``==``, ``hash`` and ``repr`` live in ``_Record`` alone and walk
nested records, to any depth, with an explicit stack.
"""

from __future__ import annotations

from operator import attrgetter

from .render import _NATURALS

_new = object.__new__


class _Hashed(int):
    """A hash standing in for the value it was taken from: hashes to itself."""

    __slots__ = ()
    __hash__ = int.__int__


class _Record:
    # ==, hash and repr give the results of the recursive definitions in their
    # comments, reading fields in the same order, but open a field whose class
    # keeps the method on an explicit stack; other fields get the operator.
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._shown])

    def __repr__(self) -> str:
        # f"{type(self).__qualname__}({name}={field!r}, ...)"
        parts: list[str] = []
        todo: list = [self]  # last first: text, records, (record, name, separator)
        while todo:
            item = todo.pop()
            if type(item) is str:
                parts.append(item)
            elif type(item) is tuple:
                node, name, sep = item
                value = getattr(node, name)
                if type(value).__repr__ is _Record.__repr__:
                    parts.append(f"{sep}{name}=")
                    todo.append(value)
                else:  # a plain int reads the texts table, so past the digit limit: LimitError
                    parts += sep, name, "=", _NATURALS[value] if type(value) is int else repr(value)
            else:
                parts.append(f"{type(item).__qualname__}(")
                todo.append(")")
                todo += reversed([(item, n, ", " if i else "") for i, n in enumerate(item._shown)])
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        # self._values() == other._values(), for two records of one class
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = list(zip(reversed(self._values()), reversed(other._values())))
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if type(x) is type(y) and type(x).__eq__ is _Record.__eq__:
                todo += zip(reversed(x._values()), reversed(y._values()))
            elif not x == y:
                return False
        return True

    def __hash__(self) -> int:
        # hash(self._values()): fields are hashed in order, a record field on
        # the stack, and the tuple hashed holds each field's hash as a _Hashed
        frames: list = [(self._values(), [])]
        while True:
            values, hashes = frames[-1]
            for value in values[len(hashes) :]:
                if type(value).__hash__ is _Record.__hash__:
                    frames.append((value._values(), []))
                    break
                hashes.append(hash(value))
            else:
                frames.pop()
                result = hash(tuple(map(_Hashed, hashes)))
                if not frames:
                    return result
                frames[-1][1].append(result)


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
