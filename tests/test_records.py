"""Record ``==``, ``!=``, ``hash`` and ``repr`` against recursive references.

The references in ``spec`` do not use the record's own methods: ``==`` compares
nested ``(type, field, ...)`` tuples, ``hash`` hashes nested field tuples
(``hash(record) == hash(fields)``, so by induction a record hashes as its
nested field tuples do), and ``repr`` is written out recursively.  The
records under test walk with an explicit stack, so they also handle chains
far deeper than the recursion limit.
"""

from unittest import mock

import pytest

from exprgen import recursion_fails_fast
from gradcast.compiler import parse_exp
from gradcast.records import record
from spec import eq_key, hash_key, ref_repr


class Cell(record("head", "tail")):
    __slots__ = ()


def chain(depth, last):
    """``Cell(0, Cell(1, Cell(2, Cell(0, ... last))))`` with ``depth`` cells."""
    cell = last
    for i in reversed(range(depth)):
        cell = Cell(i % 3, cell)
    return cell


def holder(depth, last):
    """A cell holding a tree of ``depth + 1`` nested subtractions."""
    return Cell("tree", parse_exp("1 - (" * depth + f"1 - {last}" + ")" * depth))


def chain_repr(depth, last):
    return "".join([f"Cell(head={i % 3}, tail=" for i in range(depth)]) + last + ")" * depth


def holder_repr(depth, last):
    level = "BinOp(op=<Binop.MINUS: 'Minus'>, left=Const(value=1), right="
    tree = level * (depth + 1) + f"Const(value={last})" + ")" * (depth + 1)
    return f"Cell(head='tree', tail={tree})"


# Each case: a value, an equal one built apart, an unequal one, and the
# expected repr of the first.
CASES = {
    "chain": lambda d: (chain(d, None), chain(d, None), chain(d, 0), chain_repr(d, "None")),
    "tree_in_a_field": lambda d: (holder(d, 2), holder(d, 2), holder(d, 3), holder_repr(d, 2)),
}


@pytest.mark.parametrize("depth", [5, 10_000])
@pytest.mark.parametrize("case", list(CASES))
@recursion_fails_fast
def test_deep_records_compare_hash_and_print(case, depth):
    value, same, other, shown = CASES[case](depth)
    assert value == same and not value != same
    assert value != other and not value == other
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2
    assert repr(value) == shown


def outcome(f, x):
    try:
        return f(x)
    except TypeError as error:  # an unhashable field
        return type(error)


def test_nested_records_match_the_tuple_reference_at_depth_five():
    nan = float("nan")
    values = [v for make in CASES.values() for v in make(5)[:3]]
    values += [
        chain(5, Cell(nan, None)),
        chain(5, Cell(1.0, ())),
        chain(5, Cell(True, ())),
        chain(4, None),
        Cell(mock.ANY, chain(2, None)),  # equal to anything, and unhashable
        Cell(chain(2, None), mock.ANY),
        Cell(Cell(1, 2), (Cell(1, 2),)),
    ]
    for x in values:
        assert repr(x) == ref_repr(x)
        assert outcome(hash, x) == outcome(lambda v: hash(hash_key(v)), x)
        for y in values:
            assert (x == y, x != y) == (eq_key(x) == eq_key(y), eq_key(x) != eq_key(y))
