"""The derived equalities, ``check_nat`` and sequence rendering against the
straightforward implementations they replaced, kept here (or, where shared,
in ``spec``) as references.

The references build a fresh verdict per element comparison, run the full
natural-number checks and dispatch ``show_value`` once per element; the
library must give the same arm, the same summary text, the same exception
and the same rendering.
"""

import abc

from hypothesis import given, strategies as st

from gradcast.compiler import Binop, IBinop, IConst
from gradcast.hocasts import IList
from gradcast.instances import EqDec, check_nat, eq_list, eq_nat, eq_option
from gradcast.predicates import Holds, Refutes
from gradcast.render import show_optional, show_sequence, show_value
from spec import _holds, _refutes, check_nat as ref_check_nat


def ref_show_sequence(show_elem):
    def show(xs):
        parts = [show_elem(x) for x in xs]
        parts.append("nil")
        return " :: ".join(parts)

    return show


def ref_show_value(value):
    # The renderers that changed: sequences rendered element by element
    # through a per-call closure, and ints and None through their own
    # renderers.
    if isinstance(value, (list, tuple)):
        return ref_show_sequence(ref_show_value)(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return "None"
    return show_value(value)


def ref_eq_nat():
    def decide(a, b):
        ref_check_nat(a)
        ref_check_nat(b)
        if a == b:
            return _holds("eq_refl")
        return _refutes(f"{a} <> {b}")

    return EqDec(eq_decide=decide, render_value=ref_show_value)


def ref_eq_list(elem):
    def decide(xs, ys):
        if len(xs) != len(ys):
            return _refutes(f"lengths differ: {len(xs)} <> {len(ys)}")
        for x, y in zip(xs, ys):
            verdict = elem.eq_decide(x, y)
            if isinstance(verdict, Refutes):
                return _refutes(f"elements differ: {elem.render_eq(x, y)}")
        return _holds("eq_refl")

    return EqDec(eq_decide=decide, render_value=ref_show_sequence(elem.render_value))


def ref_eq_option(elem):
    def decide(a, b):
        if a is None and b is None:
            return _holds("eq_refl")
        if a is None or b is None:
            return _refutes("None <> Some")
        return elem.eq_decide(a, b)

    return EqDec(eq_decide=decide, render_value=show_optional(elem.render_value))


def outcome(fn, *args):
    """What a call shows its caller: the arm and summary of a verdict, any
    other result with its type, or the exception."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    if isinstance(result, Holds):
        return ("holds", result.evidence.summary)
    if isinstance(result, Refutes):
        return ("refutes", result.refutation.summary)
    return ("returned", type(result), result)


class Small(int):
    """An int subclass: takes check_nat's slow path."""


naturals = st.integers(min_value=0, max_value=30)
# Mostly naturals, sometimes a value eq_nat must reject.
elements = st.one_of(
    naturals, naturals, naturals, st.sampled_from([True, False, -1, "x", Small(3)])
)


@st.composite
def list_pairs(draw, elem=elements):
    xs = draw(st.lists(elem, max_size=12))
    edit = draw(st.sampled_from(["same", "swap", "drop", "append", "other"]))
    ys = list(xs)
    if edit == "swap" and ys:
        ys[draw(st.integers(0, len(ys) - 1))] = draw(elem)
    elif edit == "drop" and ys:
        ys.pop()
    elif edit == "append":
        ys.append(draw(elem))
    elif edit == "other":
        ys = draw(st.lists(elem, max_size=12))
    return xs, ys


@given(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.floats(),
        st.text(max_size=3),
        st.builds(Small, st.integers()),
        st.none(),
    )
)
def test_check_nat_matches_reference(value):
    assert outcome(check_nat, value) == outcome(ref_check_nat, value)


@given(elements, elements)
def test_eq_nat_matches_reference(a, b):
    assert outcome(eq_nat().eq_decide, a, b) == outcome(ref_eq_nat().eq_decide, a, b)


@given(list_pairs())
def test_eq_list_matches_reference(pair):
    xs, ys = pair
    fast, ref = eq_list(eq_nat()), ref_eq_list(ref_eq_nat())
    assert outcome(fast.eq_decide, xs, ys) == outcome(ref.eq_decide, xs, ys)
    assert fast.render_eq(xs, ys) == ref.render_eq(xs, ys)


@given(list_pairs(elem=st.lists(elements, max_size=4)))
def test_nested_eq_list_matches_reference(pair):
    xs, ys = pair
    fast, ref = eq_list(eq_list(eq_nat())), ref_eq_list(ref_eq_list(ref_eq_nat()))
    assert outcome(fast.eq_decide, xs, ys) == outcome(ref.eq_decide, xs, ys)
    assert fast.render_eq(xs, ys) == ref.render_eq(xs, ys)


@given(list_pairs(), st.booleans(), st.booleans())
def test_eq_option_matches_reference(pair, left_none, right_none):
    a = None if left_none else pair[0]
    b = None if right_none else pair[1]
    fast = eq_option(eq_list(eq_nat()))
    ref = ref_eq_option(ref_eq_list(ref_eq_nat()))
    assert outcome(fast.eq_decide, a, b) == outcome(ref.eq_decide, a, b)
    assert fast.render_eq(a, b) == ref.render_eq(a, b)


renderable = st.recursive(
    st.one_of(
        st.integers(min_value=-5, max_value=10**20),
        st.booleans(),
        st.none(),
        st.builds(IConst, naturals),
        st.builds(IBinop, st.sampled_from(list(Binop))),
        st.lists(naturals, max_size=3).map(lambda xs: IList(len(xs), tuple(xs))),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner)),
    max_leaves=20,
)


@given(st.one_of(st.lists(renderable, max_size=8), st.tuples(renderable, renderable)))
def test_show_value_on_sequences_matches_reference(value):
    assert show_value(value) == ref_show_value(value)


def test_show_sequence_of_show_value_is_the_registered_renderer():
    assert show_sequence(show_value) is show_value.dispatch(list)


def test_registration_after_a_first_render_applies_to_later_list_renders():
    class Late:
        def __str__(self):
            return "late-default"

    assert show_value([Late(), 1]) == "late-default :: 1 :: nil"
    show_value.register(Late, lambda _value: "late-registered")
    assert show_value([Late(), 1]) == "late-registered :: 1 :: nil"
    assert show_value([[Late()], (Late(),)]) == (
        "late-registered :: nil :: late-registered :: nil :: nil"
    )


def test_abc_registration_after_a_first_render_applies_to_later_list_renders():
    class Marker(abc.ABC):
        pass

    class Virtual:
        def __str__(self):
            return "virtual-default"

    show_value.register(Marker, lambda _value: "marker")
    assert show_value([Virtual()]) == "virtual-default :: nil"
    Marker.register(Virtual)
    assert show_value([Virtual()]) == "marker :: nil"
