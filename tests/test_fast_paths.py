"""The derived equalities, ``check_nat`` and sequence rendering against the
straightforward implementations they replaced, the references in ``spec``.

The references send every element pair to the element decider, run the full
natural-number checks and call ``show_value`` once per element.  The
library compares a pair of plain naturals inline, sends every other pair to
the element decider, and finds renderers in a class -> renderer table; it must
give the same arm, the same summary text, the same exception and the same
rendering.  The registration tests check rendered text only: a renderer
registered after a first render applies from the next one, to subclasses
without a renderer of their own too, and a subclass's own renderer beats its
base's.  Plain ints render from a table of texts made once for 0-255; the
table tests check its texts against ``str`` on both sides of its edge, that past
the digit limit it raises ``LimitError``, and that ``int`` subclasses, ``bool`` and
renderers registered for ``int`` or ``object`` are not served from it.  From their
second decide on, the order predicates keep the verdict they issue for each plain
int 0-255; the order tests check every kept verdict against a fresh ``dec_le`` on
both sides of the table's edge, that bounds and texts match the reference, that
other inputs raise as before on a warm table, that the first decide keeps nothing,
that no two predicates share a table, and that threads filling one table get
equal verdicts.
"""

import enum
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from gradcast import render
from gradcast.casts import CastFault, FailedCast, FailureMode, LimitError, cast, proj1
from gradcast.compiler import Binop, IBinop, IConst
from gradcast.hocasts import IList
from gradcast.instances import (
    EqDec,
    check_nat,
    dec_le,
    eq_list,
    eq_nat,
    eq_option,
    pred_equals,
    pred_ge_const,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import Holds, Refutes
from gradcast.render import show_sequence, show_value
import spec
from spec import Small, check_nat as ref_check_nat, ref_show_value


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


class Shown(int):
    """An int subclass with its own text."""

    def __str__(self):
        return f"shown {int(self)}"


class Level(enum.IntEnum):
    LOW = 3
    HIGH = 200


naturals = st.integers(min_value=0, max_value=30)
# Mostly naturals, sometimes a value eq_nat must reject.
elements = st.one_of(
    naturals, naturals, naturals, st.sampled_from([True, False, -1, "x", Small(3)])
)


@st.composite
def list_pairs(draw, elem=elements, long=st.lists(naturals, min_size=64, max_size=64)):
    xs = draw(st.lists(elem, max_size=12) | long)
    edit = draw(st.sampled_from(["same", "swap", "drop", "append", "other", "invalid"]))
    ys = list(xs)
    if edit == "swap" and ys:
        ys[draw(st.integers(0, len(ys) - 1))] = draw(elem)
    elif edit == "drop" and ys:
        ys.pop()
    elif edit == "append":
        ys.append(draw(elem))
    elif edit == "other":
        ys = draw(st.lists(elem, max_size=12))
    elif edit == "invalid" and ys:
        # A mismatch at one index, and an element eq_nat rejects or takes
        # the slow path for on either side, before, at or after it.
        ys[draw(st.integers(0, len(ys) - 1))] = 31
        side = draw(st.sampled_from([xs, ys]))
        side[draw(st.integers(0, len(side) - 1))] = draw(st.sampled_from([-1, True, Small(3)]))
    if draw(st.booleans()):
        ys = tuple(ys)  # a list compared with a tuple
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
    assert outcome(eq_nat().eq_decide, a, b) == outcome(spec.eq_nat().eq_decide, a, b)


@given(list_pairs())
def test_eq_list_matches_reference(pair):
    xs, ys = pair
    fast, ref = eq_list(eq_nat()), spec.eq_list(spec.eq_nat())
    assert outcome(fast.eq_decide, xs, ys) == outcome(ref.eq_decide, xs, ys)
    assert outcome(fast.render_eq, xs, ys) == outcome(ref.render_eq, xs, ys)


def show_bracketed(value):
    return f"<{value}>"


@given(list_pairs())
def test_eq_list_over_eq_nat_decide_with_another_renderer_matches_reference(pair):
    # eq_nat's own decider under another renderer: still compared inline.
    xs, ys = pair
    fast = eq_list(EqDec(eq_decide=eq_nat().eq_decide, render_value=show_bracketed))
    ref = spec.eq_list(EqDec(eq_decide=spec.eq_nat().eq_decide, render_value=show_bracketed))
    assert outcome(fast.eq_decide, xs, ys) == outcome(ref.eq_decide, xs, ys)
    assert outcome(fast.render_eq, xs, ys) == outcome(ref.render_eq, xs, ys)


@given(
    list_pairs(
        elem=st.lists(elements, max_size=4),
        long=st.lists(st.lists(naturals, max_size=4), min_size=64, max_size=64),
    )
)
def test_nested_eq_list_matches_reference(pair):
    xs, ys = pair
    fast, ref = eq_list(eq_list(eq_nat())), spec.eq_list(spec.eq_list(spec.eq_nat()))
    assert outcome(fast.eq_decide, xs, ys) == outcome(ref.eq_decide, xs, ys)
    assert outcome(fast.render_eq, xs, ys) == outcome(ref.render_eq, xs, ys)


@given(list_pairs(), st.booleans(), st.booleans())
def test_eq_option_matches_reference(pair, left_none, right_none):
    a = None if left_none else pair[0]
    b = None if right_none else pair[1]
    fast = eq_option(eq_list(eq_nat()))
    ref = spec.eq_option(spec.eq_list(spec.eq_nat()))
    assert outcome(fast.eq_decide, a, b) == outcome(ref.eq_decide, a, b)
    assert outcome(fast.render_eq, a, b) == outcome(ref.render_eq, a, b)


renderable = st.recursive(
    st.one_of(
        st.integers(min_value=-(10**20), max_value=10**20),
        st.integers(min_value=-5, max_value=300),
        st.builds(Small, st.integers(min_value=-300, max_value=300)),
        st.builds(Shown, st.integers(min_value=0, max_value=300)),
        st.sampled_from(list(Level)),
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
    value = [3, True, (IConst(1), None), []]
    expected = "3 :: true :: iConst 1 :: None :: nil :: nil :: nil"
    assert show_sequence(show_value)(value) == show_value(value) == expected
    assert show_sequence(show_value)((False,)) == show_value((False,)) == "false :: nil"


def test_registration_after_a_first_render_applies_to_later_list_renders():
    class Late:
        def __str__(self):
            return "late-default"

    class LateChild(Late):
        pass

    assert show_value([Late(), 1]) == "late-default :: 1 :: nil"
    assert show_value([LateChild()]) == "late-default :: nil"
    assert show_value(LateChild()) == "late-default"
    show_value.register(Late, lambda _value: "late-registered")
    assert show_value([Late(), 1]) == "late-registered :: 1 :: nil"
    assert show_value([[Late()], (Late(),)]) == (
        "late-registered :: nil :: late-registered :: nil :: nil"
    )
    # The base's renderer reaches a subclass rendered before it was registered.
    assert show_value([LateChild()]) == "late-registered :: nil"
    assert show_value(LateChild()) == "late-registered"


@pytest.mark.parametrize(
    "form, rendered",
    [
        ("call", "class"),
        ("decorator", "class"),
        ("call", "subclass"),
        ("decorator", "subclass"),
        ("call", "own"),
        ("decorator", "own"),
    ],
    ids=["call", "decorator", "call-subclass", "decorator-subclass", "call-own", "decorator-own"],
)
def test_registration_after_a_first_direct_render_applies_to_the_next_render(form, rendered):
    class Late:
        def __str__(self):
            return "late-default"

    class LateChild(Late):
        pass

    class LateOwn(Late):
        pass

    def show_late(_value: Late) -> str:
        return "late-registered"

    show_value.register(LateOwn, lambda _value: "own")
    # The value rendered before and after ``Late`` gets its renderer: the
    # class itself, a subclass without a renderer, or one with its own.
    value, before, after = {
        "class": (Late(), "late-default", "late-registered"),
        "subclass": (LateChild(), "late-default", "late-registered"),
        "own": (LateOwn(), "own", "own"),
    }[rendered]
    assert show_value(value) == before
    if form == "call":
        assert show_value.register(Late, show_late) is show_late
    else:
        assert show_value.register(Late)(show_late) is show_late
    assert show_value(value) == after
    assert show_value([value]) == f"{after} :: nil"
    # A renderer names its class: an annotated function alone is refused.
    with pytest.raises(TypeError, match="needs a class"):
        show_value.register(show_late)


def test_an_int_subclass_with_its_own_renderer_keeps_it():
    class Tagged(Small):  # a class of this test's own: a registration is process-wide
        pass

    class TaggedChild(Tagged):
        pass

    class TaggedOwn(Tagged):
        pass

    show_value.register(TaggedOwn, lambda value: f"own {int(value)}")
    show_value.register(Tagged, lambda value: f"tagged {int(value)}")
    assert show_value(Tagged(3)) == "tagged 3"
    # A subclass without a renderer takes its base's; one with its own keeps
    # it, though the base registered later.
    assert show_value([TaggedChild(5), TaggedOwn(5)]) == "tagged 5 :: own 5 :: nil"
    assert show_value(TaggedOwn(5)) == "own 5"
    assert show_value([Tagged(3), 3]) == "tagged 3 :: 3 :: nil"
    assert show_value(3) == "3"
    eq = eq_list(eq_nat())
    assert outcome(eq.eq_decide, [Tagged(3), 1], [4, 1]) == (
        "refutes", "elements differ: tagged 3 = 4"
    )
    assert eq.render_eq([Tagged(3)], [4]) == "tagged 3 :: nil = 4 :: nil"


def test_show_value_renders_registered_and_unregistered_classes():
    assert show_value(True) == "true"
    assert show_value([1, 2]) == show_value((1, 2)) == "1 :: 2 :: nil"
    assert show_value(IConst(7)) == "iConst 7"
    assert show_value(IBinop(Binop.TIMES)) == "iBinop Times"
    assert show_value(IList(1, (4,))) == "Cons 0 4 Nil"
    assert show_value(complex(1, 2)) == str(complex(1, 2)) == "(1+2j)"
    assert show_value(2.5) == "2.5"
    assert show_value(None) == "None"


@pytest.fixture
def restore_renderers():
    registered, renderers = dict(render._registered), dict(render._renderers)
    yield
    render._registered.clear()
    render._registered.update(registered)
    render._renderers.clear()
    render._renderers.update(renderers)


@pytest.mark.parametrize("n", [-1, 0, 255, 256] + [10**k for k in range(0, 41, 4)])
@pytest.mark.parametrize("first", [True, False], ids=["first-render", "cached"])
def test_a_plain_int_renders_as_str(n, first, restore_renderers):
    if first:
        render._renderers.clear()
    assert show_value(n) == str(n)
    assert show_value([n, n]) == f"{n} :: {n} :: nil"


def test_every_int_around_the_table_renders_as_str():
    values = range(-300, 600)
    assert [show_value(n) for n in values] == [str(n) for n in values]
    assert show_value(list(values)) == " :: ".join([*map(str, values), "nil"])


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no digit limit"
)
def test_an_int_past_the_digit_limit_raises_limit_error_and_a_subclass_strs_value_error():
    default = sys.get_int_max_str_digits()
    big = 10**700
    try:
        sys.set_int_max_str_digits(640)
        for value in (big, [1, big], (big,), -big):
            with pytest.raises(LimitError, match="^an integer exceeds the integer digit limit$"):
                show_value(value)
        with pytest.raises(ValueError) as expected:
            str(big)
        with pytest.raises(ValueError) as raised:  # an int subclass keeps str's own error
            show_value([1, Small(big)])
        assert type(raised.value) is ValueError
        assert raised.value.args == expected.value.args
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize("value", [Shown(7), Shown(255), Level.LOW, Level.HIGH], ids=repr)
def test_an_int_subclass_in_the_table_range_renders_with_its_own_str(value):
    assert show_value(value) == str(value)
    assert show_value([value, int(value)]) == f"{value} :: {int(value)} :: nil"


def test_booleans_keep_their_own_renderer():
    assert show_value(True) == "true"
    assert show_value(False) == "false"
    assert show_value([True, 1, False, 0]) == "true :: 1 :: false :: 0 :: nil"


@pytest.mark.parametrize("cls", [int, object])
def test_a_renderer_for_int_or_object_registered_after_a_render_wins(cls, restore_renderers):
    assert show_value(7) == "7"
    assert show_value([7, 300]) == "7 :: 300 :: nil"
    show_value.register(cls, lambda value: f"<{int(value)}>")
    assert show_value(7) == "<7>"
    assert show_value(300) == "<300>"
    assert show_value([7, 300, True]) == "<7> :: <300> :: true :: nil"


UP_TEXT = (
    "250 :: 251 :: 252 :: 253 :: 254 :: 255 :: 256 :: 257 :: 258 :: 259 :: 260 :: 261 :: "
    "262 :: 263 :: 264 :: 265 :: 266 :: 267 :: 268 :: 269 :: 270 :: 271 :: 272 :: 273 :: "
    "274 :: 275 :: 276 :: 277 :: 278 :: 279 :: 280 :: 281 :: 282 :: 283 :: 284 :: 285 :: "
    "286 :: 287 :: 288 :: 289 :: 290 :: 291 :: 292 :: 293 :: 294 :: 295 :: 296 :: 297 :: "
    "298 :: 299 :: 300 :: 301 :: 302 :: 303 :: 304 :: 305 :: 306 :: 307 :: 308 :: 309 :: "
    "310 :: 311 :: 312 :: 313 :: nil"
)
DOWN_TEXT = (
    "313 :: 312 :: 311 :: 310 :: 309 :: 308 :: 307 :: 306 :: 305 :: 304 :: 303 :: 302 :: "
    "301 :: 300 :: 299 :: 298 :: 297 :: 296 :: 295 :: 294 :: 293 :: 292 :: 291 :: 290 :: "
    "289 :: 288 :: 287 :: 286 :: 285 :: 284 :: 283 :: 282 :: 281 :: 280 :: 279 :: 278 :: "
    "277 :: 276 :: 275 :: 274 :: 273 :: 272 :: 271 :: 270 :: 269 :: 268 :: 267 :: 266 :: "
    "265 :: 264 :: 263 :: 262 :: 261 :: 260 :: 259 :: 258 :: 257 :: 256 :: 255 :: 254 :: "
    "253 :: 252 :: 251 :: 250 :: nil"
)


def test_a_failed_list_equality_cast_across_the_table_edge_renders_golden_texts():
    # 250-255 come from the table and 256-313 from str, in one text.
    xs = list(range(250, 314))
    p = pred_equals(eq_list(eq_nat()), xs[::-1])
    prop_text = f"{UP_TEXT} = {DOWN_TEXT}"
    args = (f"Cast has failed: value {UP_TEXT} does not satisfy {prop_text}",)
    lazy = cast(p, xs)
    assert type(lazy) is FailedCast
    assert (lazy.value_text, lazy.prop_text) == (UP_TEXT, prop_text)
    with pytest.raises(CastFault) as forced:
        proj1(lazy)
    with pytest.raises(CastFault) as eager:
        cast(p, xs, FailureMode.EAGER)
    for fault in (forced.value, eager.value):
        assert (fault.value_text, fault.prop_text, fault.args) == (UP_TEXT, prop_text, args)


# -- order predicates: one kept verdict per plain int 0-255 --------------------

# Each order predicate with the fresh decision it must match at n.
ORDERS = {
    "lt": (pred_lt_const, lambda k, n: dec_le(n + 1, k)),
    "gt": (pred_gt_const, lambda k, n: dec_le(k + 1, n)),
    "ge": (pred_ge_const, lambda k, n: dec_le(k, n)),
}


def evidence_of(verdict):
    return verdict.evidence if isinstance(verdict, Holds) else verdict.refutation


def shown(verdict):
    """Everything a verdict shows its caller: arm, summary, repr and hash."""
    return type(verdict), evidence_of(verdict).summary, repr(verdict), hash(verdict)


BOUNDS = {"0": 0, "1": 1, "30": 30, "255": 255, "256": 256, "1e30": 10**30, "Small(30)": Small(30)}


@pytest.mark.parametrize("k", BOUNDS.values(), ids=BOUNDS.keys())
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_an_order_predicate_decides_every_natural_like_a_fresh_dec_le(order, k):
    make, fresh = ORDERS[order]
    p = make(k)
    p.decide(300)  # a predicate keeps verdicts from its second decide on
    # gt builds ge over k + 1, a plain int even for an int-subclass k.
    kept = type(k) is int or order == "gt"
    for n in range(301):
        first, again, expected = p.decide(n), p.decide(n), fresh(k, n)
        assert shown(first) == shown(again) == shown(expected)
        assert first == again == expected
        # Identity is not part of the API; it shows which path served the verdict.
        assert (again is first) == (kept and n < 256)



BAD_AND_ODD = [True, -1, 2.5, "3", None, Small(3), Shown(3), 0, 7, 10**30]


@pytest.mark.parametrize("k", BAD_AND_ODD, ids=map(repr, BAD_AND_ODD))
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_an_order_predicate_builds_and_renders_like_the_reference(order, k):
    make, ref = ORDERS[order][0], getattr(spec, f"pred_{order}_const")
    built = outcome(make, k)
    assert built[0] == outcome(ref, k)[0]
    if built[0] == "raised":
        assert built == outcome(ref, k)
        return
    p, q = make(k), ref(k)
    for n in [0, 5, 255, 256, 300, True, -1, 2.5, Small(4), Shown(4)]:
        assert outcome(p.render, n) == outcome(q.render, n)
        assert outcome(p.decide, n) == outcome(q.decide, n)


@pytest.mark.parametrize(
    "value", [True, -1, 2.5, Small(1), Shown(1)], ids=["True", "-1", "2.5", "Small(1)", "Shown(1)"]
)
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_other_inputs_on_a_warm_table_decide_or_raise_as_before(order, value):
    p = getattr(spec, f"pred_{order}_const")(5)  # the reference, with no table
    p_warm = ORDERS[order][0](5)
    p_warm.decide(0)
    p_warm.decide(1)
    expected = outcome(p.decide, value)
    assert outcome(p_warm.decide, value) == expected
    if expected[0] != "raised":
        assert repr(p_warm.decide(value)) == repr(p.decide(value))
        assert p_warm.decide(value) is not p_warm.decide(1)


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_two_order_predicates_with_one_bound_keep_tables_of_their_own(order):
    make = ORDERS[order][0]
    p, q = make(5), make(5)
    p.decide(300)
    q.decide(300)
    verdict = p.decide(3)
    assert p.decide(3) is verdict
    assert q.decide(3) is not verdict
    # A slot store into a verdict p kept does not reach another predicate.
    text = evidence_of(verdict).summary
    object.__setattr__(evidence_of(verdict), "_text", "forged")
    assert evidence_of(q.decide(3)).summary == evidence_of(make(5).decide(3)).summary == text


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_an_order_predicate_keeps_nothing_from_its_first_decide(order):
    make, fresh = ORDERS[order]
    p = make(5)
    first = p.decide(3)
    again = p.decide(3)
    assert shown(first) == shown(again) == shown(fresh(5, 3))
    assert again is not first
    assert p.decide(3) is again


def test_threads_filling_one_table_all_get_verdicts_equal_to_fresh_ones():
    expected = [shown(dec_le(n + 1, 100)) for n in range(256)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            p = pred_lt_const(100)
            barrier = threading.Barrier(8)
            seen = []

            def decide_all(p=p, barrier=barrier, seen=seen):
                barrier.wait(timeout=10)
                seen.append([p.decide(n) for n in range(256)])

            threads = [threading.Thread(target=decide_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8
            for verdicts in seen:
                assert list(map(shown, verdicts)) == expected
            # Whichever thread's store won, the table now serves that one verdict.
            assert all(p.decide(n) is p.decide(n) for n in range(256))
    finally:
        sys.setswitchinterval(interval)


def test_a_kept_verdict_past_the_digit_limit_raises_on_every_read():
    p = pred_lt_const(10**5000)
    for _ in range(3):
        verdict = p.decide(5)
        assert type(verdict) is Holds
        for _ in range(2):
            with pytest.raises(LimitError, match="^an integer exceeds the integer digit limit$"):
                verdict.evidence.summary  # noqa: B018 - the read is what raises
