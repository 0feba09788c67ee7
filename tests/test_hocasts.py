import pytest
from hypothesis import given, strategies as st

from gradcast.casts import Attested, CastFault, FailedCast, FailureMode, proj1
from gradcast.hocasts import (
    IList,
    build_list,
    cast_forall_dom,
    cast_forall_range,
    cast_fun_dom,
    cast_fun_range,
)
from gradcast.instances import dec_le, pred_ge_const, pred_gt_const, pred_lt_const
from gradcast.predicates import Pred, PredFamily, p_true
from gradcast.render import show_value
from spec import counting_pred, ref_show_ilist


def successor(n):
    return n + 1


def test_cast_fun_range_success():
    top_succ = cast_fun_range(pred_lt_const(10), successor)
    refined = top_succ(6)
    assert isinstance(refined, Attested)
    assert refined.value == 7


def test_cast_fun_range_failure_renders_result():
    top_succ = cast_fun_range(pred_lt_const(10), successor)
    assert top_succ(9) == FailedCast(value_text="10", prop_text="11 <= 10")


def test_cast_fun_range_trivial_pred():
    wrapped = cast_fun_range(p_true(), successor)
    out = wrapped(3)
    assert isinstance(out, Attested) and out.value == 4


def test_cast_fun_dom_faults_only_when_projected():
    def divide(a):
        return cast_fun_dom(pred_gt_const(0), lambda rb: a // proj1(rb))

    assert divide(4)(2) == 2
    with pytest.raises(CastFault) as excinfo:
        divide(1)(0)
    assert excinfo.value.value_text == "0"
    assert excinfo.value.prop_text == "1 <= 0"


def test_cast_fun_dom_lazy_ignored_argument_goes_unnoticed():
    ignores = cast_fun_dom(pred_gt_const(0), lambda _r: 1)
    assert ignores(0) == 1


def test_cast_fun_dom_eager_faults_at_entry():
    ignores = cast_fun_dom(pred_gt_const(0), lambda _r: 1, FailureMode.EAGER)
    with pytest.raises(CastFault):
        ignores(0)
    assert cast_fun_dom(pred_gt_const(0), lambda _r: 1, FailureMode.EAGER)(2) == 1


def test_cast_forall_range_checks_against_argument_indexed_property():
    f_inc = cast_forall_range(PredFamily(at=pred_ge_const), successor)
    refined = f_inc(3)
    assert isinstance(refined, Attested) and refined.value == 4

    const_zero = cast_forall_range(PredFamily(at=pred_ge_const), lambda _n: 0)
    assert const_zero(3) == FailedCast(value_text="0", prop_text="3 <= 0")


def length_positive_family():
    def at(n):
        return Pred(decide=lambda _l: dec_le(1, n), render=lambda _l: f"1 <= {n}")

    return PredFamily(at=at)


def test_non_empty_build():
    non_empty_build = cast_forall_range(length_positive_family(), build_list)
    good = non_empty_build(2)
    assert isinstance(good, Attested)
    assert good.value == IList(2, (0, 0))
    assert non_empty_build(0) == FailedCast(value_text="Nil", prop_text="1 <= 0")


def test_cast_forall_dom_matches_fun_dom_behavior():
    def build_pos(refined):
        return build_list(proj1(refined))

    build_pos_weak = cast_forall_dom(pred_gt_const(0), build_pos)
    assert build_pos_weak(2) == IList(2, (0, 0))
    with pytest.raises(CastFault) as excinfo:
        build_pos_weak(0)
    assert excinfo.value.prop_text == "1 <= 0"


def test_cast_forall_dom_trivial_pred_passes_attested_argument():
    seen = []

    def f(refined):
        seen.append(refined)
        return proj1(refined)

    assert cast_forall_dom(p_true(), f)(5) == 5
    assert isinstance(seen[0], Attested)


def test_wrapper_construction_runs_no_decisions():
    p, calls = counting_pred(pred_lt_const(10))
    cast_fun_range(p, successor)
    cast_fun_dom(p, lambda _r: 0)
    cast_forall_dom(p, lambda _r: 0)
    assert calls == []


def test_each_application_decides_once_and_wrappers_are_stateless():
    p, calls = counting_pred(pred_lt_const(10))
    wrapped = cast_fun_range(p, successor)
    first = wrapped(1)
    second = wrapped(2)
    assert calls == [2, 3]
    fresh_one = cast_fun_range(p, successor)(1)
    fresh_two = cast_fun_range(p, successor)(2)
    assert (first, second) == (fresh_one, fresh_two)


def test_constant_family_equals_plain_range_cast():
    family = PredFamily(at=lambda _a: pred_lt_const(50))
    dependent = cast_forall_range(family, successor)
    plain = cast_fun_range(pred_lt_const(50), successor)
    for n in range(200):
        assert dependent(n) == plain(n)


def test_forall_dom_extensionally_equals_fun_dom():
    assert cast_forall_dom is cast_fun_dom

    def body(refined):
        return proj1(refined) * 2

    dependent = cast_forall_dom(pred_gt_const(0), body)
    plain = cast_fun_dom(pred_gt_const(0), body)
    for n in range(1, 201):
        assert dependent(n) == plain(n)


def test_build_list_examples():
    assert build_list(0) == IList(0, ())
    assert build_list(2) == IList(2, (0, 0))
    assert build_list(1).length == 1


def test_ilist_keeps_no_reference_to_the_callers_list():
    items = [5]
    ilist = IList(1, items)
    items.append(7)
    assert repr(ilist) == "IList(length=1, items=(5,))"
    assert ilist == IList(1, (5,)) and hash(ilist) == hash(IList(1, (5,)))
    assert show_value(ilist) == "Cons 0 5 Nil"


def test_build_list_preserves_length_index():
    for n in range(0, 1001):
        made = build_list(n)
        assert made.length == n == len(made.items)


def test_ilist_rejects_mismatched_index():
    # Validated in order: the length, then the count, then each item.
    with pytest.raises(TypeError, match="^natural number expected, got '2'$"):
        IList("2", (0, 0))
    with pytest.raises(ValueError, match="^natural number expected, got -1$"):
        IList(-1, ())
    with pytest.raises(ValueError, match="^length index 2 does not match 1 items$"):
        IList(2, (0,))
    with pytest.raises(ValueError, match="^natural number expected, got -3$"):
        IList(1, (-3,))


def test_ilist_rendering_interleaves_index_and_element():
    assert show_value(build_list(0)) == "Nil"
    assert show_value(build_list(1)) == "Cons 0 0 Nil"
    assert show_value(build_list(2)) == "Cons 1 0 (Cons 0 0 Nil)"
    assert show_value(IList(2, (7, 9))) == "Cons 1 7 (Cons 0 9 Nil)"


@pytest.mark.parametrize("n", range(41))
def test_ilist_rendering_matches_reference_by_length(n):
    items = tuple(range(n, 0, -1))
    assert show_value(IList(n, items)) == ref_show_ilist(IList(n, items))
    assert show_value(build_list(n)) == ref_show_ilist(build_list(n))


@given(st.lists(st.integers(min_value=0, max_value=10**30), max_size=60).map(tuple))
def test_ilist_rendering_matches_reference_on_items(items):
    value = IList(len(items), items)
    assert show_value(value) == ref_show_ilist(value)
