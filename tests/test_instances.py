import itertools

import pytest
from hypothesis import given, strategies as st

from gradcast.casts import FailureMode, cast
from gradcast.instances import (
    check_nat,
    dec_le,
    eq_bool,
    eq_list,
    eq_nat,
    eq_option,
    pred_equals,
    pred_ge_const,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import Holds

EQ_NAT = eq_nat()
EQ_LIST_NAT = eq_list(EQ_NAT)
EQ_OPT_LIST = eq_option(EQ_LIST_NAT)


def holds(decision):
    return isinstance(decision, Holds)


def test_check_nat():
    assert check_nat(0) == 0
    assert check_nat(41) == 41
    with pytest.raises(ValueError):
        check_nat(-1)
    with pytest.raises(TypeError):
        check_nat(True)
    with pytest.raises(TypeError):
        check_nat(1.5)


def test_dec_le_examples():
    assert holds(dec_le(0, 0))
    assert holds(dec_le(3, 5))
    assert not holds(dec_le(5, 3))


def test_dec_le_agrees_with_builtin_comparison():
    for x, y in itertools.product(range(101), repeat=2):
        assert holds(dec_le(x, y)) == (x <= y)


def test_pred_lt_const_examples():
    lt10 = pred_lt_const(10)
    assert holds(lt10.decide(5))
    assert not holds(lt10.decide(15))
    assert lt10.render(15) == "16 <= 10"
    assert lt10.render(5) == "6 <= 10"


class NatSubclass(int):
    pass


@pytest.mark.parametrize(
    "value, error, text",
    [
        (-1, ValueError, "natural number expected, got -1"),
        (True, TypeError, "natural number expected, got True"),
        (2.5, TypeError, "natural number expected, got 2.5"),
        ("3", TypeError, "natural number expected, got '3'"),
    ],
)
@pytest.mark.parametrize("mode", list(FailureMode))
@pytest.mark.parametrize("make", [pred_lt_const, pred_ge_const, pred_gt_const])
def test_order_predicates_reject_non_naturals_before_any_arithmetic(make, mode, value, error, text):
    # Checked before the successor is taken: -1 + 1 and True + 1 are naturals,
    # and 2.5 + 1 would be named in place of 2.5.
    with pytest.raises(error) as raised:
        cast(make(10), value, mode)
    assert str(raised.value) == text


def test_pred_lt_const_accepts_an_int_subclass():
    assert holds(pred_lt_const(10).decide(NatSubclass(7)))
    assert not holds(pred_lt_const(10).decide(NatSubclass(10)))


def test_pred_gt_const_renders_successor_form():
    gt0 = pred_gt_const(0)
    assert holds(gt0.decide(1))
    assert not holds(gt0.decide(0))
    assert gt0.render(0) == "1 <= 0"


def test_pred_ge_const():
    ge3 = pred_ge_const(3)
    assert holds(ge3.decide(3))
    assert not holds(ge3.decide(2))
    assert ge3.render(0) == "3 <= 0"


def test_eq_nat_examples():
    assert holds(EQ_NAT.eq_decide(3, 3))
    assert not holds(EQ_NAT.eq_decide(2, 3))
    assert EQ_NAT.render_eq(2, 3) == "2 = 3"


def test_eq_bool_examples():
    eq = eq_bool()
    assert holds(eq.eq_decide(True, True))
    assert not holds(eq.eq_decide(True, False))
    assert eq.render_eq(True, False) == "true = false"


def test_eq_list_examples():
    assert holds(EQ_LIST_NAT.eq_decide([3], [3]))
    assert not holds(EQ_LIST_NAT.eq_decide([], [1]))
    assert not holds(EQ_LIST_NAT.eq_decide([0], [1]))
    assert EQ_LIST_NAT.render_eq([0], [1]) == "0 :: nil = 1 :: nil"
    assert EQ_LIST_NAT.render_eq([], [1]) == "nil = 1 :: nil"


def test_eq_option_examples():
    assert holds(EQ_OPT_LIST.eq_decide(None, None))
    assert not holds(EQ_OPT_LIST.eq_decide([1], None))
    assert not holds(EQ_OPT_LIST.eq_decide([0], [1]))
    assert EQ_OPT_LIST.render_eq([0], [1]) == "Some (0 :: nil) = Some (1 :: nil)"
    assert EQ_OPT_LIST.render_eq(None, [1]) == "None = Some (1 :: nil)"


def test_pred_equals_renders_equation():
    is3 = pred_equals(EQ_NAT, 3)
    assert holds(is3.decide(3))
    assert not holds(is3.decide(2))
    assert is3.render(2) == "2 = 3"


def all_lists(max_len, alphabet):
    for length in range(max_len + 1):
        yield from (list(item) for item in itertools.product(alphabet, repeat=length))


def test_eq_list_and_eq_option_match_structural_equality_exhaustively():
    # Every pair of lists over {0,1,2} of length <= 6, and the same values
    # seen through the optional layer (plus None).
    lists = list(all_lists(6, (0, 1, 2)))
    values = [None] + lists
    for a in values:
        for b in values:
            assert holds(EQ_OPT_LIST.eq_decide(a, b)) == (a == b)
            if a is not None and b is not None:
                assert holds(EQ_LIST_NAT.eq_decide(a, b)) == (a == b)


nats = st.integers(min_value=0, max_value=60)
nat_lists = st.lists(nats, max_size=8)
optional_lists = st.one_of(st.none(), nat_lists)


@given(nats)
def test_eq_nat_reflexive(a):
    assert holds(EQ_NAT.eq_decide(a, a))


@given(nat_lists, nat_lists)
def test_eq_list_symmetric(xs, ys):
    assert holds(EQ_LIST_NAT.eq_decide(xs, ys)) == holds(EQ_LIST_NAT.eq_decide(ys, xs))


@given(optional_lists, optional_lists, optional_lists)
def test_eq_option_transitive_on_holds(a, b, c):
    if holds(EQ_OPT_LIST.eq_decide(a, b)) and holds(EQ_OPT_LIST.eq_decide(b, c)):
        assert holds(EQ_OPT_LIST.eq_decide(a, c))


@given(optional_lists)
def test_eq_option_reflexive(a):
    assert holds(EQ_OPT_LIST.eq_decide(a, a))
