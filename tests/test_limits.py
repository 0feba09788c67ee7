"""The library's input limits: ``parse_exp`` refuses a tree whose bit-length
bound passes the integer digit limit, and ``cast_rat`` refuses a top or bottom
above a bounded strategy's ceiling, each with one ``LimitError``."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

import gradcast
from gradcast import compiler
from gradcast.casts import LimitError
from gradcast.compiler import ParseError, checked_compile, parse_exp
from gradcast.rationals import BOUNDED_CEILINGS, IrredStrategy, cast_rat
from test_compiler_kernels import outcome, ref_parse_exp


def test_limit_error_is_the_exported_value_error():
    assert gradcast.LimitError is LimitError
    assert issubclass(LimitError, ValueError)


# Numerals of 1 to 4,400 repeated digits, past the 4,300 the interpreter reads,
# or short ones.  Lengths near 2,150 and 4,300 digits put products and sums of
# nines at the bound.
_DIGITS = st.integers(1, 4400) | st.integers(2140, 2160) | st.integers(4290, 4310)
_LONG = st.builds(lambda digit, n: digit * n, st.sampled_from("01599"), _DIGITS)
_NUMERAL = st.integers(0, 99).map(str) | _LONG | _LONG


@st.composite
def _long_text(draw, depth=3):
    """Expression text with long numerals, spacing and redundant parentheses."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_NUMERAL)
    left, right = draw(_long_text(depth - 1)), draw(_long_text(depth - 1))
    text = f"{left}{draw(st.sampled_from(['', ' ']))}{draw(st.sampled_from('+-*'))}{right}"
    return f"({text})" if draw(st.booleans()) else text


@settings(max_examples=150, deadline=None)
@given(_long_text())
@example("9" * 4300)
@example("9" * 4300 + "+0")  # the bound passes by one bit; the value does not
@example("9" * 4300 + "-0")
@example("9" * 2150 + "*" + "9" * 2150)
@example("9" * 2149 + "*" + "9" * 2149)
@example("(1-" + "9" * 2150 + ")*(1-" + "9" * 2150 + ")")
def test_parse_exp_refuses_exactly_the_trees_the_reference_bound_refuses(text):
    # ref_parse_exp raises LimitError when exceeds_digit_limit refuses its tree.
    assert outcome(parse_exp, text) == outcome(ref_parse_exp, text)


def _walk_called(*_args):
    raise AssertionError("the bound walk ran")


@pytest.mark.parametrize(
    "text",
    [
        "9" * 491,
        "9" * 245 + "*" + "9" * 245,
        "(" * 245 + "9" + ")" * 245,
        "*".join(["99"] * 163) + "*99",
        " " * 490 + "7",
    ],
    ids=["numeral", "product", "parentheses", "long-product", "spaces"],
)
def test_parse_exp_of_491_characters_or_fewer_never_walks_the_bound(monkeypatch, text):
    assert len(text) == 491
    expected = parse_exp(text)
    monkeypatch.setattr(compiler, "_exceeds_digit_limit", _walk_called)
    for length in range(1, 492, 7):
        try:
            parse_exp(text[-length:])
        except ParseError:
            pass
    assert parse_exp(text) == expected
    with pytest.raises(AssertionError, match="the bound walk ran"):
        parse_exp(" " + text)


def test_a_long_product_and_a_large_bounded_rat_raise_limit_error_in_under_a_second():
    nines = "9" * 2200
    started = time.perf_counter()
    with pytest.raises(LimitError):
        checked_compile("buggy")(parse_exp(f"({nines}*{nines})-1"))
    assert time.perf_counter() - started < 1
    started = time.perf_counter()
    with pytest.raises(LimitError, match="^strategy bounded takes top and bottom up to 90$"):
        cast_rat(True, 400, 399, strategy=IrredStrategy.BOUNDED)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("strategy", [IrredStrategy.BOUNDED, IrredStrategy.BINARY_BOUNDED])
def test_bounded_strategies_refuse_input_over_their_ceiling_before_the_bottom_test(strategy):
    ceiling = BOUNDED_CEILINGS[strategy]
    message = f"^strategy {strategy.value} takes top and bottom up to {ceiling}$"
    for top, bottom in ((ceiling + 1, 1), (1, ceiling + 1), (ceiling + 1, 0), (3000, 3001)):
        with pytest.raises(LimitError, match=message):
            cast_rat(True, top, bottom, strategy=strategy)
    with pytest.raises(TypeError):  # input validation comes first
        cast_rat(None, ceiling + 1, 1, strategy=strategy)
    with pytest.raises(ValueError) as excinfo:
        cast_rat(True, -1, ceiling + 1, strategy=strategy)
    assert type(excinfo.value) is not LimitError


def test_the_gcd_strategy_has_no_ceiling():
    big = 10**40
    assert cast_rat(True, big, big + 1).top == big
