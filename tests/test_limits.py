"""The library's input limits: a checked compile whose failed check renders a
stack value past the interpreter's integer digit limit raises ``LimitError``,
exactly then, and ``cast_rat`` refuses a top or bottom above a bounded
strategy's ceiling, or one its failure texts cannot show, with the same
``LimitError``, which the texts of an attested rational past that limit raise too.
Every one of the library's texts of a plain ``int`` past the limit raises it with one
message, from ``render``'s texts table; an ``int`` subclass keeps ``str``'s own error."""

import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import gradcast
from gradcast.casts import CastFault, FailureMode, LimitError, cast
from gradcast.compiler import (
    COMPILERS,
    BinOp,
    Binop,
    Const,
    IBinop,
    IConst,
    checked_compile,
    correct_prog,
    parse_exp,
    runc,
)
from gradcast.instances import eq_nat, pred_equals, pred_ge_const, pred_lt_const
from gradcast.predicates import p_false, p_forall_bounded
from gradcast.rationals import (
    BOUNDED_CEILINGS,
    RAT_INVARIANTS,
    AttestedRat,
    IrredStrategy,
    cast_rat,
)
from gradcast.render import show_value
from spec import Small, outcome, ref_compile, ref_eval_exp, ref_parse_exp, ref_run_prog

_LIMIT_MESSAGE = "an integer exceeds the integer digit limit"


def test_limit_error_is_the_exported_value_error():
    assert gradcast.LimitError is LimitError
    assert issubclass(LimitError, ValueError)


# Numerals of 1 to 4,400 repeated digits, past the 4,300 the interpreter reads,
# or short ones.  Lengths near 2,150 and 4,300 digits put products and sums of
# nines at the limit.
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


def _checked_run(text, variant, mode):
    """``runc`` of ``text``'s checked compile, each value in hex, which no digit limit
    bounds, so that ``outcome`` can show a result past the limit."""
    return list(map(hex, runc(checked_compile(variant, mode), parse_exp(text))))


def _reference_run(text, variant):
    """``_checked_run`` from plain Python ints: the result, or the failed check's
    ``CastFault``, or ``LimitError`` exactly when ``str()`` of a stack value that
    check renders raises."""
    tree = ref_parse_exp(text)
    prog = ref_compile(tree, variant == "buggy")
    ran, expected = ref_run_prog(prog, []), ref_eval_exp(tree)
    if ran == [expected]:
        return list(map(hex, ran))
    try:
        shown = str(ran[0]), str(expected)
    except ValueError:
        raise LimitError(_LIMIT_MESSAGE) from None
    raise CastFault(show_value(prog), "Some ({} :: nil) = Some ({} :: nil)".format(*shown))


def _assert_matches_reference(text):
    for variant in COMPILERS:
        expected = outcome(_reference_run, text, variant)
        for mode in FailureMode:
            assert outcome(_checked_run, text, variant, mode) == expected


_N = "9" * 2200  # N*N has 4,400 digits


@settings(max_examples=150, deadline=None)
@given(_long_text())
@example("9" * 4300)
@example("9" * 4300 + "+0")
@example("9" * 4300 + "+1")  # 4,301 digits, but equal results are never rendered
@example("9" * 4300 + "-0")
@example("9" * 2150 + "*" + "9" * 2150)
@example("9" * 2150 + "*" + "9" * 2150 + "-1")
@example("9" * 2149 + "*" + "9" * 2149 + "-1")
@example("(1-" + "9" * 2150 + ")*(1-" + "9" * 2150 + ")")
@example(f"{2**7143 - 1}*{2**7142 - 1}-1")  # a*b-1 has 4,301 digits
@example(f"{_N}*{_N}-{_N}*{_N}")
@example(f"1-{_N}*{_N}")
def test_checked_compile_raises_limit_error_exactly_when_its_failed_check_cannot_render(text):
    _assert_matches_reference(text)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no digit limit"
)


@needs_digit_limit
def test_the_digit_limit_is_the_running_interpreters():
    nines = "9" * 330  # a product of two has 660 digits
    texts = (f"{nines}*{nines}-1", f"{_N}*{_N}-1", f"{nines}*{nines}-{nines}*{nines}")
    with pytest.raises(CastFault):  # 660 digits render under the default limit
        runc(checked_compile("buggy"), parse_exp(texts[0]))
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for mode in FailureMode:
            with pytest.raises(LimitError, match=f"^{_LIMIT_MESSAGE}$"):
                checked_compile("buggy", mode)(parse_exp(texts[0]))
        assert runc(checked_compile("buggy"), parse_exp(texts[2])) == [0]
        for text in texts:
            _assert_matches_reference(text)
        sys.set_int_max_str_digits(0)  # a limit of 0 bounds nothing
        with pytest.raises(CastFault, match=r" = Some \(9{2199}80{2200} :: nil\)$"):
            runc(checked_compile("buggy"), parse_exp(texts[1]))
        for text in texts:
            _assert_matches_reference(text)
    finally:
        sys.set_int_max_str_digits(default)


@needs_digit_limit
@pytest.mark.parametrize("mode", list(FailureMode))
def test_a_hand_built_leaf_past_the_limit_raises_limit_error_from_the_program_text(mode):
    # parse_exp never builds such a leaf; the failed check renders the program first
    tree = BinOp(Binop.MINUS, Const(10**5000), Const(1))
    message = f"^{_LIMIT_MESSAGE}$"
    with pytest.raises(LimitError, match=message):
        checked_compile("buggy", mode)(tree)
    with pytest.raises(LimitError, match=message):
        show_value([IConst(1), IConst(10**5000)])
    assert runc(checked_compile("fixed", mode), tree) == [10**5000 - 1]


@needs_digit_limit
@pytest.mark.parametrize("mode", list(FailureMode))
def test_a_failed_cast_rat_past_the_digit_limit_raises_limit_error(mode):
    big = 10**5000
    for top, bottom in ((big, 0), (big, big), (2, 2 * big)):
        with pytest.raises(LimitError, match=f"^{_LIMIT_MESSAGE}$"):
            cast_rat(True, top, bottom, mode=mode)
    assert isinstance(cast_rat(True, big, big + 1, mode=mode), AttestedRat)


@needs_digit_limit
@pytest.mark.parametrize("mode", list(FailureMode))
def test_the_texts_of_an_attested_rat_past_the_digit_limit_raise_limit_error(mode):
    attested = cast_rat(True, 10**5000, 1, mode=mode)
    assert isinstance(attested, AttestedRat) and attested.top == 10**5000
    reads = [
        lambda: repr(attested),
        lambda: repr(attested.value),
        lambda: attested.prop_text,
        lambda: hash(attested),
        lambda: attested == cast_rat(True, 10**5000, 1),
        lambda: RAT_INVARIANTS.render(attested.value),
    ]
    for read in reads:
        with pytest.raises(LimitError, match=f"^{_LIMIT_MESSAGE}$"):
            read()
    # as the text of an attested program past the limit does
    program = checked_compile("fixed", mode)(BinOp(Binop.PLUS, Const(10**5000), Const(0)))
    with pytest.raises(LimitError, match=f"^{_LIMIT_MESSAGE}$"):
        program.prop_text


@needs_digit_limit
@pytest.mark.parametrize("mode", list(FailureMode))
def test_every_library_text_of_a_plain_int_past_the_limit_raises_limit_error(mode):
    big = 10**5000
    program = BinOp(Binop.PLUS, Const(big), Const(0))
    kept = pred_lt_const(big)
    kept.decide(5)  # from the second decide on, the predicate keeps its verdict at 5
    reads = [
        lambda: cast(pred_lt_const(10), big, mode),
        lambda: cast(pred_equals(eq_nat(), 0), big, mode),
        lambda: repr(cast_rat(True, big, 1, mode=mode)),
        lambda: repr(checked_compile("fixed", mode)(program)),
        lambda: cast(pred_lt_const(big), 5, mode).evidence.summary,
        lambda: cast(kept, 5, mode).evidence.summary,
        lambda: cast(pred_ge_const(big), 5, mode),
        lambda: pred_lt_const(10).render(Small(big)),  # its successor is a plain int
        lambda: pred_lt_const(Small(5)).decide(big),  # shows both sides, one a subclass
        lambda: cast(p_forall_bounded(big, lambda n: p_false()), None, mode),
    ]
    for read in reads:
        with pytest.raises(LimitError, match=f"^{_LIMIT_MESSAGE}$"):
            read()


@needs_digit_limit
@pytest.mark.parametrize("mode", list(FailureMode))
def test_an_int_subclass_past_the_limit_keeps_strs_value_error(mode):
    # Only a plain int's text comes from the texts table; a subclass is shown by its
    # own format, whose error is not relabelled, from a failed cast_rat too.
    big = Small(10**5000)
    with pytest.raises(ValueError) as expected:
        str(big)
    reads = [
        lambda: pred_lt_const(big).render(5),
        lambda: pred_ge_const(10).render(big),
        lambda: show_value(IConst(big)),
        lambda: checked_compile("buggy", mode)(BinOp(Binop.MINUS, Const(big), Const(1))),
        lambda: cast_rat(True, big, 0, mode=mode),
        lambda: cast_rat(True, big, big, mode=mode),
        lambda: cast(pred_lt_const(10), big, mode),
    ]
    for read in reads:
        with pytest.raises(ValueError) as raised:
            read()
        assert type(raised.value) is ValueError
        assert raised.value.args == expected.value.args


def test_a_program_that_cannot_run_is_no_limit_error():
    render = correct_prog(parse_exp("1")).render
    with pytest.raises(ValueError, match="^natural number expected, got -1$") as excinfo:
        render([IConst(-1), IConst(0), IBinop(Binop.PLUS)])
    assert type(excinfo.value) is not LimitError


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
