import contextlib
import io
import re
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gradcast.cli as cli
from gradcast.casts import CastFault
from gradcast.cli import bench_strategies, main
from gradcast.compiler import COMPILERS
from gradcast.rationals import BOUNDED_CEILINGS, IrredStrategy


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out.splitlines()


def test_check_buggy_success(capsys):
    status, lines = run_cli(capsys, "check", "2+2", "--compiler", "buggy")
    assert status == 0
    assert lines == ["RESULT 4"]


def test_check_buggy_subtraction_fails(capsys):
    status, lines = run_cli(capsys, "check", "2-1", "--compiler", "buggy")
    assert status == 1
    assert lines == [
        "FAILED_CAST value=iConst 2 :: iConst 1 :: iBinop Minus :: nil "
        "prop=Some (0 :: nil) = Some (1 :: nil)"
    ]


def test_check_fixed_subtraction_succeeds(capsys):
    status, lines = run_cli(capsys, "check", "2-1", "--compiler", "fixed")
    assert status == 0
    assert lines == ["RESULT 1"]


def test_check_eager_mode_also_exits_one(capsys):
    status, lines = run_cli(capsys, "check", "2-1", "--mode", "eager")
    assert status == 1
    assert lines[0].startswith("FAILED_CAST ")
    assert "Some (0 :: nil) = Some (1 :: nil)" in lines[0]


def test_check_parse_error(capsys):
    status, lines = run_cli(capsys, "check", "2 + ")
    assert status == 2
    assert lines[0].startswith("PARSE_ERROR offset=5")


def test_rat_good(capsys):
    status, lines = run_cli(capsys, "rat", "+", "5", "6")
    assert status == 0
    assert lines == ["RAT sign=+ top=5 bottom=6"]


def test_rat_bad(capsys):
    status, lines = run_cli(capsys, "rat", "+", "5", "10")
    assert status == 1
    assert lines[0].startswith("FAILED_CAST value=mkRat true 5 10 prop=")


# bench_strategies needs a nonzero bottom, so --time adds no TIME line here.
@pytest.mark.parametrize("flags", [(), ("--time", "--mode", "lazy"), ("--time", "--mode", "eager")])
def test_rat_zero_bottom_names_bottom_condition(capsys, flags):
    status, lines = run_cli(capsys, "rat", "+", "1", "0", *flags)
    assert status == 1
    assert lines == ["FAILED_CAST value=mkRat true 1 0 prop=0 <> 0"]


def test_rat_eager_mode(capsys):
    status, lines = run_cli(capsys, "rat", "+", "5", "10", "--mode", "eager")
    assert status == 1
    assert lines[0].startswith("FAILED_CAST value=mkRat true 5 10")


@pytest.mark.parametrize("strategy", ["bounded", "binary", "gcd"])
def test_rat_strategies(capsys, strategy):
    status, lines = run_cli(capsys, "rat", "-", "5", "6", "--strategy", strategy)
    assert status == 0
    assert lines == ["RAT sign=- top=5 bottom=6"]


def test_rat_time_prints_per_strategy_medians(capsys):
    status, lines = run_cli(capsys, "rat", "+", "5", "10", "--time")
    assert status == 1
    assert lines[0].startswith("FAILED_CAST ")
    timed = [line for line in lines[1:] if line.startswith("TIME ")]
    assert len(timed) == 3
    names = {line.split()[1] for line in timed}
    assert names == {"bounded", "binary", "gcd"}


def test_rat_time_prints_the_same_lines_in_both_regimes(capsys):
    failed = f"FAILED_CAST value=mkRat true 5 10 prop={IRREDUCIBILITY_5_10}"
    for mode in ("lazy", "eager"):
        status, lines = run_cli(capsys, "rat", "+", "5", "10", "--time", "--mode", mode)
        masked = [re.sub(r" \d+\.\d+$", " <t>", line) for line in lines]
        assert (status, masked) == (1, [failed, "TIME bounded <t>", "TIME binary <t>", "TIME gcd <t>"])


def test_rat_bad_sign_is_usage_error(capsys):
    status, lines = run_cli(capsys, "rat", "x", "5", "6")
    assert status == 2
    assert lines[0].startswith("USAGE_ERROR")


def test_rat_non_decimal_arguments_are_usage_errors(capsys):
    status, _ = run_cli(capsys, "rat", "+", "five", "6")
    assert status == 2
    status, _ = run_cli(capsys, "rat", "+", "5", "-6")
    assert status == 2


def test_demo_regimes_golden_lines(capsys):
    status, lines = run_cli(capsys, "demo-regimes")
    assert status == 0
    assert lines == ["LAZY: 1", "EAGER: Cast has failed"]


def test_cli_subprocess_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "gradcast", "check", "2-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Some (0 :: nil) = Some (1 :: nil)" in proc.stdout


def test_cli_rejects_unknown_strategy():
    # argparse refuses an unknown choice and an unknown option alike
    for argv in (["rat", "+", "1", "2", "--strategy", "magic"], ["demo-regimes", "--value", "1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_check_numeral_over_int_digit_limit_is_a_parse_error(capsys):
    status, lines = run_cli(capsys, "check", "9" * 5000)
    assert status == 2
    assert lines == ["PARSE_ERROR offset=1 numeral of 5000 digits is too long"]


def test_rat_numeral_over_int_digit_limit_is_a_usage_error(capsys):
    status, lines = run_cli(capsys, "rat", "+", "9" * 5000, "1")
    assert status == 2
    assert lines == ["USAGE_ERROR top or bottom exceeds the integer digit limit"]


def test_check_accepts_deeply_nested_parentheses(capsys):
    status, lines = run_cli(capsys, "check", "(" * 3000 + "2" + ")" * 3000)
    assert status == 0
    assert lines == ["RESULT 2"]


def test_check_fixed_accepts_a_long_left_nested_sum(capsys):
    expr = "+".join(["1"] * 5000)
    status, lines = run_cli(capsys, "check", expr, "--compiler", "fixed")
    assert status == 0
    assert lines == ["RESULT 5000"]


# 3000 nines: the operands parse, but a product has more digits than an int
# may render as text.
HUGE = "9" * 3000


def test_check_result_over_int_digit_limit_is_a_limit_error(capsys):
    status, lines = run_cli(capsys, "check", f"{HUGE}*{HUGE}")
    assert status == 2
    assert lines == ["LIMIT_ERROR result exceeds the integer digit limit"]


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_check_failed_cast_over_int_digit_limit_is_a_limit_error(capsys, mode):
    status, lines = run_cli(
        capsys, "check", f"{HUGE}*{HUGE}-1", "--compiler", "buggy", "--mode", mode
    )
    assert status == 2
    assert lines == ["LIMIT_ERROR result exceeds the integer digit limit"]


@pytest.mark.parametrize("strategy", [IrredStrategy.BOUNDED, IrredStrategy.BINARY_BOUNDED])
def test_bounded_strategies_refuse_values_over_their_ceiling(capsys, strategy):
    ceiling, strategy = BOUNDED_CEILINGS[strategy], strategy.value
    for top, bottom in ((ceiling + 1, 1), (1, ceiling + 1), (3000, 3001)):
        status, lines = run_cli(capsys, "rat", "+", str(top), str(bottom), "--strategy", strategy)
        assert status == 2
        assert lines == [f"LIMIT_ERROR strategy {strategy} takes top and bottom up to {ceiling}"]
    status, lines = run_cli(capsys, "rat", "+", "6", str(ceiling), "--strategy", strategy)
    assert status in (0, 1) and lines[0].startswith(("RAT", "FAILED_CAST"))


def test_rat_time_skips_strategies_over_their_ceiling(capsys):
    status, lines = run_cli(capsys, "rat", "+", "3000", "3001", "--time")
    assert status == 0
    assert lines[:3] == [
        "RAT sign=+ top=3000 bottom=3001",
        f"TIME bounded skipped: top or bottom exceeds {BOUNDED_CEILINGS[IrredStrategy.BOUNDED]}",
        "TIME binary skipped: top or bottom exceeds "
        f"{BOUNDED_CEILINGS[IrredStrategy.BINARY_BOUNDED]}",
    ]
    assert lines[3].startswith("TIME gcd ") and len(lines) == 4

    status, lines = run_cli(capsys, "rat", "+", "300", "301", "--time")
    assert lines[1].startswith("TIME bounded skipped: ")
    assert [line.split()[1] for line in lines[2:]] == ["binary", "gcd"]
    assert all(float(line.split()[2]) >= 0 for line in lines[2:])


def test_unexpected_exception_is_a_one_line_exit_two(capsys, monkeypatch):
    def broken(*_args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", broken)
    status, lines = run_cli(capsys, "check", "1")
    assert status == 2
    assert lines == ["INTERNAL_ERROR RuntimeError first line second line"]


def test_a_value_error_in_check_that_is_no_limit_error_is_an_internal_error(capsys, monkeypatch):
    def broken(*_args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "runc", broken)
    assert run_cli(capsys, "check", "1") == (2, ["INTERNAL_ERROR ValueError boom"])


# Lines that CI's install step compares on the installed console script, byte for byte.
@pytest.mark.parametrize(
    ("argv", "status", "line"),
    [
        (("check", "256-1"), 1, "FAILED_CAST value=iConst 256 :: iConst 1 :: iBinop Minus :: nil "
         "prop=Some (0 :: nil) = Some (255 :: nil)"),
        (("check", "257-1"), 1, "FAILED_CAST value=iConst 257 :: iConst 1 :: iBinop Minus :: nil "
         "prop=Some (0 :: nil) = Some (256 :: nil)"),
        (("check", "256-255"), 1, "FAILED_CAST value=iConst 256 :: iConst 255 :: iBinop Minus "
         ":: nil prop=Some (0 :: nil) = Some (1 :: nil)"),
        (("check", "256*256+255", "--compiler", "fixed"), 0, "RESULT 65791"),
        (("check", "12 34"), 2, "PARSE_ERROR offset=4 unexpected character '3'"),
        (("rat", "+", "400", "0", "--strategy", "bounded"), 2,
         "LIMIT_ERROR strategy bounded takes top and bottom up to 90"),
    ],
    ids=["check-256-1", "check-257-1", "check-256-255", "check-65791-fixed", "check-12-34",
         "rat-400-0-bounded"],
)
def test_the_ci_golden_lines(capsys, argv, status, line):
    assert main(list(argv)) == status
    assert capsys.readouterr().out == f"{line}\n"


def test_cast_fault_reaching_main_is_one_failed_cast_line(capsys, monkeypatch):
    def faulting(*_args):
        raise CastFault("v", "p")

    monkeypatch.setattr(cli, "cmd_check", faulting)
    status = main(["check", "1"])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (1, "FAILED_CAST value=v prop=p\n", "")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=12))
def test_bench_median_is_statistics_median(samples):
    # Each repetition reads the clock twice: 0.0, then the sample.
    ticks = iter([tick for sample in samples for tick in (0.0, sample)])
    with mock.patch.object(cli, "time", SimpleNamespace(perf_counter=ticks.__next__)):
        report = bench_strategies(5, 6, len(samples), [IrredStrategy.GCD])
    assert report[IrredStrategy.GCD] == statistics.median(samples)


_WORDS = st.sampled_from(
    ["check", "rat", "demo-regimes", "--mode", "lazy", "eager", "--compiler", "buggy",
     "fixed", "--strategy", "bounded", "binary", "gcd", "--time", "--value", "+", "-",
     "-h", "--", "2-1", "(2+2)*3", "1 2", "0", "3000", "3001", "9" * 5000, "-1"]
)
# Products of up to 100 factors, each N or (1-N) for N of up to 4300 nines: each
# is evaluated, and a result past the digit limit is refused where it is rendered.
_NINES = st.integers(1, 4300).map(lambda digits: "9" * digits)
_PRODUCTS = st.builds(
    lambda factor, n: "*".join([factor] * n),
    _NINES | _NINES.map(lambda nines: f"(1-{nines})"),
    st.integers(1, 100),
)
_ARGS = st.one_of(_WORDS, _WORDS, st.integers(0, 40).map(str), st.text(max_size=8), _PRODUCTS)
_ARGVS = st.one_of(
    st.lists(_ARGS, max_size=7), st.lists(_ARGS, max_size=6).map(lambda rest: ["check", *rest])
)


@settings(max_examples=300, deadline=None)
@given(_ARGVS)
def test_main_is_total_over_arbitrary_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exit_:  # argparse: usage error or --help
            status = exit_.code
    assert status in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    first = (out.getvalue().splitlines() or [""])[0]
    assert (status == 1) == first.startswith("FAILED_CAST ")
    if status == 2:
        errors = ("USAGE_ERROR ", "PARSE_ERROR ", "LIMIT_ERROR ", "INTERNAL_ERROR ")
        assert first.startswith(errors) or (first == "" and "error: " in err.getvalue())
    if status == 0:
        assert first.startswith(("RESULT ", "RAT ", "LAZY: ", "usage: "))
    if argv[:1] == ["check"] and re.fullmatch(r"9+(\*9+)*", (argv + [""])[1]):
        assert status in (0, 2)  # a product of naturals never fails a cast


IRREDUCIBILITY_5_10 = "forall x y z, y * x = 5 /\\ z * x = 10 -> 1 = x"


@pytest.mark.parametrize("strategy", ["bounded", "binary", "gcd"])
@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_rat_failed_cast_line_is_pinned(capsys, mode, strategy):
    status, lines = run_cli(capsys, "rat", "+", "5", "10", "--mode", mode, "--strategy", strategy)
    assert status == 1
    assert lines == [f"FAILED_CAST value=mkRat true 5 10 prop={IRREDUCIBILITY_5_10}"]


@pytest.mark.parametrize("command", ["check", "rat"])
def test_mode_and_strategy_choices_keep_their_order(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert ["--mode", "{lazy,eager}"] in options
    assert (["--strategy", "{binary,bounded,gcd}"] in options) == (command == "rat")


@pytest.mark.parametrize("variant", list(COMPILERS))
def test_check_answers_the_longest_product_an_argument_can_hold_in_under_a_second(
    capsys, variant
):
    # Linux caps one argument at 128 KiB: 30 numerals of 4,300 nines fit, 31 do
    # not.  Nothing is refused before evaluating, so this is the most work one
    # `check` can be asked for.
    expr = "*".join(["9" * 4300] * 30)
    started = time.perf_counter()
    status, lines = run_cli(capsys, "check", expr, "--compiler", variant)
    assert time.perf_counter() - started < 1
    assert (status, lines) == (2, ["LIMIT_ERROR result exceeds the integer digit limit"])


BIG = "9" * 2200


@pytest.mark.parametrize(
    ("expr", "variant", "status", "line"),
    [
        (f"{BIG}*{BIG}-{BIG}*{BIG}", "fixed", 0, "RESULT 0"),
        (f"{BIG}*{BIG}-{BIG}*{BIG}", "buggy", 0, "RESULT 0"),
        (f"1-{BIG}*{BIG}", "fixed", 0, "RESULT 0"),
        (f"1-{BIG}*{BIG}", "buggy", 2, "LIMIT_ERROR result exceeds the integer digit limit"),
    ],
    ids=["N*N-N*N-fixed", "N*N-N*N-buggy", "1-N*N-fixed", "1-N*N-buggy"],
)
@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_check_computes_intermediates_past_the_limit_and_renders_only_what_it_prints(
    capsys, expr, variant, status, line, mode
):
    # N*N has 4,400 digits.  Each result is 0, except under the buggy compiler,
    # which computes N*N-1 for 1-N*N, and its failed check cannot render that.
    got = run_cli(capsys, "check", expr, "--compiler", variant, "--mode", mode)
    assert got == (status, [line])


def test_check_computes_values_within_the_ceiling(capsys):
    nines = "9" * 2149
    status, lines = run_cli(capsys, "check", f"{nines}*{nines}-{nines}*{nines}+7")
    assert (status, lines) == (0, ["RESULT 7"])


@pytest.mark.parametrize("variant", list(COMPILERS))
def test_compiler_option_takes_every_compiler_variant(capsys, variant):
    assert cli.build_parser().parse_args(["check", "2+2"]).compiler == "buggy"
    status, lines = run_cli(capsys, "check", "(2+2)*3", "--compiler", variant)
    assert (status, lines) == (0, ["RESULT 12"])
    with pytest.raises(SystemExit):
        main(["check", "2+2", "--compiler", variant + "x"])
    assert "invalid choice" in capsys.readouterr().err
