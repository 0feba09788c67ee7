import contextlib
import io
import re
import statistics
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cli_goldens
import gradcast.cli as cli
from cli_goldens import ROWS, Row, mismatch, shown
from gradcast.casts import CastFault
from gradcast.cli import bench_strategies, main
from gradcast.compiler import COMPILERS
from gradcast.rationals import IrredStrategy


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out.splitlines()


@pytest.mark.parametrize("row", ROWS, ids=[shown(row.argv) for row in ROWS])
def test_golden_row(capsys, row):
    try:
        status = main(list(row.argv))
    except SystemExit as exit_:  # argparse: an unknown choice or option
        status = exit_.code
    assert mismatch(row, status, capsys.readouterr().out) == ""


# A failed cast, a non-ASCII argument, TIME lines and an argparse usage error
_THROUGH_A_PROCESS = [
    ("check", "2-1"), ("check", "1+2\xa0"), ("rat", "+", "5", "10", "--mode", "eager", "--time"),
    ("demo-regimes", "--value", "1"),
]


def test_golden_rows_through_python_m_gradcast():
    rows = [row for row in ROWS if row.argv in _THROUGH_A_PROCESS]
    assert len(rows) == len(_THROUGH_A_PROCESS)
    assert cli_goldens.run([sys.executable, "-m", "gradcast"], rows) == []


def test_the_comparison_masks_only_the_seconds_of_a_time_line():
    row = Row(("rat",), 0, "RAT\nTIME gcd <s>\n")
    assert mismatch(row, 0, "RAT\nTIME gcd 0.000003\n") == ""
    assert mismatch(row, 1, "RAT\nTIME gcd 0.000003\n") == "exit 1, expected 0"
    assert mismatch(row, 0, "RAT\nTIME gcd skipped\n") == (
        "line 2 differs at column 10: got 'TIME gcd skipped\\n', expected 'TIME gcd <s>\\n'"
    )
    assert mismatch(row, 0, "RAT\nTIME gcd 0.1\nTIME gcd 0.2\n").startswith("line 3 differs")


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


@pytest.mark.parametrize("variant", list(COMPILERS))
def test_compiler_option_takes_every_compiler_variant(capsys, variant):
    assert cli.build_parser().parse_args(["check", "2+2"]).compiler == "buggy"
    status, lines = run_cli(capsys, "check", "(2+2)*3", "--compiler", variant)
    assert (status, lines) == (0, ["RESULT 12"])
    with pytest.raises(SystemExit):
        main(["check", "2+2", "--compiler", variant + "x"])
    assert "invalid choice" in capsys.readouterr().err
