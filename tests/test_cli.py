import subprocess
import sys

import pytest

from gradcast.cli import main


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


def test_rat_zero_bottom_names_bottom_condition(capsys):
    status, lines = run_cli(capsys, "rat", "+", "1", "0")
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


def test_demo_regimes_valid_argument(capsys):
    status, lines = run_cli(capsys, "demo-regimes", "--value", "1")
    assert status == 0
    assert lines == ["LAZY: 1", "EAGER: 1"]


def test_cli_subprocess_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "gradcast", "check", "2-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Some (0 :: nil) = Some (1 :: nil)" in proc.stdout


def test_cli_rejects_unknown_strategy():
    with pytest.raises(SystemExit) as excinfo:
        main(["rat", "+", "1", "2", "--strategy", "magic"])
    assert excinfo.value.code == 2


def test_check_numeral_over_int_digit_limit_is_a_parse_error(capsys):
    status, lines = run_cli(capsys, "check", "9" * 5000)
    assert status == 2
    assert lines == ["PARSE_ERROR offset=1 numeral of 5000 digits is too long"]


def test_rat_numeral_over_int_digit_limit_is_a_usage_error(capsys):
    status, lines = run_cli(capsys, "rat", "+", "9" * 5000, "1")
    assert status == 2
    assert lines == ["USAGE_ERROR top or bottom exceeds the integer digit limit"]


def test_demo_regimes_negative_value_is_a_usage_error(capsys):
    status, lines = run_cli(capsys, "demo-regimes", "--value", "-1")
    assert status == 2
    assert lines == ["USAGE_ERROR --value must be a natural number, got -1"]


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
