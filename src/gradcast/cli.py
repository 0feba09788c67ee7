"""Command-line front end for the demos.

Three subcommands:

* ``check EXPR`` compiles an arithmetic expression with a runtime-checked
  compiler and runs the result.
* ``rat SIGN TOP BOTTOM`` casts a fraction into a checked rational, optionally
  timing the three irreducibility strategies.
* ``demo-regimes`` shows the lazy/eager difference on a function that ignores
  its (invalid) argument.

Exit codes: 0 success, 1 cast failure, 2 usage, parse or limit error: a
numeral or a ``check`` result longer than Python's integer digit limit.  Cast
faults are caught here and nowhere else; output is line-oriented ASCII.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, TextIO

from .casts import CastFault, FailureMode
from .compiler import ParseError, checked_compile, parse_exp, runc
from .hocasts import cast_fun_dom
from .instances import pred_gt_const
from .rationals import (
    AttestedRat,
    IrredStrategy,
    bench_strategies,
    cast_rat,
)

_MODES = {"lazy": FailureMode.LAZY, "eager": FailureMode.EAGER}
_STRATEGIES = {
    "bounded": IrredStrategy.BOUNDED,
    "binary": IrredStrategy.BINARY_BOUNDED,
    "gcd": IrredStrategy.GCD,
}
_BENCH_REPETITIONS = 5


@dataclass
class CliConfig:
    mode: FailureMode = FailureMode.LAZY
    compiler_variant: str = "buggy"
    strategy: IrredStrategy = IrredStrategy.GCD
    output: Optional[TextIO] = None

    def emit(self, line: str) -> None:
        print(line, file=self.output if self.output is not None else sys.stdout)


def cmd_check(expr_src: str, config: CliConfig) -> int:
    try:
        exp = parse_exp(expr_src)
    except ParseError as err:
        config.emit(f"PARSE_ERROR offset={err.offset} {err.reason}")
        return 2
    compiler = checked_compile(config.compiler_variant, config.mode)
    try:
        line = f"RESULT {runc(compiler, exp)[0]}"
    except CastFault as fault:
        config.emit(f"FAILED_CAST value={fault.value_text} prop={fault.prop_text}")
        return 1
    except ValueError:  # parsed input is natural: only int-to-text past the digit limit
        config.emit("LIMIT_ERROR result exceeds the integer digit limit")
        return 2
    config.emit(line)
    return 0


def cmd_rat(
    sign: str, top: str, bottom: str, config: CliConfig, time_strategies: bool = False
) -> int:
    if sign not in {"+", "-"}:
        config.emit(f"USAGE_ERROR sign must be '+' or '-', got {sign!r}")
        return 2
    if not (top.isascii() and top.isdigit() and bottom.isascii() and bottom.isdigit()):
        config.emit("USAGE_ERROR top and bottom must be decimal naturals")
        return 2
    try:
        top_n, bottom_n = int(top), int(bottom)
    except ValueError:
        config.emit("USAGE_ERROR top or bottom exceeds the integer digit limit")
        return 2
    try:
        refined = cast_rat(
            sign == "+", top_n, bottom_n, strategy=config.strategy, mode=config.mode
        )
    except CastFault as fault:
        config.emit(f"FAILED_CAST value={fault.value_text} prop={fault.prop_text}")
        return 1
    if isinstance(refined, AttestedRat):
        config.emit(f"RAT sign={sign} top={refined.top} bottom={refined.bottom}")
        status = 0
    else:
        config.emit(f"FAILED_CAST value={refined.value_text} prop={refined.violated}")
        status = 1
    if time_strategies and bottom_n != 0:
        report = bench_strategies(top_n, bottom_n, _BENCH_REPETITIONS)
        for strategy in IrredStrategy:
            config.emit(f"TIME {strategy.value} {report.medians[strategy]:.6f}")
    return status


def cmd_demo_regimes(config: CliConfig, probe_value: int = 0) -> int:
    """Run a function that ignores its argument through a domain cast at an
    argument violating the precondition, once per failure regime."""
    if probe_value < 0:
        config.emit(f"USAGE_ERROR --value must be a natural number, got {probe_value}")
        return 2

    def ignore_argument(_refined: object) -> int:
        return 1

    lazily = cast_fun_dom(pred_gt_const(0), ignore_argument, FailureMode.LAZY)
    config.emit(f"LAZY: {lazily(probe_value)}")
    eagerly = cast_fun_dom(pred_gt_const(0), ignore_argument, FailureMode.EAGER)
    try:
        config.emit(f"EAGER: {eagerly(probe_value)}")
    except CastFault as fault:
        config.emit(f"EAGER: {fault.message}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcast",
        description="Runtime-checked refinement casts: demo commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="compile an expression with a checked compiler and run it"
    )
    check.add_argument("expr", help="arithmetic expression, e.g. '(2+2)*3'")
    check.add_argument("--compiler", choices=["buggy", "fixed"], default="buggy")
    check.add_argument("--mode", choices=["lazy", "eager"], default="lazy")

    rat = sub.add_parser("rat", help="cast a fraction into a checked rational")
    rat.add_argument("sign", help="'+' or '-'")
    rat.add_argument("top", help="numerator (decimal natural)")
    rat.add_argument("bottom", help="denominator (decimal natural)")
    rat.add_argument("--strategy", choices=sorted(_STRATEGIES), default="gcd")
    rat.add_argument("--mode", choices=["lazy", "eager"], default="lazy")
    rat.add_argument(
        "--time",
        action="store_true",
        dest="time_strategies",
        help="also print median wall time per strategy",
    )

    demo = sub.add_parser(
        "demo-regimes", help="contrast lazy and eager failure on an ignored argument"
    )
    demo.add_argument("--value", type=int, default=0, help=argparse.SUPPRESS)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = CliConfig(
        mode=_MODES[getattr(args, "mode", "lazy")],
        compiler_variant=getattr(args, "compiler", "buggy"),
        strategy=_STRATEGIES[getattr(args, "strategy", "gcd")],
    )
    if args.command == "check":
        return cmd_check(args.expr, config)
    if args.command == "rat":
        return cmd_rat(args.sign, args.top, args.bottom, config, args.time_strategies)
    return cmd_demo_regimes(config, probe_value=args.value)


def run() -> None:
    raise SystemExit(main())
