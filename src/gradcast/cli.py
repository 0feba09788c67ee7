"""Command-line front end for the demos: :func:`build_parser`'s help texts
describe its subcommands ``check``, ``rat`` and ``demo-regimes``.

Exit codes: 0 success, 1 cast failure, 2 usage, parse or limit error: a
numeral longer than Python's integer digit limit, or a ``LimitError`` from the
library, which holds the limits and raises one for a ``check`` result past the digit limit.
Both regimes share one failure path: ``rat`` forces its cast with ``proj1``, so
``--time`` prints its ``TIME`` lines after a failed cast, lazy or eager; a zero
bottom times nothing, as the deciders need a nonzero one.  A ``CastFault`` reaching
``main`` from any command prints ``FAILED_CAST`` with exit 1.  Any other exception
ends as a one-line ``INTERNAL_ERROR`` with exit 2; output is line-oriented ASCII.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, Iterable, Optional

from .casts import CastFault, FailureMode, LimitError, proj1
from .compiler import COMPILERS, ParseError, checked_compile, parse_exp, runc
from .hocasts import cast_fun_dom
from .instances import Nat, check_nat, pred_gt_const
from .rationals import BOUNDED_CEILINGS, IrredStrategy, _require_nonzero_bottom, cast_rat
from .render import _show_int

_BENCH_REPETITIONS = 5
_FAILED_CAST = "FAILED_CAST value={0.value_text} prop={0.prop_text}"  # of a CastFault


def bench_strategies(
    top: Nat,
    bottom: Nat,
    repetitions: int,
    strategies: Iterable[IrredStrategy] = tuple(IrredStrategy),
) -> Dict[IrredStrategy, float]:
    """Time ``cast_rat`` under each of ``strategies`` (all by default) and
    return the median seconds per strategy; measurement only, no assertions."""
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    medians: Dict[IrredStrategy, float] = {}
    for strategy in strategies:
        samples = []
        for _ in range(repetitions):
            started = time.perf_counter()
            cast_rat(True, top, bottom, strategy=strategy, mode=FailureMode.LAZY)
            samples.append(time.perf_counter() - started)
        samples.sort()  # statistics.median's value, without importing statistics
        medians[strategy] = (samples[(repetitions - 1) // 2] + samples[repetitions // 2]) / 2
    return medians


def cmd_check(expr_src: str, variant: str, mode: FailureMode) -> int:
    try:  # a CastFault is main's to report
        line = f"RESULT {_show_int(runc(checked_compile(variant, mode), parse_exp(expr_src))[0])}"
    except ParseError as err:
        print(f"PARSE_ERROR offset={err.offset} {err.reason}")
        return 2
    except LimitError:
        print("LIMIT_ERROR result exceeds the integer digit limit")
        return 2
    print(line)
    return 0


def cmd_rat(
    sign: str,
    top: str,
    bottom: str,
    strategy: IrredStrategy,
    mode: FailureMode,
    time_strategies: bool = False,
) -> int:
    if sign not in {"+", "-"}:
        print(f"USAGE_ERROR sign must be '+' or '-', got {sign!r}")
        return 2
    if not (top.isascii() and top.isdigit() and bottom.isascii() and bottom.isdigit()):
        print("USAGE_ERROR top and bottom must be decimal naturals")
        return 2
    try:
        top_n, bottom_n = int(top), int(bottom)
    except ValueError:
        print("USAGE_ERROR top or bottom exceeds the integer digit limit")
        return 2
    try:  # both regimes fault here: eager at the cast, lazy at proj1
        rat = proj1(cast_rat(sign == "+", top_n, bottom_n, strategy, mode))
    except LimitError as err:
        print(f"LIMIT_ERROR {err}")
        return 2
    except CastFault as fault:
        print(_FAILED_CAST.format(fault))
        status = 1
    else:
        print(f"RAT sign={sign} top={rat.top} bottom={rat.bottom}")
        status = 0
    if time_strategies and bottom_n != 0:
        for each in IrredStrategy:
            try:  # cast_rat checks the ceiling before the first timed cast does any work
                median = bench_strategies(top_n, bottom_n, _BENCH_REPETITIONS, [each])[each]
            except LimitError:
                print(f"TIME {each.value} skipped: top or bottom exceeds {BOUNDED_CEILINGS[each]}")
            else:
                print(f"TIME {each.value} {median:.6f}")
    return status


def cmd_demo_regimes() -> int:
    """Run a function that ignores its argument through a domain cast at 0,
    which violates the precondition, once per failure regime."""
    for mode in FailureMode:
        try:
            print(f"{mode.name}: {cast_fun_dom(pred_gt_const(0), lambda _: 1, mode)(0)}")
        except CastFault as fault:
            print(f"{mode.name}: {fault.message}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcast",
        description="Runtime-checked refinement casts: demo commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [mode.value for mode in FailureMode]

    check = sub.add_parser("check",
                           help="compile an expression with a checked compiler and run it")
    check.add_argument("expr", help="arithmetic expression, e.g. '(2+2)*3'")
    check.add_argument("--compiler", choices=list(COMPILERS), default="buggy")
    check.add_argument("--mode", choices=modes, default="lazy")

    rat = sub.add_parser("rat", help="cast a fraction into a checked rational")
    rat.add_argument("sign", help="'+' or '-'")
    rat.add_argument("top", help="numerator (decimal natural)")
    rat.add_argument("bottom", help="denominator (decimal natural)")
    rat.add_argument("--strategy", choices=sorted(s.value for s in IrredStrategy), default="gcd")
    rat.add_argument("--mode", choices=modes, default="lazy")
    rat.add_argument("--time", action="store_true", dest="time_strategies",
                     help="also print median wall time per strategy")

    sub.add_parser("demo-regimes", help="contrast lazy and eager failure on an ignored argument")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.expr, args.compiler, FailureMode(args.mode))
        if args.command == "rat":
            strategy, mode = IrredStrategy(args.strategy), FailureMode(args.mode)
            return cmd_rat(args.sign, args.top, args.bottom, strategy, mode, args.time_strategies)
        return cmd_demo_regimes()
    except CastFault as fault:
        print(_FAILED_CAST.format(fault))
        return 1
    except Exception as err:  # noqa: BLE001 - the boundary: no traceback reaches the user
        detail = " ".join(str(err).split())  # one line, whatever the message
        print(f"INTERNAL_ERROR {type(err).__name__} {detail}".rstrip())
        return 2


def run() -> None:
    raise SystemExit(main())
