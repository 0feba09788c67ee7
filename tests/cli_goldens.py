"""The CLI's output contract: one row per ``gradcast`` run, each holding the
argv, the exit status and the exact stdout.

One comparison rule holds everywhere (:func:`mismatch`): the status and stdout
must match exactly, except that a ``TIME <name> <seconds>`` line is compared
with its seconds masked as ``<s>``.  Rows pin no stderr and no ``--help``
text, whose layout differs across Python versions.  Long arguments and long
outputs are named expressions below, not inline text.

``tests/test_cli.py`` runs every row in-process through ``gradcast.cli.main``
and a few through ``python -m gradcast``.  Run as a script, this module runs
every row through the command given as its arguments, prints each row's
status, argv and stdout (the first 80 characters of each), and exits 1 naming
each row that does not match::

    python tests/cli_goldens.py gradcast                # the installed console script
    python tests/cli_goldens.py python -m gradcast      # with src/ on PYTHONPATH
"""

import re
import subprocess
import sys
from typing import NamedTuple, Sequence

RIGHT_CHAIN = "1-(" * 5000 + "1" + ")" * 5000  # 1-(1-(...(1)...)), 5,000 deep
LEFT_CHAIN = "(" * 5000 + "9999" + "-1)" * 5000  # ((...(9999-1)...)-1), 5,000 deep
RIGHT_CHAIN_FAILED = (  # the buggy compiler's stack for RIGHT_CHAIN
    "FAILED_CAST value=" + "iConst 1 :: " * 5001 + "iBinop Minus :: " * 5000
    + "nil prop=Some (0 :: nil) = Some (1 :: nil)\n"
)
LEFT_CHAIN_FAILED = (
    "FAILED_CAST value=iConst 9999 :: " + "iConst 1 :: iBinop Minus :: " * 5000
    + "nil prop=Some (1 :: nil) = Some (4999 :: nil)\n"
)
DEEP_PARENS = "(" * 3000 + "2" + ")" * 3000
LONG_SUM = "+".join(["1"] * 5000)  # left-nested, 5,000 leaves
TOO_LONG = "9" * 5000  # a numeral past the default digit limit of 4,300
N = "9" * 2200  # N*N has 4,400 digits
HUGE = "9" * 3000  # parses, but HUGE*HUGE cannot be shown as text
WITHIN = "9" * 2149  # WITHIN*WITHIN has 4,298 digits
PRODUCT = f"{2**7143 - 1}*{2**7142 - 1}-1"  # has 4,301 digits
LIMIT = "LIMIT_ERROR result exceeds the integer digit limit\n"
FAILED_5_10 = (
    "FAILED_CAST value=mkRat true 5 10 prop=forall x y z, y * x = 5 /\\ z * x = 10 -> 1 = x\n"
)
TIMES = "TIME bounded <s>\nTIME binary <s>\nTIME gcd <s>\n"
MODES = ("lazy", "eager")
STRATEGIES = ("bounded", "binary", "gcd")


class Row(NamedTuple):
    argv: tuple[str, ...]
    status: int
    stdout: str


ROWS = [
    Row(("check", "2+2"), 0, "RESULT 4\n"),
    Row(("check", "2+2", "--compiler", "buggy"), 0, "RESULT 4\n"),
    Row(("check", "2-1"), 1, "FAILED_CAST value=iConst 2 :: iConst 1 :: iBinop Minus :: nil "
        "prop=Some (0 :: nil) = Some (1 :: nil)\n"),
    Row(("check", "2-1", "--compiler", "buggy"), 1, "FAILED_CAST value=iConst 2 :: iConst 1 :: "
        "iBinop Minus :: nil prop=Some (0 :: nil) = Some (1 :: nil)\n"),
    Row(("check", "2-1", "--mode", "eager"), 1, "FAILED_CAST value=iConst 2 :: iConst 1 :: "
        "iBinop Minus :: nil prop=Some (0 :: nil) = Some (1 :: nil)\n"),
    Row(("check", "2-1", "--compiler", "fixed"), 0, "RESULT 1\n"),
    *(Row(("check", "(3-1)*4+2", "--compiler", "fixed", "--mode", mode), 0, "RESULT 10\n")
      for mode in MODES),
    *(Row(("check", "1-2", "--compiler", "fixed", "--mode", mode), 0, "RESULT 0\n")
      for mode in MODES),
    # stack values on both sides of the 0-255 text table
    Row(("check", "256*256+255", "--compiler", "fixed"), 0, "RESULT 65791\n"),
    Row(("check", "256-255"), 1, "FAILED_CAST value=iConst 256 :: iConst 255 :: iBinop Minus "
        ":: nil prop=Some (0 :: nil) = Some (1 :: nil)\n"),
    Row(("check", "256-1"), 1, "FAILED_CAST value=iConst 256 :: iConst 1 :: iBinop Minus :: nil "
        "prop=Some (0 :: nil) = Some (255 :: nil)\n"),
    Row(("check", "257-1"), 1, "FAILED_CAST value=iConst 257 :: iConst 1 :: iBinop Minus :: nil "
        "prop=Some (0 :: nil) = Some (256 :: nil)\n"),
    # any nesting depth
    *(row for mode in MODES for row in (
        Row(("check", RIGHT_CHAIN, "--compiler", "fixed", "--mode", mode), 0, "RESULT 1\n"),
        Row(("check", LEFT_CHAIN, "--compiler", "fixed", "--mode", mode), 0, "RESULT 4999\n"),
        Row(("check", RIGHT_CHAIN, "--mode", mode), 1, RIGHT_CHAIN_FAILED),
        Row(("check", LEFT_CHAIN, "--mode", mode), 1, LEFT_CHAIN_FAILED),
    )),
    Row(("check", DEEP_PARENS), 0, "RESULT 2\n"),
    Row(("check", LONG_SUM, "--compiler", "fixed"), 0, "RESULT 5000\n"),
    # parse errors: the offset is 1-based
    Row(("check", "2 + "), 2, "PARSE_ERROR offset=5 expected a number or '('\n"),
    Row(("check", "12 34"), 2, "PARSE_ERROR offset=4 unexpected character '3'\n"),
    Row(("check", "1+2\xa0"), 2, "PARSE_ERROR offset=4 unexpected character '\\xa0'\n"),
    Row(("check", TOO_LONG), 2, "PARSE_ERROR offset=1 numeral of 5000 digits is too long\n"),
    # every intermediate value is computed; only what is printed must fit the digit limit
    Row(("check", f"{HUGE}*{HUGE}"), 2, LIMIT),
    *(Row(("check", f"{HUGE}*{HUGE}-1", "--compiler", "buggy", "--mode", mode), 2, LIMIT)
      for mode in MODES),
    Row(("check", PRODUCT), 2, LIMIT),
    Row(("check", f"(1-{N})*(1-{N})", "--compiler", "fixed"), 0, "RESULT 0\n"),
    Row(("check", f"(1-{N})*(1-{N})", "--compiler", "buggy"), 2, LIMIT),
    *(row for mode in MODES for row in (
        Row(("check", f"{N}*{N}-{N}*{N}", "--compiler", "fixed", "--mode", mode), 0, "RESULT 0\n"),
        Row(("check", f"{N}*{N}-{N}*{N}", "--compiler", "buggy", "--mode", mode), 0, "RESULT 0\n"),
        Row(("check", f"1-{N}*{N}", "--compiler", "fixed", "--mode", mode), 0, "RESULT 0\n"),
        Row(("check", f"1-{N}*{N}", "--compiler", "buggy", "--mode", mode), 2, LIMIT),
    )),
    Row(("check", f"{WITHIN}*{WITHIN}-{WITHIN}*{WITHIN}+7"), 0, "RESULT 7\n"),
    Row(("rat", "+", "5", "6"), 0, "RAT sign=+ top=5 bottom=6\n"),
    *(Row(("rat", "-", "3", "4", "--strategy", strategy), 0, "RAT sign=- top=3 bottom=4\n")
      for strategy in STRATEGIES),
    *(Row(("rat", "-", "5", "6", "--strategy", strategy), 0, "RAT sign=- top=5 bottom=6\n")
      for strategy in STRATEGIES),
    Row(("rat", "+", "0", "1", "--mode", "eager"), 0, "RAT sign=+ top=0 bottom=1\n"),
    Row(("rat", "+", "5", "10"), 1, FAILED_5_10),
    Row(("rat", "+", "5", "10", "--mode", "eager"), 1, FAILED_5_10),
    *(Row(("rat", "+", "5", "10", "--strategy", strategy), 1, FAILED_5_10)
      for strategy in STRATEGIES),
    *(Row(("rat", "+", "5", "10", "--mode", mode, "--strategy", strategy), 1, FAILED_5_10)
      for mode in MODES for strategy in STRATEGIES),
    Row(("rat", "+", "1", "0"), 1, "FAILED_CAST value=mkRat true 1 0 prop=0 <> 0\n"),
    # --time prints its TIME lines after a failed cast too, but a zero bottom times nothing
    Row(("rat", "+", "5", "10", "--time"), 1, FAILED_5_10 + TIMES),
    *(Row(("rat", "+", "5", "10", "--time", "--mode", mode), 1, FAILED_5_10 + TIMES)
      for mode in MODES),
    Row(("rat", "+", "5", "10", "--mode", "eager", "--time"), 1, FAILED_5_10 + TIMES),
    *(Row(("rat", "+", "1", "0", "--time", "--mode", mode), 1,
          "FAILED_CAST value=mkRat true 1 0 prop=0 <> 0\n") for mode in MODES),
    # the bounded strategies' ceilings: 90 bounded, 2000 binary
    *(Row(("rat", "+", top, bottom, "--strategy", "bounded"), 2,
          "LIMIT_ERROR strategy bounded takes top and bottom up to 90\n")
      for top, bottom in (("91", "1"), ("1", "91"), ("3000", "3001"), ("400", "0"))),
    # a top at the ceiling is accepted, and then the zero bottom refused without enumerating
    *(Row(("rat", "+", top, "0", "--strategy", strategy), 1,
          f"FAILED_CAST value=mkRat true {top} 0 prop=0 <> 0\n")
      for top, strategy in (("90", "bounded"), ("2000", "binary"))),
    Row(("rat", "+", "6", "90", "--strategy", "bounded"), 1,
        "FAILED_CAST value=mkRat true 6 90 prop=forall x y z, y * x = 6 /\\ z * x = 90 -> 1 = x\n"),
    *(Row(("rat", "+", top, bottom, "--strategy", "binary"), 2,
          "LIMIT_ERROR strategy binary takes top and bottom up to 2000\n")
      for top, bottom in (("2001", "1"), ("1", "2001"), ("3000", "3001"))),
    Row(("rat", "+", "6", "2000", "--strategy", "binary"), 1, "FAILED_CAST value=mkRat true "
        "6 2000 prop=forall x y z, y * x = 6 /\\ z * x = 2000 -> 1 = x\n"),
    Row(("rat", "+", "300", "301", "--time"), 0, "RAT sign=+ top=300 bottom=301\n"
        "TIME bounded skipped: top or bottom exceeds 90\nTIME binary <s>\nTIME gcd <s>\n"),
    Row(("rat", "+", "3000", "3001", "--time"), 0, "RAT sign=+ top=3000 bottom=3001\n"
        "TIME bounded skipped: top or bottom exceeds 90\n"
        "TIME binary skipped: top or bottom exceeds 2000\nTIME gcd <s>\n"),
    # usage errors; argparse's own (an unknown choice or option) print nothing on stdout
    Row(("rat", "x", "5", "6"), 2, "USAGE_ERROR sign must be '+' or '-', got 'x'\n"),
    Row(("rat", "+", "five", "6"), 2, "USAGE_ERROR top and bottom must be decimal naturals\n"),
    Row(("rat", "+", "5", "-6"), 2, "USAGE_ERROR top and bottom must be decimal naturals\n"),
    Row(("rat", "+", TOO_LONG, "1"), 2,
        "USAGE_ERROR top or bottom exceeds the integer digit limit\n"),
    Row(("rat", "+", "1", "2", "--strategy", "magic"), 2, ""),
    Row(("demo-regimes",), 0, "LAZY: 1\nEAGER: Cast has failed\n"),
    Row(("demo-regimes", "--value", "1"), 2, ""),
]

_SECONDS = re.compile(r"^(TIME \S+) \d+\.\d+$", re.MULTILINE)


def masked(stdout: str) -> str:
    """``stdout`` with the seconds of each ``TIME <name> <seconds>`` line as ``<s>``."""
    return _SECONDS.sub(r"\1 <s>", stdout)


def mismatch(row: Row, status: int, stdout: str) -> str:
    """``""`` when ``status`` and ``stdout`` are ``row``'s, else what differs first."""
    if status != row.status:
        return f"exit {status}, expected {row.status}"
    got, want = masked(stdout), row.stdout
    if got == want:
        return ""
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    line_start = got.rfind("\n", 0, at) + 1  # the texts agree before ``at``
    line, start = got.count("\n", 0, at) + 1, max(line_start, at - 20)
    return (f"line {line} differs at column {at - line_start + 1}: "
            f"got {got[start:start + 80]!r}, expected {want[start:start + 80]!r}")


def shown(argv: Sequence[str]) -> str:
    """``argv`` as one line: a word past 20 characters shows its first 12 and its length."""
    return " ".join(word if len(word) <= 20 else f"{word[:12]}...[{len(word)}]" for word in argv)


def _short(text: str) -> str:
    return text[:80].replace("\n", "\\n")


def run(command: Sequence[str], rows: Sequence[Row] = ROWS) -> list[Row]:
    """Run each row's argv after ``command``, print what it did, and return
    the rows that do not match; stderr passes through."""
    failed = []
    for row in rows:
        done = subprocess.run([*command, *row.argv], stdout=subprocess.PIPE, encoding="utf-8")
        problem = mismatch(row, done.returncode, done.stdout)
        print(f"{'FAILED' if problem else 'ok'} exit {done.returncode}: {_short(shown(row.argv))}")
        print(f"    {_short(done.stdout)}", flush=True)
        if problem:
            print(f"    {problem}", flush=True)
            failed.append(row)
    return failed


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: python {sys.argv[0]} COMMAND [WORD...]")
    mismatched = run(sys.argv[1:])
    for row in mismatched:
        print(f"MISMATCH {shown(row.argv)}")
    print(f"{len(ROWS) - len(mismatched)} of {len(ROWS)} rows match")
    sys.exit(1 if mismatched else 0)
