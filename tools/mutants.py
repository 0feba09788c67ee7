"""Planted defects that the test suite must catch: the committed mutant list.

Each entry names a file, an exact text that occurs once in it, the text that
replaces it, why the result is a defect, and the test file that kills it first.
For each entry the script copies ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` to a temporary directory, applies the edit there and runs
``python -m pytest -x -q -p no:cacheprovider`` in that directory with
``PYTHONPATH`` set to its ``src``, so no ``.hypothesis`` folder or cache is
written into the repository: on the entry's test file first, and on the whole
suite if that file passes.  A mutant is killed when a run fails.  One line per
mutant says killed or survived and the seconds taken; the exit status is 1 if any
mutant survives, any old text does not occur exactly once, or pytest ends without
running the tests (say, when it is not installed or the test file is missing).

Run it from anywhere: ``python tools/mutants.py``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    reason: str
    first: str  # the test file run before the whole suite, relative to the root


MUTANTS = [
    Mutant(
        "join-raw-child-text",
        "src/gradcast/predicates.py",
        "parts.append(_join(a) if type(a) is Evidence",
        "parts.append(a._text if type(a) is Evidence",
        "_join formats a nested Evidence by its raw _text, so a child not yet joined "
        "shows as its (format, arguments) pair",
        "tests/test_deferred_evidence.py",
    ),
    Mutant(
        "runc-reuses-any-decide",
        "src/gradcast/compiler.py",
        "check.run(prog) if type(check) is _ProgCheck else",
        "check.run(prog) if True else",
        "runc reuses a stack without checking that the decide is a _ProgCheck",
        "tests/test_compiler.py",
    ),
    Mutant(
        "progcheck-run-skips-identity",
        "src/gradcast/compiler.py",
        "if len(p) != len(snapshot) or not all(map(is_, p, snapshot)):",
        "if False:",
        "_ProgCheck.run returns the checked stack for a program changed after its check",
        "tests/test_compiler.py",
    ),
    Mutant(
        "holds-skips-evidence-check",
        "src/gradcast/predicates.py",
        "super().__init__(_evidence_only(self, evidence))",
        "super().__init__(evidence)",
        "Holds takes any field as its evidence, None or a string included",
        "tests/test_builders.py",
    ),
    Mutant(
        "naturals-table-entry-200",
        "src/gradcast/render.py",
        "_NATURALS = _Naturals((n, str(n)) for n in range(256))",
        "_NATURALS = _Naturals((n, str(n + (n == 200))) for n in range(256))",
        "the naturals text table holds 201 for 200",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "naturals-table-for-int-subclasses",
        "src/gradcast/render.py",
        "if show is str and cls is int:",
        "if show is str and issubclass(cls, int):",
        "an int subclass with its own __str__ renders from the naturals table",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "naturals-table-ignores-registrations",
        "src/gradcast/render.py",
        "if show is str and cls is int:",
        "if cls is int:",
        "a renderer registered for int or object never reaches a plain int",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "naturals-table-unmapped-limit",
        "src/gradcast/render.py",
        "except ValueError:  # a plain int's str raises it only past the digit limit",
        "except LimitError:  # a plain int's str raises it only past the digit limit",
        "the naturals text table lets str's plain ValueError out past the digit limit",
        "tests/test_limits.py",
    ),
    Mutant(
        "record-repr-int-by-repr",
        "src/gradcast/records.py",
        '"=", _NATURALS[value] if type(value) is int else repr(value)',
        '"=", repr(value)',
        "a record's repr shows a plain int field by repr, which past the digit limit "
        "raises str's plain ValueError",
        "tests/test_limits.py",
    ),
    Mutant(
        "join-int-argument-raw",
        "src/gradcast/predicates.py",
        "else _NATURALS[a] if type(a) is int else a)",
        "else a)",
        "an evidence summary formats a plain int argument itself, which past the digit "
        "limit raises str's plain ValueError",
        "tests/test_limits.py",
    ),
    Mutant(
        "show-int-table-for-int-subclasses",
        "src/gradcast/render.py",
        "_NATURALS.__missing__(n)) if type(n) is int else format(n)",
        "_NATURALS.__missing__(n)) if isinstance(n, int) else format(n)",
        "an int subclass with its own text, or a bool, is shown from the naturals table "
        "by the order predicates, equality and rational texts",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "order-table-for-int-subclasses",
        "src/gradcast/instances.py",
        "if type(n) is int and n >= 0:\n            if n < top:",
        "if isinstance(n, int) and n >= 0:\n            if n < top:",
        "an order predicate accepts True, and serves it or an int subclass the verdict it "
        "keeps for 1 or for the subclass's value",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "order-table-shared",
        "src/gradcast/instances.py",
        "kept: dict[int, Decision] = {}",
        'kept: dict[int, Decision] = _order.__dict__.setdefault("kept", {})',
        "every order predicate keeps its verdicts in one table, so each serves the "
        "verdicts of the predicates that decided before it",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "order-table-neighbour-entry",
        "src/gradcast/instances.py",
        "verdict = kept[n] = dec_le(n + 1, k) if strict else dec_le(k, n)",
        "verdict = kept[n] = dec_le(n + 2, k) if strict else dec_le(k, n + 1)",
        "an order predicate keeps, for each natural, the verdict of the next one",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "eq-list-inline-compare-ge",
        "src/gradcast/instances.py",
        "if x == y:",
        "if x >= y:",
        "eq_list's inline compare of two plain naturals takes a larger left element for equal",
        "tests/test_fast_paths.py",
    ),
    Mutant(
        "not-reads-child-decide-per-decision",
        "src/gradcast/predicates.py",
        "inner = p_decide(a)",
        "inner = p.decide(a)",
        "p_not reads its child's decide field at each decision, not once when built",
        "tests/test_read_once.py",
    ),
    Mutant(
        "cast-rat-gcd-skips-zero-bottom",
        "src/gradcast/rationals.py",
        "irreducible = bottom != 0 and gcd(top, bottom) == 1",
        "irreducible = gcd(top, bottom) == 1",
        "cast_rat's own gcd path attests n/0 when gcd(n, 0) = n is 1",
        "tests/test_rationals.py",
    ),
    Mutant(
        "bounded-ceiling-refuses-its-edge",
        "src/gradcast/rationals.py",
        "if top > ceiling or bottom > ceiling:",
        "if top >= ceiling or bottom > ceiling:",
        "a bounded strategy refuses a top equal to its ceiling",
        "tests/test_cli.py",
    ),
    Mutant(
        "denote-untruncated-minus",
        "src/gradcast/compiler.py",
        "return x - y if x >= y else 0",
        "return x - y",
        "subtraction on naturals goes below zero",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "check-limit-error-exits-one",
        "src/gradcast/cli.py",
        'print("LIMIT_ERROR result exceeds the integer digit limit")\n        return 2',
        'print("LIMIT_ERROR result exceeds the integer digit limit")\n        return 1',
        "check exits 1 on a limit error, so it passes for a cast failure",
        "tests/test_cli.py",
    ),
    Mutant(
        "tokeniser-admits-no-break-space",
        "src/gradcast/compiler.py",
        r'_FOREIGN = re.compile(r"[^0-9+*()\- \t\r\n\f\v]")',
        r'_FOREIGN = re.compile(r"[^0-9+*()\- \t\r\n\f\v\xa0]")',
        "the tokeniser's foreign-character class admits '\\xa0', which split() then drops, "
        "so '1+2\\xa0' parses",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "parse-error-offset-zero-based",
        "src/gradcast/compiler.py",
        "return ParseError(reason, offset + 1)",
        "return ParseError(reason, offset)",
        "a parse error reports the 0-based offset of the failing character",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "parse-close-paren-drops-product",
        "src/gradcast/compiler.py",
        "summand, sum_op, factor = pop_saved()",
        "summand, sum_op, factor = pop_saved()[:2] + (None,)",
        "a ')' restores the enclosing level without its pending product",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "parse-open-paren-keeps-product",
        "src/gradcast/compiler.py",
        "summand = factor = None\n",
        "summand = None\n",
        "a '(' leaves the enclosing level's pending product pending inside it",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "eval-leaf-shortcut-unchecked",
        "src/gradcast/compiler.py",
        "y = value if type(value) is int and value >= 0 else check_nat(value)",
        "y = value",
        "eval_exp applies a node to its leaf second operand before checking the leaf, so "
        "a first operand that is not a natural raises in its place",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "compile-leaf-shortcut-op-first",
        "src/gradcast/compiler.py",
        "emit(_ICONST[value] if type(value) is int and 0 <= value < 256 else IConst(value))"
        "\n                emit(_IBINOP[frame._op])",
        "emit(_IBINOP[frame._op])\n                "
        "emit(_ICONST[value] if type(value) is int and 0 <= value < 256 else IConst(value))",
        "_compile emits a node's operation before its leaf second operand",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "compile-looks-up-op-before-second-operand",
        "src/gradcast/compiler.py",
        "push((frame._op,))",
        "push((frame._op, _IBINOP[frame._op]))",
        "_compile looks up a node's IBinop before compiling its second operand, so an op "
        "that is not a Binop raises KeyError before a non-node's TypeError",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "iconst-text-table-entry-255",
        "src/gradcast/compiler.py",
        'tuple(f"iConst {n}" for n in range(256))',
        'tuple(f"iConst {n + (n == 255)}" for n in range(256))',
        "the IConst text table holds iConst 256 for 255",
        "tests/test_compiler_kernels.py",
    ),
    Mutant(
        "iconst-text-table-for-int-subclasses",
        "src/gradcast/compiler.py",
        "if type(value) is int and 0 <= value < 256:\n        return _ICONST_TEXT[value]",
        "if isinstance(value, int) and 0 <= value < 256:\n        return _ICONST_TEXT[value]",
        "an IConst of a bool or an int subclass renders from the text table",
        "tests/test_compiler_kernels.py",
    ),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a temporary copy and run the suite there: the outcome
    (killed, survived, missing or broken) and the seconds taken."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="gradcast-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp) / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "missing", time.perf_counter() - started
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        for paths in ([mutant.first], []):  # the whole suite runs only if the file passes
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            if result.returncode:
                break
    if result.returncode == 0:
        outcome = "survived"
    elif result.returncode in (1, 2) and re.search(r"\b\d+ (failed|errors?)\b", result.stdout):
        outcome = "killed"
    else:  # pytest did not run the tests: no verdict on the mutant
        outcome = f"broken (pytest exit {result.returncode})"
    return outcome, time.perf_counter() - started


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        outcome, seconds = run(mutant)
        failed += outcome != "killed"
        print(f"{outcome:8} {seconds:6.1f} s  {mutant.name}: {mutant.reason}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
