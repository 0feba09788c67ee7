"""Planted defects that the test suite must catch: the committed mutant list.

Each entry names a file, an exact text that occurs once in it, the text that
replaces it and why the result is a defect.  For each entry the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
edit there and runs ``python -m pytest -x -q -p no:cacheprovider`` in that
directory with ``PYTHONPATH`` set to its ``src``, so no ``.hypothesis`` folder or
cache is written into the repository.  A mutant is killed when the suite fails.
One line per mutant says killed or survived and the seconds taken; the exit
status is 1 if any mutant survives, any old text does not occur exactly once, or
pytest ends without running the suite (say, when it is not installed).

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
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    reason: str


MUTANTS = [
    Mutant(
        "join-raw-child-text",
        "src/gradcast/predicates.py",
        "parts.append(_join(a) if type(a) is Evidence",
        "parts.append(a._text if type(a) is Evidence",
        "_join formats a nested Evidence by its raw _text, so a child not yet joined "
        "shows as its (format, arguments) pair",
    ),
    Mutant(
        "runc-reuses-any-decide",
        "src/gradcast/compiler.py",
        "check.run(prog) if type(check) is _ProgCheck else",
        "check.run(prog) if True else",
        "runc reuses a stack without checking that the decide is a _ProgCheck",
    ),
    Mutant(
        "progcheck-run-skips-identity",
        "src/gradcast/compiler.py",
        "if len(p) != len(snapshot) or not all(map(is_, p, snapshot)):",
        "if False:",
        "_ProgCheck.run returns the checked stack for a program changed after its check",
    ),
    Mutant(
        "holds-skips-evidence-check",
        "src/gradcast/predicates.py",
        "super().__init__(_evidence_only(self, evidence))",
        "super().__init__(evidence)",
        "Holds takes any field as its evidence, None or a string included",
    ),
    Mutant(
        "naturals-table-entry-200",
        "src/gradcast/render.py",
        "_NATURALS = _Naturals((n, str(n)) for n in range(256))",
        "_NATURALS = _Naturals((n, str(n + (n == 200))) for n in range(256))",
        "the naturals text table holds 201 for 200",
    ),
    Mutant(
        "naturals-table-for-int-subclasses",
        "src/gradcast/render.py",
        "if show is str and cls is int:",
        "if show is str and issubclass(cls, int):",
        "an int subclass with its own __str__ renders from the naturals table",
    ),
    Mutant(
        "naturals-table-ignores-registrations",
        "src/gradcast/render.py",
        "if show is str and cls is int:",
        "if cls is int:",
        "a renderer registered for int or object never reaches a plain int",
    ),
    Mutant(
        "naturals-table-unmapped-limit",
        "src/gradcast/render.py",
        "except ValueError:  # a plain int's str raises it only past the digit limit",
        "except LimitError:  # a plain int's str raises it only past the digit limit",
        "the naturals text table lets str's plain ValueError out past the digit limit",
    ),
    Mutant(
        "record-repr-int-by-repr",
        "src/gradcast/records.py",
        '"=", _NATURALS[value] if type(value) is int else repr(value)',
        '"=", repr(value)',
        "a record's repr shows a plain int field by repr, which past the digit limit "
        "raises str's plain ValueError",
    ),
    Mutant(
        "join-int-argument-raw",
        "src/gradcast/predicates.py",
        "else _NATURALS[a] if type(a) is int else a)",
        "else a)",
        "an evidence summary formats a plain int argument itself, which past the digit "
        "limit raises str's plain ValueError",
    ),
    Mutant(
        "show-int-table-for-int-subclasses",
        "src/gradcast/render.py",
        "_NATURALS.__missing__(n)) if type(n) is int else format(n)",
        "_NATURALS.__missing__(n)) if isinstance(n, int) else format(n)",
        "an int subclass with its own text, or a bool, is shown from the naturals table "
        "by the order predicates, equality and rational texts",
    ),
    Mutant(
        "order-table-for-int-subclasses",
        "src/gradcast/instances.py",
        "if type(n) is int and n >= 0:\n            if n < top:",
        "if isinstance(n, int) and n >= 0:\n            if n < top:",
        "an order predicate accepts True, and serves it or an int subclass the verdict it "
        "keeps for 1 or for the subclass's value",
    ),
    Mutant(
        "order-table-shared",
        "src/gradcast/instances.py",
        "kept: dict[int, Decision] = {}",
        'kept: dict[int, Decision] = _order.__dict__.setdefault("kept", {})',
        "every order predicate keeps its verdicts in one table, so each serves the "
        "verdicts of the predicates that decided before it",
    ),
    Mutant(
        "order-table-neighbour-entry",
        "src/gradcast/instances.py",
        "verdict = kept[n] = dec_le(n + 1, k) if strict else dec_le(k, n)",
        "verdict = kept[n] = dec_le(n + 2, k) if strict else dec_le(k, n + 1)",
        "an order predicate keeps, for each natural, the verdict of the next one",
    ),
    Mutant(
        "denote-untruncated-minus",
        "src/gradcast/compiler.py",
        "return x - y if x >= y else 0",
        "return x - y",
        "subtraction on naturals goes below zero",
    ),
    Mutant(
        "check-limit-error-exits-one",
        "src/gradcast/cli.py",
        'print("LIMIT_ERROR result exceeds the integer digit limit")\n        return 2',
        'print("LIMIT_ERROR result exceeds the integer digit limit")\n        return 1',
        "check exits 1 on a limit error, so it passes for a cast failure",
    ),
    Mutant(
        "parse-error-offset-zero-based",
        "src/gradcast/compiler.py",
        "return ParseError(reason, offset + 1)",
        "return ParseError(reason, offset)",
        "a parse error reports the 0-based offset of the failing character",
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
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if result.returncode == 0:
        outcome = "survived"
    elif result.returncode in (1, 2) and re.search(r"\b\d+ (failed|errors?)\b", result.stdout):
        outcome = "killed"
    else:  # pytest did not run the suite: no verdict on the mutant
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
