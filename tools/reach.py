"""The functions of ``src/gradcast`` that the benchmark's traffic and the CLI never call.

The traffic is ``BLOCKS`` blocks of each workload's op stream (``bench/workloads.py``,
loaded from its file) at seed 1, each op checked against its descriptor's expected
outcome, a ``CastFault`` counting as ``FAULT``; then every row of
``tests/cli_goldens.py`` through ``gradcast.cli.main``, with stdout captured and checked
against the row.  ``sys.settrace`` records every function called, from the import of
``gradcast`` on.  A ``def`` in ``src/gradcast/*.py`` is reached when a called function, not
a lambda or comprehension, has its file and the line of its ``def`` or first decorator.

The tool prints each unreached def, with its ``wc -l`` lines and the reason it stays,
taken from ``REASONS``.  It exits 1 when an op or a row goes wrong, when an unreached
def has no reason, or when a reason names a def that the traffic reaches or that no
longer exists.

Run it from anywhere: ``python tools/reach.py``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradcast"
BLOCKS = 40
SEED = 1

REASONS = {  # module.qualname of each def that no traffic reaches: why it stays
    name: reason for reason, names in (
        ("acceptance criterion 1", "hocasts.build_list hocasts.IList.__init__ hocasts._show_ilist"),
        ("acceptance criterion 5", "casts.try_cast casts.proj2"),
        ("acceptance criterion 6", "predicates.p_true"),
        ("acceptance criterion 7", "predicates.p_false predicates.p_forall_bounded "
         "predicates.p_forall_bounded.decide predicates.p_relate predicates.p_relate.decide"),
        ("the ==/hash/repr/copy/pickle contract of records and evidence",
         "records._Record._values records._Record.__repr__ records._Record.__eq__ "
         "records._Record.__hash__ predicates.Evidence.__repr__ predicates.Evidence.__eq__ "
         "predicates.Evidence.__hash__ casts.CastFault.__reduce__ compiler.BinOp.__reduce__ "
         "compiler.ParseError.__reduce__ compiler._rebuild_tree"),
        ("public constructor: builds or refuses what a cast otherwise issues",
         "predicates.Evidence.__init__ predicates.Holds.__init__ predicates.Refutes.__init__ "
         "predicates._evidence_only casts.Attested.__init__ rationals.Rat.__init__"),
        ("text read only when asked for: an attested value's proposition",
         "casts.Attested.prop_text"),
        ("text read only when asked for: an evidence summary", "predicates._join"),
        ("RAT_INVARIANTS, every AttestedRat's predicate, decided and rendered only on request",
         "rationals._decide_rat rationals._render_rat"),
        ("renders with an element renderer other than show_value", "render.show_sequence.show"),
        ("the console-script entry in pyproject.toml", "cli.run"),
    ) for name in names.split()
}


def defs() -> dict[str, tuple[Path, set[int], int]]:
    """Each def in ``src/gradcast`` by module.qualname: its file, the lines a
    call event can name it by, and its ``wc -l`` lines."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = path, {child.lineno, first}, child.end_lineno - first + 1
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), path.stem)
    return found


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traffic() -> list[str]:
    """Run the workloads and the CLI rows; what went wrong, one line each."""
    sys.path.insert(0, str(ROOT / "src"))
    from gradcast import CastFault, cli

    workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads")
    goldens = load(ROOT / "tests" / "cli_goldens.py", "cli_goldens")
    errors = []
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup_inputs(SEED)
        fixture = workload.build(workloads.gradcast_api(), inputs)
        for block in islice(workload.blocks(SEED, inputs), BLOCKS):
            for desc in block:
                fn, args = fixture.bind(desc)
                try:
                    outcome = fn(*args)
                except CastFault:
                    outcome = workloads.FAULT
                if outcome != desc[4]:
                    errors.append(f"{name} op {desc[:4]!r:.100}: got {outcome!r:.60}")
    for row in goldens.ROWS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                status = cli.main(list(row.argv))
            except SystemExit as exit_:  # argparse's own usage errors
                status = exit_.code
        if problem := goldens.mismatch(row, status, out.getvalue()):
            errors.append(f"row {goldens.shown(row.argv)}: {problem}")
    return errors


def main() -> int:
    called = set()

    def tracer(frame, event, _arg):
        called.add(frame.f_code)

    sys.settrace(tracer)
    try:
        errors = traffic()
    finally:
        sys.settrace(None)
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in called if not c.co_name.startswith("<")}  # a lambda or comprehension
    found = defs()
    unreached = {name: lines for name, (path, starts, lines) in found.items()
                 if not any((path, line) in reached for line in starts)}
    for name, lines in unreached.items():
        print(f"{lines:4}  {name}: {REASONS.get(name, 'NO REASON')}")
        if name not in REASONS:
            errors.append(f"{name} is reached by no traffic and has no reason")
    errors += [f"REASONS names {name}, which " + ("the traffic reaches" if name in found
               else "does not exist") for name in REASONS if name not in unreached]
    print(f"{len(unreached)} of {len(found)} defs unreached, {sum(unreached.values())} lines")
    for error in errors:
        print(f"ERROR {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
