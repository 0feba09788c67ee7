"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time

from exprgen import (
    ALL_OPS,
    COMMUTATIVE_OPS,
    contains_op,
    count_exprs_by_op_count,
    exprs_by_op_count,
)
from gradcast.casts import (
    Attested,
    CastFault,
    FailedCast,
    FailureMode,
    cast,
    map_cast,
    proj1,
    proj2,
    try_cast,
)
from gradcast.cli import bench_strategies, cmd_demo_regimes
from gradcast.compiler import (
    Binop,
    checked_compile,
    compile_buggy,
    compile_fixed,
    eval_exp,
    parse_exp,
    run_prog,
)
from gradcast.hocasts import build_list, cast_forall_range, cast_fun_dom, cast_fun_range
from gradcast.instances import (
    dec_le,
    eq_nat,
    pred_equals,
    pred_ge_const,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import (
    Evidence,
    Pred,
    PredFamily,
    p_and,
    p_false,
    p_forall_bounded,
    p_implies,
    p_not,
    p_or,
    p_relate,
    p_true,
)
from gradcast.rationals import (
    AttestedRat,
    IrredStrategy,
    Rat,
    cast_rat,
)
from spec import divisor_scan_irreducible, holds


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_golden_outputs(capsys):
    started = time.perf_counter()
    problems = []

    def expect(label, actual, wanted):
        if actual != wanted:
            problems.append(f"{label}: {actual!r} != {wanted!r}")

    bad = cast(pred_lt_const(10), 15)
    expect("lt-cast prop", bad.prop_text, "16 <= 10")
    expect("lt-cast value", bad.value_text, "15")

    mapped = map_cast(pred_equals(eq_nat(), 3), [3, 2, 1])
    expect("map first", isinstance(mapped[0], Attested) and mapped[0].value, 3)
    expect("map second", mapped[1], FailedCast("2", "2 = 3"))
    expect("map third", mapped[2], FailedCast("1", "1 = 3"))

    compiled = checked_compile("buggy")(parse_exp("2-1"))
    expect(
        "buggy compiler equation",
        isinstance(compiled, FailedCast) and compiled.prop_text,
        "Some (0 :: nil) = Some (1 :: nil)",
    )

    top_succ = cast_fun_range(pred_lt_const(10), lambda n: n + 1)
    expect("top_succ(9)", top_succ(9), FailedCast("10", "11 <= 10"))

    f_inc = cast_forall_range(PredFamily(at=pred_ge_const), lambda _n: 0)
    expect("f_inc const-zero at 3", f_inc(3), FailedCast("0", "3 <= 0"))

    try:
        cast_fun_dom(pred_gt_const(0), lambda rb: 1 // proj1(rb))(0)
        problems.append("divide by zero did not fault")
    except CastFault as fault:
        expect("divide fault prop", fault.prop_text, "1 <= 0")
        expect("divide fault value", fault.value_text, "0")

    positive_length = PredFamily(
        at=lambda n: Pred(decide=lambda _l: dec_le(1, n), render=lambda _l: f"1 <= {n}")
    )
    non_empty_build = cast_forall_range(positive_length, build_list)
    expect("non_empty_build(0)", non_empty_build(0), FailedCast("Nil", "1 <= 0"))

    status = cmd_demo_regimes()
    demo_lines = capsys.readouterr().out.splitlines()
    expect("demo exit", status, 0)
    expect("demo lines", demo_lines, ["LAZY: 1", "EAGER: Cast has failed"])

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "golden outputs", not problems)
    assert not problems, problems


def test_criterion_2_compiler_correctness_oracle():
    # Exhaustive over every expression with at most 4 operator nodes and
    # constants {0,1,2} (287013 expressions, including all operator chains
    # nested 4 deep). The enumeration size is cross-checked against the
    # closed-form count so "exhaustive" is itself verified.
    started = time.perf_counter()
    problems = []

    every = exprs_by_op_count(4, ALL_OPS)
    expected_count = count_exprs_by_op_count(4, num_ops=3)
    if len(every) != expected_count:
        problems.append(f"enumeration size {len(every)} != {expected_count}")

    fixed_failures = sum(
        1 for e in every if run_prog(compile_fixed(e), []) != [eval_exp(e)]
    )
    if fixed_failures:
        problems.append(f"compile_fixed wrong on {fixed_failures} expressions")

    plus_times_only = exprs_by_op_count(4, COMMUTATIVE_OPS)
    buggy_commutative_failures = sum(
        1 for e in plus_times_only if run_prog(compile_buggy(e), []) != [eval_exp(e)]
    )
    if buggy_commutative_failures:
        problems.append(
            f"compile_buggy wrong on {buggy_commutative_failures} Plus/Times-only expressions"
        )

    minus_failures = [
        e
        for e in exprs_by_op_count(2, ALL_OPS)
        if contains_op(e, Binop.MINUS)
        and run_prog(compile_buggy(e), []) != [eval_exp(e)]
    ]
    if not minus_failures:
        problems.append("compile_buggy passed every Minus expression")

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    report(2, "compiler-correctness oracle", not problems)
    assert not problems, problems


def test_criterion_3_rational_strategy_equivalence(rat_grid):
    # The casts come from the shared sweep (see conftest), whose time counts
    # against the budget with this test's own.
    started = time.perf_counter()
    disagreements = []

    pairs = 0
    for top in range(0, 41):
        for bottom in range(1, 41):
            pairs += 1
            expected = divisor_scan_irreducible(top, bottom)
            for strategy in IrredStrategy:
                got = isinstance(rat_grid.casts[strategy, top, bottom], AttestedRat)
                if got != expected:
                    disagreements.append((top, bottom, strategy.value, got, expected))

    problems = list(disagreements)
    if pairs != 1640:
        problems.append(f"swept {pairs} pairs, expected 1640")
    elapsed = rat_grid.seconds + time.perf_counter() - started
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    report(3, "rational strategy equivalence", not problems)
    assert not problems, problems[:10]


def test_criterion_4_performance_ordering():
    reportt = bench_strategies(30, 42, 5)
    gcd_t = reportt[IrredStrategy.GCD]
    binary_t = reportt[IrredStrategy.BINARY_BOUNDED]
    bounded_t = reportt[IrredStrategy.BOUNDED]
    ok = gcd_t * 2 <= binary_t and binary_t * 2 <= bounded_t
    report(4, "performance ordering", ok)
    assert ok, (gcd_t, binary_t, bounded_t)


def test_criterion_5_canonicity_cast_agreement():
    rng = random.Random(0xCA57)
    violations = []
    for i in range(1000):
        k = rng.randint(0, 30)
        n = rng.randint(0, 30)
        pred = rng.choice(
            [
                pred_lt_const(k),
                pred_gt_const(k),
                pred_ge_const(k),
                pred_equals(eq_nat(), k),
            ]
        )
        decided = holds(pred.decide(n))
        refined = cast(pred, n)
        if isinstance(refined, Attested) != decided:
            violations.append((i, "cast/decide disagree"))
        if isinstance(try_cast(pred, n), Attested) != isinstance(refined, Attested):
            violations.append((i, "try_cast/cast disagree"))
        if isinstance(refined, Attested):
            if proj1(refined) != n:
                violations.append((i, "proj1 not identity"))
            if proj1(cast(pred, n, FailureMode.EAGER)) != n:
                violations.append((i, "eager proj1 not identity"))
        else:
            for projection in (proj1, proj2):
                try:
                    projection(refined)
                    violations.append((i, f"{projection.__name__} did not fault"))
                except CastFault:
                    pass
    report(5, "canonicity and cast agreement", not violations)
    assert not violations, violations[:10]


def test_criterion_6_evidence_unforgeability():
    problems = []
    try:
        Evidence("forged")
        problems.append("Evidence constructible directly")
    except TypeError:
        pass
    try:
        Rat(True, 1, 2)
        problems.append("Rat constructible directly")
    except TypeError:
        pass
    try:
        Attested(15, pred_lt_const(10), proj2(cast(p_true(), 0)))
        problems.append("Attested constructible directly from borrowed evidence")
    except TypeError:
        pass
    try:
        proj2(cast(p_false(), 0))
        problems.append("proj2 of failed cast returned evidence")
    except CastFault:
        pass
    try:
        cast_rat(True, 5, 10).top
        problems.append("projection of failed rational cast returned a field")
    except CastFault:
        pass
    report(6, "evidence unforgeability", not problems)
    assert not problems, problems


def test_criterion_7_truth_tables_and_bounded_quantifier():
    problems = []
    arms = {True: p_true(), False: p_false()}
    tables = [
        (p_and, lambda a, b: a and b),
        (p_or, lambda a, b: a or b),
        (p_implies, lambda a, b: (not a) or b),
    ]
    for combinator, table in tables:
        for a, b in itertools.product([True, False], repeat=2):
            got = holds(combinator(arms[a], arms[b]).decide(None))
            if got != table(a, b):
                problems.append((combinator.__name__, a, b))
    for a in [True, False]:
        if holds(p_not(arms[a]).decide(None)) != (not a):
            problems.append(("p_not", a))

    families = [
        lambda n: p_true(),
        lambda n: pred_lt_const(40),
        lambda n: p_relate(lambda m: m % 2 == 0, lambda m: f"{m} mod 2 = 0"),
    ]
    for fam_index, family in enumerate(families):
        for k in range(0, 65):
            brute = all(holds(family(n).decide(n)) for n in range(k + 1))
            got = holds(p_forall_bounded(k, family).decide(None))
            if got != brute:
                problems.append(("forall_bounded", fam_index, k))

    report(7, "truth tables and bounded quantifier", not problems)
    assert not problems, problems
