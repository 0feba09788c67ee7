import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from exprgen import (
    ALL_OPS,
    COMMUTATIVE_OPS,
    exp_text,
    exprs_by_op_count,
    random_exp,
    recursion_fails_fast,
)
from gradcast.casts import Attested, CastFault, FailedCast, FailureMode, proj1
from gradcast.compiler import (
    COMPILERS,
    BinOp,
    Binop,
    Const,
    IBinop,
    IConst,
    ParseError,
    checked_compile,
    compile_buggy,
    compile_fixed,
    correct_prog,
    eval_exp,
    parse_exp,
    run_prog,
    runc,
)
from gradcast.hocasts import cast_fun_range
from gradcast.predicates import Pred, p_true
from gradcast.render import show_value
from spec import eq_key, hash_key, holds, ref_eval_binop, ref_repr

MINUS_2_1 = BinOp(Binop.MINUS, Const(2), Const(1))
PLUS_2_2 = BinOp(Binop.PLUS, Const(2), Const(2))


def test_eval_binop():
    # The interpreter applies each operation to its operands' values.
    assert eval_exp(BinOp(Binop.MINUS, Const(1), Const(2))) == 0  # natural subtraction truncates
    assert eval_exp(BinOp(Binop.PLUS, Const(2), Const(2))) == 4
    assert eval_exp(BinOp(Binop.TIMES, Const(3), Const(0))) == 0
    assert eval_exp(BinOp(Binop.MINUS, Const(5), Const(3))) == 2
    # The machine applies the same operation to its top two entries.
    assert run_prog([IBinop(Binop.MINUS)], [1, 2]) == [0]
    assert run_prog([IBinop(Binop.PLUS)], [2, 2]) == [4]
    assert run_prog([IBinop(Binop.TIMES)], [3, 0]) == [0]
    assert run_prog([IBinop(Binop.MINUS)], [5, 3]) == [2]


def test_eval_exp():
    assert eval_exp(PLUS_2_2) == 4
    assert eval_exp(MINUS_2_1) == 1
    assert eval_exp(Const(5)) == 5


def test_run_prog_one_instruction():
    assert run_prog([IConst(3)], []) == [3]
    assert run_prog([IBinop(Binop.MINUS)], [1, 2]) == [ref_eval_binop(Binop.MINUS, 1, 2)]
    assert run_prog([IBinop(Binop.PLUS)], [5]) is None


def test_run_prog():
    assert run_prog([], [7]) == [7]
    assert run_prog([IConst(2), IConst(2), IBinop(Binop.PLUS)], []) == [4]
    assert run_prog([IBinop(Binop.PLUS)], []) is None


def test_compile_buggy_emits_left_then_right():
    assert compile_buggy(MINUS_2_1) == [IConst(2), IConst(1), IBinop(Binop.MINUS)]
    assert compile_buggy(Const(7)) == [IConst(7)]


def test_compile_fixed_runs_subtraction_correctly():
    assert run_prog(compile_fixed(MINUS_2_1), []) == [1]


def test_buggy_compiler_gets_subtraction_backwards():
    assert run_prog(compile_buggy(MINUS_2_1), []) == [0]


def test_correct_prog_examples():
    assert holds(correct_prog(PLUS_2_2).decide(compile_buggy(PLUS_2_2)))
    verdict = correct_prog(MINUS_2_1).decide(compile_buggy(MINUS_2_1))
    assert not holds(verdict)
    rendered = correct_prog(MINUS_2_1).render(compile_buggy(MINUS_2_1))
    assert rendered == "Some (0 :: nil) = Some (1 :: nil)"
    assert holds(correct_prog(Const(0)).decide([IConst(0)]))


def test_checked_compile_success():
    refined = checked_compile("buggy")(PLUS_2_2)
    assert isinstance(refined, Attested)
    assert refined.value == [IConst(2), IConst(2), IBinop(Binop.PLUS)]


def test_checked_compile_failure_reports_program_and_equation():
    refined = checked_compile("buggy")(MINUS_2_1)
    assert refined == FailedCast(
        value_text="iConst 2 :: iConst 1 :: iBinop Minus :: nil",
        prop_text="Some (0 :: nil) = Some (1 :: nil)",
    )


def test_checked_compile_rejects_unknown_variant():
    with pytest.raises(ValueError):
        checked_compile("optimizing")


def test_runc():
    assert runc(checked_compile("buggy"), PLUS_2_2) == [4]
    assert runc(checked_compile("fixed"), MINUS_2_1) == [1]
    with pytest.raises(CastFault):
        runc(checked_compile("buggy"), MINUS_2_1)


def test_checked_fixed_is_attested_on_random_expressions():
    rng = random.Random(60923)
    checked = checked_compile("fixed")
    for _ in range(1000):
        e = random_exp(rng, max_depth=6)
        refined = checked(e)
        assert isinstance(refined, Attested), exp_text(e)
        assert run_prog(refined.value, []) == [eval_exp(e)]


def test_fixed_compiler_correct_on_exhaustive_small_expressions():
    for e in exprs_by_op_count(3, ALL_OPS):
        assert run_prog(compile_fixed(e), []) == [eval_exp(e)]


def test_buggy_and_fixed_agree_on_commutative_fragment():
    rng = random.Random(424242)
    for _ in range(500):
        e = random_exp(rng, max_depth=5, ops=COMMUTATIVE_OPS)
        assert run_prog(compile_buggy(e), []) == run_prog(compile_fixed(e), [])


def test_checked_compile_fails_exactly_when_correct_prog_refutes():
    rng = random.Random(5150)
    checked = checked_compile("buggy")
    for _ in range(300):
        e = random_exp(rng, max_depth=4)
        failed = isinstance(checked(e), FailedCast)
        refuted = not holds(correct_prog(e).decide(compile_buggy(e)))
        assert failed == refuted


def test_program_rendering_uses_instruction_notation():
    prog = compile_buggy(MINUS_2_1)
    assert show_value(prog) == "iConst 2 :: iConst 1 :: iBinop Minus :: nil"
    assert show_value([]) == "nil"


def test_parse_exp_examples():
    assert parse_exp("2 - 1") == MINUS_2_1
    assert parse_exp("(2+2)*3") == BinOp(Binop.TIMES, PLUS_2_2, Const(3))
    assert parse_exp("12") == Const(12)


def test_parse_exp_precedence_and_associativity():
    assert parse_exp("1+2*3") == BinOp(
        Binop.PLUS, Const(1), BinOp(Binop.TIMES, Const(2), Const(3))
    )
    assert parse_exp("1-2-3") == BinOp(
        Binop.MINUS, BinOp(Binop.MINUS, Const(1), Const(2)), Const(3)
    )


def test_parse_exp_ignores_ascii_whitespace():
    assert parse_exp(" 1 +\t2 ") == BinOp(Binop.PLUS, Const(1), Const(2))


def test_parse_exp_error_offsets():
    with pytest.raises(ParseError) as excinfo:
        parse_exp("2 + ")
    assert excinfo.value.offset == 5

    with pytest.raises(ParseError) as excinfo:
        parse_exp("")
    assert excinfo.value.offset == 1

    with pytest.raises(ParseError) as excinfo:
        parse_exp("(1+2")
    assert excinfo.value.offset == 5

    with pytest.raises(ParseError) as excinfo:
        parse_exp("1 + x")
    assert excinfo.value.offset == 5

    with pytest.raises(ParseError) as excinfo:
        parse_exp("1 2")
    assert excinfo.value.offset == 3


def test_parse_print_roundtrip():
    rng = random.Random(31337)
    for _ in range(500):
        e = random_exp(rng, max_depth=6)
        assert parse_exp(exp_text(e)) == e


def test_parse_exp_numeral_over_int_digit_limit_is_a_parse_error():
    numeral = "9" * 5000
    with pytest.raises(ParseError) as excinfo:
        parse_exp(f"1 + {numeral}")
    assert excinfo.value.offset == 5
    assert excinfo.value.reason == "numeral of 5000 digits is too long"


@pytest.mark.parametrize("depth", [100, 10_000])
@recursion_fails_fast
def test_parse_right_and_left_nested_text(depth):
    # Every subtraction nests to the right, so each level needs parentheses.
    right = BinOp(Binop.MINUS, Const(1), Const(2))
    for _ in range(depth):
        right = BinOp(Binop.MINUS, Const(1), right)
    text = "1 - (" * depth + "1 - 2" + ")" * depth
    assert parse_exp(text) == right
    left = Const(1)
    for _ in range(depth - 1):
        left = BinOp(Binop.MINUS, left, Const(1))
    left_nested = " - ".join(["1"] * depth)
    assert parse_exp(left_nested) == left
    if depth <= 100:  # the printer recurses
        assert (exp_text(right), exp_text(left)) == (text, left_nested)


@pytest.mark.parametrize("depth", [1000, 10_000])
@recursion_fails_fast
def test_deep_trees_compare_hash_and_print(depth):
    text = "1 - (" * depth + "1 - 2" + ")" * depth
    e, same = parse_exp(text), parse_exp(text)
    other = parse_exp("1 - (" * depth + "1 - 3" + ")" * depth)
    assert e == same and not e != same
    assert e != other and not e == other
    assert hash(e) == hash(same)
    assert len({e, same, other}) == 2
    level = "BinOp(op=<Binop.MINUS: 'Minus'>, left=Const(value=1), right="
    assert repr(e) == level * (depth + 1) + "Const(value=2)" + ")" * (depth + 1)


@recursion_fails_fast
def copies(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("depth", [1000, 10_000])
def test_deep_trees_survive_copy_deepcopy_and_pickle(depth):
    text = "1 - (" * depth + "1 - 2" + ")" * depth
    e = parse_exp(text)
    for twin in copies(e):
        assert type(twin) is BinOp and twin is not e
        assert twin == e
    left_nested = parse_exp(" - ".join(["1"] * depth))
    assert all(twin == left_nested for twin in copies(left_nested))


def test_tree_copies_share_what_the_tree_shares():
    e = parse_exp("1 - 1 - 1")  # one Const for the numeral 1
    tree = BinOp(Binop.PLUS, e, e)
    shallow, deep, unpickled = copies(tree)
    for twin in (shallow, deep, unpickled):
        assert twin == tree and twin.left is twin.right and twin.left is not e
        ones = twin.left.left.left, twin.left.left.right, twin.left.right
        assert ones[0] is ones[1] is ones[2]
    assert shallow.left.right is e.right  # a shallow copy keeps the leaves
    assert deep.left.right is not e.right and unpickled.left.right is not e.right


def test_copying_a_cyclic_tree_raises():
    for store in ("_left", "_right"):
        e = parse_exp("1 - (2 - 3)")
        setattr(e.right, store, e)  # a private slot accepts the store
        for copier in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(ValueError, match="^cannot copy a cyclic expression tree$"):
                copier(e)


def test_tree_eq_hash_and_repr_match_the_tuple_reference_on_random_trees():
    rng = random.Random(20)
    leaves = [Const(0), Const(1), Const(1.0), Const(float("nan")), 0, "x"]
    trees = []
    for _ in range(300):
        e = random_exp(rng, max_depth=5, max_const=1)
        if rng.random() < 0.3:  # odd leaves and shared subtrees
            e = BinOp(rng.choice(ALL_OPS), rng.choice(leaves), rng.choice(trees or [e]))
        trees.append(e)
    keys = [eq_key(e) for e in trees]
    for e in trees:
        assert repr(e) == ref_repr(e)
        assert hash(e) == hash(hash_key(e))
        if isinstance(e, BinOp):
            assert e != (e.op, e.left, e.right) and e != Const(1)
    for i, j in zip(rng.choices(range(300), k=3000), rng.choices(range(300), k=3000)):
        a, b = trees[i], trees[j]
        assert (a == b, a != b) == (keys[i] == keys[j], keys[i] != keys[j])
        if a == b:
            assert hash(a) == hash(b)


@recursion_fails_fast
def test_deep_expressions_compile_evaluate_and_run():
    depth = 5000
    e = parse_exp("+".join(["1"] * depth))
    assert eval_exp(e) == depth
    assert run_prog(compile_fixed(e), []) == [depth]
    assert run_prog(compile_buggy(e), []) == [depth]
    assert parse_exp("(" * 3000 + "2" + ")" * 3000) == Const(2)


def test_eval_compile_and_run_reject_invalid_input():
    with pytest.raises(ValueError):
        eval_exp(BinOp(Binop.PLUS, Const(1), Const(-1)))
    with pytest.raises(ValueError):
        run_prog([IConst(-1), IConst(1), IBinop(Binop.PLUS)], [])
    with pytest.raises(TypeError):
        eval_exp(BinOp(Binop.PLUS, Const(1), "2"))
    with pytest.raises(TypeError):
        compile_fixed(BinOp(Binop.PLUS, 1, Const(2)))
    with pytest.raises(TypeError):
        run_prog([IConst(1), "iBinop Plus"], [])
    assert run_prog([IConst(1), IBinop(Binop.PLUS)], []) is None
    assert run_prog([IBinop(Binop.MINUS)], [3, 5]) == [0]
    stack = [1, 2]
    assert run_prog([IConst(3)], stack) == [3, 1, 2]
    assert stack == [1, 2]


@pytest.fixture
def calls(monkeypatch):
    """Counts of run_prog calls and of renders by correct_prog's predicates."""
    import gradcast.compiler as compiler

    calls = {"run_prog": 0, "render": 0}
    original_run_prog, original_correct_prog = compiler.run_prog, compiler.correct_prog

    def counting_run_prog(p, s):
        calls["run_prog"] += 1
        return original_run_prog(p, s)

    def counting_correct_prog(e):
        pred = original_correct_prog(e)

        def render(p):
            calls["render"] += 1
            return pred.render(p)

        return Pred(decide=pred.decide, render=render)

    monkeypatch.setattr(compiler, "run_prog", counting_run_prog)
    monkeypatch.setattr(compiler, "correct_prog", counting_correct_prog)
    return calls


def test_attested_compile_runs_the_program_once_and_renders_nothing(calls):
    e = parse_exp("(3 - 1) * 4 + 2")
    assert runc(checked_compile("fixed"), e) == [10]
    assert calls == {"run_prog": 1, "render": 0}
    assert runc(checked_compile("fixed", FailureMode.EAGER), e) == [10]
    assert calls == {"run_prog": 2, "render": 0}

    refined = checked_compile("fixed")(e)
    assert refined.prop_text == "Some (10 :: nil) = Some (10 :: nil)"
    assert calls == {"run_prog": 3, "render": 1}

    # A failed check renders from the stack its decision observed: one run.
    calls.update(run_prog=0, render=0)
    with pytest.raises(CastFault):
        runc(checked_compile("buggy"), MINUS_2_1)
    assert calls == {"run_prog": 1, "render": 1}


def test_runc_runs_a_program_changed_after_its_cast(calls):
    refined = checked_compile("fixed")(MINUS_2_1)
    prog = refined.value
    assert prog == [IConst(1), IConst(2), IBinop(Binop.MINUS)]
    prog[0] = IConst(7)
    assert runc(lambda _: refined, MINUS_2_1) == [0]
    assert calls["run_prog"] == 2
    # An equal but different instruction is a change too.
    prog[0] = IConst(1)
    assert runc(lambda _: refined, MINUS_2_1) == [1]
    assert calls["run_prog"] == 3
    prog.append(IConst(4))
    assert runc(lambda _: refined, MINUS_2_1) == [4, 1]
    assert calls == {"run_prog": 4, "render": 0}


def test_runc_runs_a_program_its_own_cast_did_not_run(calls):
    assert runc(cast_fun_range(p_true(), compile_buggy), MINUS_2_1) == [0]
    assert calls == {"run_prog": 1, "render": 0}


def test_runc_returns_a_new_list_each_time():
    e = parse_exp("(3 - 1) * 4 + 2")
    refined = checked_compile("fixed")(e)
    first = runc(lambda _: refined, e)
    first[0] = 0
    first.append(99)
    second = runc(lambda _: refined, e)
    assert second == [10]
    assert second is not first
    assert runc(lambda _: refined, e) is not second


def _outcome(fn):
    try:
        return ("returned", fn())
    except CastFault as fault:
        return ("fault", str(fault), fault.value_text, fault.prop_text)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(sorted(COMPILERS)),
    st.sampled_from(FailureMode),
)
def test_runc_agrees_with_running_the_projected_program(seed, variant, mode):
    e = random_exp(random.Random(seed), max_depth=6)
    checked = checked_compile(variant, mode)
    assert _outcome(lambda: runc(checked, e)) == _outcome(
        lambda: run_prog(proj1(checked(e)), [])
    )


def test_failed_check_renders_the_stack_its_decision_observed(monkeypatch):
    import gradcast.compiler as compiler

    runs = []
    original_run_prog = compiler.run_prog

    def counting_run_prog(p, s):
        runs.append(p)
        return original_run_prog(p, s)

    monkeypatch.setattr(compiler, "run_prog", counting_run_prog)
    pred = correct_prog(MINUS_2_1)
    prog = compile_buggy(MINUS_2_1)
    assert not holds(pred.decide(prog))
    assert pred.render(prog) == "Some (0 :: nil) = Some (1 :: nil)"
    assert pred.render(list(prog)) == "Some (0 :: nil) = Some (1 :: nil)"
    assert len(runs) == 1

    # The program changes after the decision: render runs the new one.
    prog[1] = IConst(7)
    assert pred.render(prog) == "Some (5 :: nil) = Some (1 :: nil)"
    assert len(runs) == 2
    # An equal but different instruction is a change too: IConst(True) is
    # == IConst(1), and running it raises.
    prog[:] = [IConst(2), IConst(True), IBinop(Binop.MINUS)]
    with pytest.raises(TypeError):
        pred.render(prog)

    # A later decision replaces the program it observed.
    runs.clear()
    good = compile_fixed(MINUS_2_1)
    assert holds(pred.decide(good))
    assert pred.render(compile_buggy(MINUS_2_1)) == "Some (0 :: nil) = Some (1 :: nil)"
    assert len(runs) == 2
