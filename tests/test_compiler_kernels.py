"""The compiler's parse, compile, evaluate and run loops and its instruction
renderers against the straightforward code they replaced, the references in
``spec``.

The references scan the text one character at a time, build a new leaf per
numeral, dispatch operations through Enum-keyed tables and check every
operand through ``ref_eval_binop``; the library must give the same tree, the
same program, the same value, or the same exception with the same message
(for a :class:`ParseError`, the same reason and offset).
"""

import ast
import copy
import importlib.util
import pickle
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gradcast import compiler
from gradcast.compiler import (
    BinOp,
    Binop,
    Const,
    IBinop,
    IConst,
    compile_buggy,
    compile_fixed,
    eval_exp,
    parse_exp,
    run_prog,
)
from gradcast.render import show_value
from spec import (
    Small,
    outcome,
    ref_compile,
    ref_eval_exp,
    ref_parse_exp,
    ref_run_prog,
    ref_show_instr,
    ref_show_prog,
)


# ---------------------------------------------------------------- parser

# Characters the grammar uses, the six ASCII whitespace characters, and
# characters a looser tokeniser would misread: NUL (the reference's end
# sentinel), non-ASCII digits, a Unicode-only separator, a no-break space.
_CHARS = list("0123456789+-*()") + list(" \t\r\n\f\v") + ["\0", "٣", "²", "\x1c", "\xa0", "x"]
_PIECES = st.one_of(
    st.sampled_from(_CHARS),
    st.sampled_from(_CHARS),
    st.sampled_from(_CHARS),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["9" * 4300, "1" * 4301, "0" * 5000]),
)


# Each state change the parser makes for a level: a product and a sum pending
# across a parenthesis, a level restored with both, nesting within a product,
# and the errors after a "*", a "+", a ")" and at a stray ")".
@given(st.lists(_PIECES, max_size=40).map("".join))
@example("2*(3+4)*5")
@example("1-(2-3)-4")
@example("1+2*(3-4*(5+6))*7-8")
@example("2*(3*")
@example("2*(3+)")
@example("(1+2)3")
@example("1*)")
def test_parse_exp_matches_reference_on_arbitrary_text(src):
    assert outcome(parse_exp, src) == outcome(ref_parse_exp, src)


@st.composite
def well_formed_text(draw, depth=4):
    """Expression text with random spacing and redundant parentheses."""
    space = st.sampled_from(["", "", " ", "\t", "\r\n", "\f\v"])
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        text = str(draw(st.integers(0, 99)))
    else:
        left = draw(well_formed_text(depth - 1))
        right = draw(well_formed_text(depth - 1))
        text = f"{left}{draw(space)}{draw(st.sampled_from('+-*'))}{draw(space)}{right}"
        if draw(st.booleans()):
            text = f"({draw(space)}{text}{draw(space)})"
    return text


@given(well_formed_text(), st.integers(0, 3), st.sampled_from(["", ")", "(", "+", "1", "\0"]))
def test_parse_exp_matches_reference_on_near_valid_text(text, cut, suffix):
    # Valid text, and the same with its last characters replaced.
    src = text[: len(text) - cut] + suffix
    assert outcome(parse_exp, src) == outcome(ref_parse_exp, src)


# Numerals split by each ASCII whitespace character, and text whose first
# character outside the grammar is followed by text that would parse
# differently (or fail elsewhere) if it were tokenised too.
_SPLIT_TEXTS = [f"12{space}34" for space in " \t\r\n\f\v"] + [
    f"1+2{space}*3" for space in " \t\r\n\f\v"
]
_FOREIGN_TEXTS = [
    text
    for ch in ("\x1c", "\xa0", "٣", "\0", "x")
    for text in (f"1+2{ch})+(3", f"(1{ch}", f"{ch}", f"7{ch}8", f"(1+2{ch}", f"1+{ch}2 2")
]


@pytest.mark.parametrize("src", _SPLIT_TEXTS + _FOREIGN_TEXTS + [""])
def test_parse_exp_matches_reference_on_split_and_foreign_text(src):
    assert outcome(parse_exp, src) == outcome(ref_parse_exp, src)


def test_parse_exp_shares_one_leaf_per_numeral_text():
    e = parse_exp("(7 + 7) * 07")
    assert e.left.left is e.left.right
    assert e.right == Const(7) and e.right is not e.left.left
    # "0" to "255" share one leaf across calls; any other numeral is fresh.
    assert parse_exp("7") is parse_exp("7") is e.left.left
    assert parse_exp("255") is parse_exp("(255)")
    for text, value in (("256", 256), ("07", 7)):
        leaf = parse_exp(text)
        assert leaf == Const(value) and leaf is not parse_exp(text)


def assert_twins(tree, twin):
    """``tree`` behaves exactly like ``twin``, built by ``BinOp(...)``."""
    assert tree == twin and not tree != twin
    assert hash(tree) == hash(twin)
    assert repr(tree) == repr(twin)
    for clone in copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e)):
        tree_clone, twin_clone = clone(tree), clone(twin)
        assert type(tree_clone) is type(twin_clone) and tree_clone == twin_clone == twin
    todo = [(tree, twin)]
    while todo:  # class patterns, node by node
        match todo.pop():
            case (BinOp(op, left, right), BinOp(twin_op, twin_left, twin_right)):
                assert op is twin_op
                todo += ((left, twin_left), (right, twin_right))
            case (Const(value), Const(twin_value)):
                assert type(value) is int and value == twin_value
            case pair:
                pytest.fail(f"nodes of different classes: {pair!r}")


@given(well_formed_text())
def test_parsed_trees_behave_like_their_constructor_built_twins(text):
    assert_twins(parse_exp(text), ref_parse_exp(text))


@pytest.mark.parametrize(
    "text", ["1 - (" * 10_000 + "1 - 2" + ")" * 10_000, "-".join(["9"] * 10_001)],
    ids=["right-nested", "left-nested"],
)
def test_deep_parsed_trees_behave_like_their_constructor_built_twins(text):
    assert_twins(parse_exp(text), ref_parse_exp(text))


def test_parse_exp_alone_builds_binops_without_init():
    # parse_exp builds each BinOp by object.__new__ and slot stores, so an
    # __init__ that BinOp or Const defined would be skipped there silently.
    package = Path(compiler.__file__).parent
    sources = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    for module in sources.values():
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef) and node.name in ("BinOp", "Const"):
                defined = [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
                defined += [ast.unparse(t) for n in node.body if isinstance(n, ast.Assign) for t in n.targets]
                assert "__init__" not in defined, node.name
    assert "__init__" not in vars(BinOp) and "__init__" not in vars(Const)

    def new_binops(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n) == "_new(BinOp)"]

    module = sources["compiler.py"]
    (parse,) = [n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "parse_exp"]
    assert 0 < len(new_binops(parse)) == len(new_binops(module))


# Numerals on both sides of the table's edge, with leading zeros and without,
# each after an operator, some of which open a parenthesis.
_NUMERAL_TEXTS = st.one_of(
    st.integers(0, 300).map(str),
    st.builds("{}{}".format, st.sampled_from(["0", "00"]), st.integers(0, 300)),
    st.sampled_from(["255", "256", "65536", "9" * 30]),
)
_AFTER_OPERATORS = st.lists(st.tuples(st.sampled_from(["+", "-", "*", " * ", "+("]), _NUMERAL_TEXTS))


@given(_NUMERAL_TEXTS, _AFTER_OPERATORS)
def test_parse_exp_takes_canonical_numerals_below_256_from_its_table(first, rest):
    text = first + "".join(op + numeral for op, numeral in rest)
    text += ")" * text.count("(")
    numerals = [first] + [numeral for _, numeral in rest]
    leaves, todo = [], [parse_exp(text)]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            todo += (node.right, node.left)
        else:
            leaves.append(node)
    assert len(leaves) == len(numerals)
    for leaf, numeral in zip(leaves, numerals):
        if str(int(numeral)) == numeral and int(numeral) < 256:
            assert leaf is parse_exp(numeral)
        else:
            assert leaf == Const(int(numeral)) and leaf is not parse_exp(numeral)


# ------------------------------------------------- trees and programs


class Negating(int):
    """An int subclass whose arithmetic leaves the naturals."""

    def __add__(self, other):
        return -1

    __mul__ = __sub__ = __add__


_VALUES = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(
        [True, False, -1, -7, 1.0, float("nan"), [1], None, "3", Small(3), Negating(2)]
    ),
)
# Mostly operations, sometimes a value that is not one (a string, None, an
# unhashable list, an int, a float).
_OPS = st.one_of(
    st.sampled_from(list(Binop)),
    st.sampled_from(list(Binop)),
    st.sampled_from(["Plus", None, [1], 1, 2.5]),
)
# Things that are not nodes of the tree they sit in.
_NON_NODES = st.sampled_from([1, None, "2", IConst(1), IBinop(Binop.PLUS), [Const(1)]])

trees = st.recursive(
    st.one_of(st.builds(Const, _VALUES), st.builds(Const, _VALUES), _NON_NODES),
    lambda inner: st.builds(BinOp, _OPS, inner, inner),
    max_leaves=25,
)


# Each kernel test also runs a subtraction whose first operand is the smaller,
# so a lost truncation fails it every time, not only when drawn.
_TRUNCATING = BinOp(Binop.MINUS, Const(1), Const(2))


def leaf_examples(test):
    """``test`` run with a negative, a bool or a non-node as either operand, beside a
    leaf or a node, under an operation and under an op that is not a ``Binop``; and on
    a bad leaf beside a first operand that is not a natural (``Negating``'s sum), as
    the interpreter checks the leaf first."""
    for op in (Binop.MINUS, "Plus"):
        for right in (Const(-1), Const(True), None):
            test = example(BinOp(op, Const(3), right))(test)
            test = example(BinOp(op, BinOp(Binop.TIMES, Const(2), Const(5)), right))(test)
            test = example(BinOp(op, right, Const(3)))(test)
    first = BinOp(Binop.PLUS, Const(Negating(2)), Const(1))
    return example(BinOp(Binop.MINUS, first, Const("3")))(test)


@given(trees)
@example(_TRUNCATING)
@leaf_examples
def test_eval_exp_matches_reference(e):
    assert outcome(eval_exp, e) == outcome(ref_eval_exp, e)


@given(trees)
@leaf_examples
def test_compilers_match_reference(e):
    assert outcome(compile_buggy, e) == outcome(ref_compile, e, True)
    assert outcome(compile_fixed, e) == outcome(ref_compile, e, False)


def test_compile_raises_key_error_for_an_op_that_is_not_a_binop():
    for compile_exp, left_first in ((compile_buggy, True), (compile_fixed, False)):
        e = BinOp("Plus", Const(1), Const(2))
        assert outcome(compile_exp, e)[:2] == ("raised", KeyError)
        assert outcome(compile_exp, e) == outcome(ref_compile, e, left_first)
        # An unhashable op cannot be looked up at all.
        e = BinOp([1], Const(1), Const(2))
        assert outcome(compile_exp, e)[:2] == ("raised", TypeError)
        assert outcome(compile_exp, e) == outcome(ref_compile, e, left_first)


def test_compile_shares_one_iconst_per_int_value():
    prog = compile_buggy(parse_exp("3 * 3 + 1"))
    assert prog[0] is prog[1]
    # Naturals below 256 share one instruction across compiles; 256 does not.
    assert compile_fixed(BinOp(Binop.TIMES, Const(3), Const(255)))[1] is prog[0]
    prog = compile_buggy(parse_exp("255 + 256"))
    assert prog[:2] == [IConst(255), IConst(256)] and prog[0] is compile_fixed(Const(255))[0]
    assert prog[1] is not compile_buggy(Const(256))[0]
    # Equal values of another type keep their own instruction.
    prog = compile_fixed(BinOp(Binop.PLUS, Const(1), Const(True)))
    assert [type(i.value) for i in prog[:2]] == [bool, int]


def chain(deepest, right_leaning, depth=10_000):
    """``depth`` operators cycling through ``Binop``, each nesting the next in
    its right or left operand beside a ``Const(1)``, down to ``deepest``."""
    e, ops = deepest, tuple(Binop)
    for i in range(depth):
        op = ops[i % 3]
        e = BinOp(op, Const(1), e) if right_leaning else BinOp(op, e, Const(1))
    return e


_DEEPEST = {"clean": Const(2), "non-node": "2", "negative": Const(-1)}


@pytest.mark.parametrize("deepest", list(_DEEPEST))
@pytest.mark.parametrize("leaning", ["right", "left"])
def test_deep_chains_match_reference(leaning, deepest):
    # A chain leaning away from the first operand pushes a continuation for
    # every operator: right for eval_exp and compile_buggy, left for compile_fixed.
    e = chain(_DEEPEST[deepest], leaning == "right")
    assert outcome(eval_exp, e) == outcome(ref_eval_exp, e)
    assert outcome(compile_buggy, e) == outcome(ref_compile, e, True)
    assert outcome(compile_fixed, e) == outcome(ref_compile, e, False)
    # Under a root whose op is not a Binop, the chain as second operand is
    # walked before the op is looked up: a non-node's TypeError comes first.
    clean = chain(Const(2), leaning == "right")
    for compile_exp, left_first in ((compile_buggy, True), (compile_fixed, False)):
        root = BinOp("Plus", clean, e) if left_first else BinOp("Plus", e, clean)
        expected = outcome(ref_compile, root, left_first)
        assert expected[1] is {"clean": KeyError, "non-node": TypeError, "negative": KeyError}[deepest]
        assert outcome(compile_exp, root) == expected
    root = BinOp("Plus", clean, e)
    assert outcome(eval_exp, root) == outcome(ref_eval_exp, root)


instructions = st.one_of(
    st.builds(IConst, _VALUES),
    st.builds(IConst, _VALUES),
    st.builds(IBinop, _OPS),
    st.builds(IBinop, _OPS),
    _NON_NODES,
)


@settings(max_examples=300)
@given(st.lists(instructions, max_size=20), st.lists(_VALUES, max_size=4))
@example([IBinop(Binop.MINUS)], [1, 2])
def test_run_prog_matches_reference(p, s):
    assert outcome(run_prog, p, s) == outcome(ref_run_prog, p, s)


@given(trees)
@example(_TRUNCATING)
def test_run_prog_of_compiled_trees_matches_reference(e):
    for compile_exp in (compile_buggy, compile_fixed):
        try:
            p = compile_exp(e)
        except Exception:  # noqa: BLE001 - compile parity is tested above
            continue
        assert outcome(run_prog, p, []) == outcome(ref_run_prog, p, [])


# ------------------------------------------------------------ rendering


@given(trees)
def test_show_value_of_compiled_programs_matches_reference(e):
    for compile_exp in (compile_buggy, compile_fixed):
        try:
            p = compile_exp(e)
        except Exception:  # noqa: BLE001 - compile parity is tested above
            continue
        assert outcome(show_value, p) == outcome(ref_show_prog, p)
        assert outcome(show_value, tuple(p)) == outcome(ref_show_prog, p)


# The text table's edges, and values equal to a natural in it that must not
# read from it: a bool and an int subclass.
@pytest.mark.parametrize("value", [0, 7, 255, 256, -1, True, False, Small(3), 10**30, "3", None])
def test_show_value_of_an_iconst_matches_reference(value):
    instr = IConst(value)
    assert outcome(show_value, instr) == outcome(ref_show_instr, instr)
    assert outcome(show_value, [instr]) == outcome(ref_show_prog, [instr])


@pytest.mark.parametrize("op", ["Plus", [1], None, 1, *Binop])
def test_show_value_of_an_ibinop_matches_reference(op):
    instr = IBinop(op)
    assert outcome(show_value, instr) == outcome(ref_show_instr, instr)
    assert outcome(show_value, [instr]) == outcome(ref_show_prog, [instr])


# ------------------------------------------- the benchmark's compiler ops


def load_workloads():
    """``bench/workloads.py``, loaded from its file: the benchmark's op streams."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_the_benchmarks_compiler_ops_match_the_references():
    # Two blocks for each of three seeds, as the benchmark draws them with gen_tree and
    # tree_text: 240 trees, 12 of them of 1,001 nodes, through every kernel together.
    workloads = load_workloads()
    blocks = [islice(workloads.Compiler().blocks(seed, None), 2) for seed in (1, 2, 3)]
    ops = [op for seed_blocks in blocks for block in seed_blocks for op in block]
    assert Counter(op[5] for op in ops) == {11: 168, 101: 60, 1001: 12}  # nodes per tree
    for _kind, _variant, text, _eager, _expected, _nodes in ops:
        tree = parse_exp(text)
        assert repr(tree) == repr(ref_parse_exp(text))
        assert eval_exp(tree) == ref_eval_exp(tree)
        for compile_exp, left_first in ((compile_buggy, True), (compile_fixed, False)):
            prog = compile_exp(tree)
            assert repr(prog) == repr(ref_compile(tree, left_first))
            assert run_prog(prog, []) == ref_run_prog(prog, [])
            assert show_value(prog) == ref_show_prog(prog)
