"""Deferred evidence against the evidence-eager reference in ``spec``.

The library keeps a decision's text as a format string and arguments and
joins it on first read; ``spec`` formats every summary while deciding.  On
random predicate trees both must give the same arm, summary, render, or the
same exception.  The hazards of deferral get their own tests: values mutated
after a decision, brace text from callers, deep chains, concurrent first
reads, and the read-only record layout that carries the evidence and every
other value type.
"""

import copy
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import gradcast
import spec
from gradcast.casts import Attested, FailedCast, cast, proj1, proj2
from gradcast.compiler import BinOp, Binop, Const, IBinop, IConst, parse_exp
from gradcast.hocasts import IList
from gradcast.instances import _EQ_REFL, EqDec
from gradcast.predicates import (
    Holds,
    Pred,
    PredFamily,
    Refutes,
)

LIB, REF = gradcast, spec


def build(desc, ns):
    """The predicate a tree description stands for, built from ``ns``."""
    kind, *args = desc
    if kind in ("lt", "gt", "ge"):
        return getattr(ns, f"pred_{kind}_const")(args[0])
    if kind == "eq":
        return ns.pred_equals(ns.eq_nat(), args[0])
    if kind == "eqb":
        return ns.pred_equals(ns.eq_bool(), args[0])
    if kind == "eql":
        return ns.pred_equals(ns.eq_list(ns.eq_nat()), list(args[0]))
    if kind == "eqll":
        expected = [list(xs) for xs in args[0]]
        return ns.pred_equals(ns.eq_list(ns.eq_list(ns.eq_nat())), expected)
    if kind == "true":
        return ns.p_true()
    if kind == "false":
        return ns.p_false()
    if kind == "proven":
        return ns.p_proven(args[0])
    if kind == "relate":
        k = args[0]
        return ns.p_relate(lambda n: n % (k + 1) == 0, lambda n: f"{n} mod {k + 1} = 0")
    if kind == "forall":
        k, body = args
        return ns.p_forall_bounded(k, lambda n: build(body, ns))
    if kind == "not":
        return ns.p_not(build(args[0], ns))
    if kind == "equiv":
        inner = build(args[0], ns)
        return ns.p_equivalent(inner, lambda a: f"[{inner.render(a)}]", args[1])
    left, right = build(args[0], ns), build(args[1], ns)
    return getattr(ns, f"p_{kind}")(left, right)


def outcome(p, a):
    """What a caller sees: the arm and the evidence (its summary read twice)
    of the decision, or the exception that deciding or reading raised; and
    the render."""
    try:
        verdict = p.decide(a)
        evidence = verdict.evidence if isinstance(verdict, Holds) else verdict.refutation
        first, second = evidence.summary, evidence.summary
        assert first == second
        decided = (type(verdict).__name__, first, evidence)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        decided = ("raised", type(exc), str(exc))
    try:
        rendered = ("render", p.render(a))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        rendered = ("raised", type(exc), str(exc))
    return decided, rendered


TEXTS = st.one_of(
    st.sampled_from(["{}", "{0} {}", "{{x}}", "}{", "{0}{1}", "plain"]), st.text(max_size=4)
)
NATS = st.integers(0, 60)
FLAT = st.lists(st.integers(0, 3), max_size=4)
NESTED = st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=3)

NAT_LEAVES = st.one_of(
    st.tuples(st.sampled_from(["lt", "gt", "ge", "eq", "relate"]), NATS),
    st.tuples(st.just("true")),
    st.tuples(st.just("false")),
    st.tuples(st.just("proven"), TEXTS),
)
DOMAINS = {
    "nat": (NATS, NAT_LEAVES),
    "flat": (FLAT, st.tuples(st.just("eql"), FLAT)),
    "nested": (NESTED, st.tuples(st.just("eqll"), NESTED)),
    "bool": (st.booleans(), st.tuples(st.just("eqb"), st.booleans())),
}
# Now and then a leaf that renders every value but cannot decide every
# domain: deciding it raises on both sides.  A leaf whose render could raise
# is kept to its own domain, since the library formats a refutation only
# when it is read, and a discarded one never.
ANY_LEAF = st.one_of(
    st.tuples(st.sampled_from(["eq", "relate"]), NATS), st.tuples(st.just("eqb"), st.booleans())
)


FAMILIES = st.one_of(NAT_LEAVES, st.tuples(st.just("not"), NAT_LEAVES))


@st.composite
def trees(draw, leaf, depth):
    """A tree description of at most ``depth`` combinator levels; one node in
    five is a leaf before the bottom."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(leaf)
    kind = draw(st.sampled_from(["and", "or", "implies", "not", "equiv", "forall"]))
    if kind == "not":
        return (kind, draw(trees(leaf, depth - 1)))
    if kind == "equiv":
        return (kind, draw(trees(leaf, depth - 1)), draw(TEXTS))
    if kind == "forall":
        return (kind, draw(st.integers(0, 4)), draw(FAMILIES))
    return (kind, draw(trees(leaf, depth - 1)), draw(trees(leaf, depth - 1)))


@st.composite
def cases(draw):
    values, leaves = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    leaf = st.one_of(leaves, leaves, leaves, ANY_LEAF)
    return draw(trees(leaf, 5)), draw(values)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_random_trees_match_the_eager_reference(case):
    desc, value = case
    lib = outcome(build(desc, LIB), value)
    ref = outcome(build(desc, REF), value)
    assert lib == ref  # deferred and eager evidence compare by their text
    if lib[0][0] != "raised":
        lib_evidence, ref_evidence = lib[0][2], ref[0][2]
        assert hash(lib_evidence) == hash(ref_evidence)
        assert repr(lib_evidence) == repr(ref_evidence)
        assert format(lib_evidence) == format(ref_evidence)


def spec_evidence(verdict):
    return verdict.evidence if isinstance(verdict, Holds) else verdict.refutation


# -- values mutated after a decision ----------------------------------------


@pytest.mark.parametrize(
    "make, value, mutate",
    [
        (lambda ns: ns.pred_equals(ns.eq_list(ns.eq_nat()), [1, 3]), [1, 2],
         lambda v: v.__setitem__(1, 3)),
        (lambda ns: ns.pred_equals(ns.eq_list(ns.eq_list(ns.eq_nat())), [[1], [3]]),
         [[1], [2]], lambda v: v[1].__setitem__(0, 3)),
        (lambda ns: ns.pred_equals(ns.eq_list(ns.eq_nat()), [1, 3]), [1, 2, 5],
         lambda v: v.pop()),
        (lambda ns: ns.p_not(ns.pred_equals(ns.eq_list(ns.eq_nat()), [1, 2])), [1, 2],
         lambda v: v.append(7)),
        (lambda ns: ns.p_and(ns.p_true(), ns.pred_equals(ns.eq_list(ns.eq_nat()), [4])),
         [5], lambda v: v.append(6)),
        (lambda ns: ns.p_implies(ns.p_true(), ns.pred_equals(ns.eq_bool(), [True])), [False],
         lambda v: v.__setitem__(0, True)),
    ],
)
def test_mutating_a_value_after_a_refutation_leaves_its_summary_unchanged(make, value, mutate):
    expected = spec_evidence(make(REF).decide(value)).summary
    verdict = make(LIB).decide(value)
    mutate(value)
    assert isinstance(verdict, Refutes)
    assert verdict.refutation.summary == expected


class Labelled(int):
    """A natural whose text depends on state that can change."""

    label = "a"

    def __format__(self, spec):
        return f"{int(self)}{self.label}"


@pytest.mark.parametrize(
    "make",
    [
        lambda ns: ns.pred_ge_const(3),
        lambda ns: ns.pred_ge_const(7),
        lambda ns: ns.pred_equals(ns.eq_nat(), 4),
    ],
)
def test_an_int_subclass_is_shown_as_it_was_when_decided(make, monkeypatch):
    expected = spec_evidence(make(REF).decide(Labelled(5))).summary
    verdict = make(LIB).decide(Labelled(5))
    monkeypatch.setattr(Labelled, "label", "b")
    assert "5a" in expected
    assert spec_evidence(verdict).summary == expected


# -- caller text is never a format string ------------------------------------


@pytest.mark.parametrize(
    "make, value, expected",
    [
        (lambda ns: ns.p_proven("{0} {}"), 5, "{0} {}"),
        (lambda ns: ns.p_and(ns.p_proven("{0} {}"), ns.p_proven("{}")), 5, "{0} {} and {}"),
        (lambda ns: ns.p_equivalent(ns.p_true(), lambda _a: "x", "{}"), 5,
         "trivially true (via equivalence: {})"),
        (lambda ns: ns.p_equivalent(ns.p_false(), lambda _a: "x", "{0}"), 5,
         "False never holds (via equivalence: {0})"),
        (lambda ns: ns.p_not(ns.p_relate(lambda _a: True, lambda _a: "{0}{1}")), 5,
         "negated proposition holds: {0}{1}"),
        (lambda ns: ns.p_and(ns.p_relate(lambda _a: False, lambda _a: "{0}{1}"), ns.p_true()), 5,
         "left conjunct refuted: {0}{1}"),
    ],
)
def test_brace_text_is_read_verbatim_twice(make, value, expected):
    assert spec_evidence(make(REF).decide(value)).summary == expected
    evidence = spec_evidence(make(LIB).decide(value))
    assert evidence.summary == expected
    assert evidence.summary == expected


def test_caller_values_that_look_like_pending_text_are_shown_as_text():
    for value in [("{}", ("x",)), (format, "x"), ["{}"]]:
        assert gradcast.p_proven(value).decide(None).evidence.summary == str(value)
        why = gradcast.p_equivalent(gradcast.p_true(), str, value).decide(None).evidence
        assert why.summary == f"trivially true (via equivalence: {value})"


# -- depth and concurrency ---------------------------------------------------


def chain(ns, depth):
    p = ns.pred_lt_const(10)
    for _ in range(depth):
        p = ns.p_and(p, ns.pred_gt_const(2))
    return p


def test_a_depth_900_conjunction_chain_decides_and_reads_its_summary():
    verdict = chain(LIB, 900).decide(5)
    assert isinstance(verdict, Holds)
    expected = "6 <= 10 by arithmetic" + " and 3 <= 5 by arithmetic" * 900
    assert verdict.evidence.summary == expected
    assert verdict.evidence == spec.p_proven(expected).decide(None).evidence


def test_a_depth_900_conjunction_chain_reads_its_summary_through_proj2_and_repr():
    expected = "6 <= 10 by arithmetic" + " and 3 <= 5 by arithmetic" * 900
    p = chain(LIB, 900)
    assert proj2(cast(p, 5)).summary == expected
    assert repr(p.decide(5)) == f"Holds(evidence=Evidence({expected!r}))"


def test_concurrent_first_reads_of_one_deferred_text_all_get_the_reference_text():
    expected = "6 <= 10 by arithmetic" + " and 3 <= 5 by arithmetic" * 300
    p = chain(LIB, 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            evidence = p.decide(5).evidence  # fresh, so every thread may join it
            barrier = threading.Barrier(8)
            texts = []

            def read(evidence=evidence, barrier=barrier, texts=texts):
                barrier.wait(timeout=10)
                texts.append(evidence.summary)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert texts == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_read_raises_what_the_eager_reference_meets_first():
    def refuted_with_failing_render(name):
        def render(_a):
            raise LookupError(name)

        return lambda ns: ns.p_and(ns.p_relate(lambda _a: False, render), ns.p_true())

    left, right = refuted_with_failing_render("left"), refuted_with_failing_render("right")

    def make(ns):
        return ns.p_and(ns.p_not(left(ns)), ns.p_not(right(ns)))

    with pytest.raises(LookupError, match="left"):
        make(REF).decide(5)
    verdict = make(LIB).decide(5)  # nothing is formatted yet
    for _ in range(2):
        with pytest.raises(LookupError, match="left"):
            verdict.evidence.summary  # noqa: B018 - the read is what raises


# -- evidence nobody reads is never formatted --------------------------------


def test_a_holding_cast_does_not_fail_on_evidence_text_nobody_reads():
    big = 10**5000
    for p in (gradcast.pred_lt_const(big), gradcast.p_not(gradcast.pred_equals(gradcast.eq_nat(), big))):
        refined = cast(p, 5)
        assert isinstance(refined, Attested)
        assert proj1(refined) == 5
        with pytest.raises(ValueError, match="integer string conversion"):
            refined.evidence.summary  # noqa: B018 - the read is what raises
    # The reference formats while deciding, so it raises in the cast.
    with pytest.raises(ValueError, match="integer string conversion"):
        cast(spec.pred_lt_const(big), 5)


# -- the records ---------------------------------------------------------------


def records():
    holds = gradcast.pred_lt_const(10).decide(5)
    refutes = gradcast.pred_lt_const(10).decide(15)
    return [
        (holds, ("evidence",)),
        (refutes, ("refutation",)),
        (cast(gradcast.pred_lt_const(10), 5), ("value", "pred", "evidence")),
        (cast(gradcast.pred_lt_const(10), 15), ("value_text", "prop_text")),
    ]


def test_records_refuse_field_assignment_and_deletion():
    for record, fields in records():
        assert type(record).__match_args__ == fields
        for name in fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, "forged")
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1


def test_the_shared_equality_verdict_cannot_be_re_pointed():
    forged = gradcast.pred_lt_const(10).decide(5).evidence
    with pytest.raises(AttributeError):
        _EQ_REFL.evidence = forged
    assert _EQ_REFL.evidence.summary == "eq_refl"
    assert gradcast.eq_nat().eq_decide(3, 3) is _EQ_REFL


def test_records_construct_match_print_compare_and_hash_like_dataclasses():
    evidence = gradcast.p_proven("x").decide(None).evidence
    assert Holds(evidence) == Holds(evidence=evidence)
    assert Holds(evidence) != Refutes(evidence)
    assert hash(Holds(evidence)) == hash((evidence,))
    assert repr(Holds(evidence)) == "Holds(evidence=Evidence('x'))"
    assert repr(Refutes(refutation=evidence)) == "Refutes(refutation=Evidence('x'))"

    failed = FailedCast("15", "16 <= 10")
    assert failed == FailedCast(value_text="15", prop_text="16 <= 10")
    assert failed != FailedCast("15", "17 <= 10")
    assert hash(failed) == hash(("15", "16 <= 10"))
    assert repr(failed) == "FailedCast(value_text='15', prop_text='16 <= 10')"
    assert failed != ("15", "16 <= 10")

    p = gradcast.pred_lt_const(10)
    attested = spec.issued(Attested, value=5, pred=p, evidence=evidence)
    assert attested == spec.issued(Attested, 5, p, evidence)
    assert repr(attested) == "Attested(value=5, prop_text='6 <= 10', evidence=Evidence('x'))"
    assert hash(attested) == hash((5, "6 <= 10", evidence))

    for verdict in (Holds(evidence), Refutes(evidence), attested, failed):
        match verdict:
            case Holds(e):
                assert e is evidence
            case Refutes(refutation=e):
                assert e is evidence
            case Attested(5, pred, evidence=e):
                assert pred is p and e is evidence
            case FailedCast(value_text, prop_text="16 <= 10"):
                assert value_text == "15"
            case _:
                pytest.fail(f"no pattern matched {verdict!r}")


# Every value type, built from fields whose repr is stable and that pickle.
VALUE_TYPES = [
    (Pred, (bool, str), "Pred(decide=<class 'bool'>, render=<class 'str'>)"),
    (PredFamily, (len,), "PredFamily(at=<built-in function len>)"),
    (EqDec, (divmod, str), "EqDec(eq_decide=<built-in function divmod>, render_value=<class 'str'>)"),
    (Const, (7,), "Const(value=7)"),
    (
        BinOp,
        (Binop.MINUS, Const(1), Const(2)),
        "BinOp(op=<Binop.MINUS: 'Minus'>, left=Const(value=1), right=Const(value=2))",
    ),
    (IConst, (0,), "IConst(value=0)"),
    (IBinop, (Binop.TIMES,), "IBinop(op=<Binop.TIMES: 'Times'>)"),
    (IList, (2, (0, 5)), "IList(length=2, items=(0, 5))"),
]


def fields_by_keyword_pattern(value):
    match value:
        case Pred(decide=decide, render=render):
            return decide, render
        case PredFamily(at=at):
            return (at,)
        case EqDec(eq_decide=eq_decide, render_value=render_value):
            return eq_decide, render_value
        case Const(value=v) | IConst(value=v):
            return (v,)
        case BinOp(op=op, left=left, right=right):
            return op, left, right
        case IBinop(op=op):
            return (op,)
        case IList(length=length, items=items):
            return length, items
    pytest.fail(f"no pattern matched {value!r}")


@pytest.mark.parametrize(
    "cls, args, shown", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
)
def test_every_value_type_is_a_record_with_the_dataclass_contract(cls, args, shown):
    value = cls(*args)
    assert value == cls(**dict(zip(cls.__match_args__, args)))
    assert fields_by_keyword_pattern(value) == args
    assert repr(value) == shown
    assert value != args
    assert hash(value) == hash(args)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_value_type_reprs_are_pinned_through_their_constructors():
    assert repr(parse_exp("1+2*3")) == (
        "BinOp(op=<Binop.PLUS: 'Plus'>, left=Const(value=1), right=BinOp(op=<Binop.TIMES: "
        "'Times'>, left=Const(value=2), right=Const(value=3)))"
    )


def test_importing_the_package_does_not_load_dataclasses():
    probe = "import sys, gradcast, gradcast.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
