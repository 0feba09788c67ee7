"""The cast core's builders: records made without ``__init__``.

``predicates._holds``/``_refutes``, ``casts._attested``/``_failed`` and
``cast_rat`` make their records with ``object.__new__`` and slot stores.
These tests check that each such record is indistinguishable from a twin made
by its record base's constructor (``spec.issued``), that no cast anywhere runs
a record constructor, that ``Evidence``, ``Rat`` and ``Attested`` refuse every
constructor call, that ``Holds`` and ``Refutes`` take only an ``Evidence``, that
a ``decide`` returning something other than a decision is refused rather than
taken for an arm, also under a combinator, and that no module of the package
builds a refined value outside the two builders, stores a private slot outside
the writers that ``records`` names, reads one outside the readers it names, or
calls a refusing constructor.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import gradcast
import spec
from gradcast.casts import (
    Attested,
    CastFault,
    FailedCast,
    FailureMode,
    cast,
    map_cast,
    proj1,
    proj2,
)
from gradcast.compiler import checked_compile, parse_exp, runc
from gradcast.hocasts import cast_forall_range, cast_fun_dom, cast_fun_range
from gradcast.instances import (
    EqDec,
    eq_list,
    eq_nat,
    eq_option,
    pred_equals,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import (
    Evidence,
    Holds,
    Pred,
    PredFamily,
    Refutes,
    _holds,
    _refutes,
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
    _RATIONAL_EVIDENCE,
    RAT_INVARIANTS,
    AttestedRat,
    FailedCastRat,
    IrredStrategy,
    Rat,
    cast_rat,
)

LT10 = pred_lt_const(10)
EAGER = FailureMode.EAGER
IRREDUCIBLE_5_6 = "forall x y z, y * x = 5 /\\ z * x = 6 -> 1 = x"
IRREDUCIBLE_5_10 = "forall x y z, y * x = 5 /\\ z * x = 10 -> 1 = x"


# --- builder-built verdicts against spec's constructor-built references ----

VERDICTS = [
    (_holds, spec._holds, ("trivially true",), "trivially true"),
    (_holds, spec._holds, ("{} <= {} by arithmetic", 6, 10), "6 <= 10 by arithmetic"),
    (_refutes, spec._refutes, ("{} <= {} is false: {} < {}", 16, 10, 10, 16), "16 <= 10 is false: 10 < 16"),
    (_holds, spec._holds, ("{} and {}", _holds("a").evidence, _holds("{}", "b").evidence), "a and b"),
    (_refutes, spec._refutes, ("{} <> {}", (format, 2), (format, True)), "2 <> True"),
    (_holds, spec._holds, ("{}", "{not a field}"), "{not a field}"),
    (_refutes, spec._refutes, ("text {} with braces",), "text {} with braces"),
]


@pytest.mark.parametrize("build, reference, args, summary", VERDICTS)
def test_builder_verdicts_match_their_constructor_built_references(build, reference, args, summary):
    ref = reference(summary)
    # A fresh verdict per check, so each check is the first read of its text.
    for check in (
        lambda v: type(v) is type(ref),
        lambda v: [e.summary for e in (getattr(v, "evidence", None), getattr(v, "refutation", None)) if e]
        == [summary],
        lambda v: v == ref and ref == v,
        lambda v: hash(v) == hash(ref),
        lambda v: repr(v) == repr(ref),
    ):
        assert check(build(*args))
    match build(*args):
        case Holds(evidence):
            assert type(ref) is Holds and evidence == ref.evidence
        case Refutes(refutation):
            assert type(ref) is Refutes and refutation == ref.refutation


# --- refined values from cast and cast_rat against record-base twins ------

_RAT_5_6 = proj1(cast_rat(True, 5, 6))


def _twin_rat():
    return spec.issued(Rat, True, 5, 6)


REFINED = {
    "attested": (
        lambda: cast(LT10, 5),
        lambda: spec.issued(Attested, 5, LT10, spec._holds("6 <= 10 by arithmetic").evidence),
    ),
    "attested-rat-pred": (
        lambda: cast(RAT_INVARIANTS, _RAT_5_6),
        lambda: spec.issued(
            Attested, _twin_rat(), RAT_INVARIANTS, spec._holds(_RATIONAL_EVIDENCE.summary).evidence
        ),
    ),
    "failed": (
        lambda: cast(LT10, 15),
        lambda: FailedCast("15", "16 <= 10"),
    ),
    "attested-rat": (
        lambda: cast_rat(True, 5, 6),
        lambda: spec.issued(AttestedRat, _twin_rat(), RAT_INVARIANTS, _RATIONAL_EVIDENCE),
    ),
    "failed-rat": (
        lambda: cast_rat(True, 5, 10, strategy=IrredStrategy.BINARY_BOUNDED),
        lambda: FailedCastRat("mkRat true 5 10", IRREDUCIBLE_5_10),
    ),
}
PICKLABLE = {"attested-rat-pred", "failed", "attested-rat", "failed-rat"}  # LT10 holds closures


def _pattern(r):
    match r:
        case Attested(value, pred, evidence):
            return "attested", value, pred, evidence
        case FailedCast(value_text, prop_text):
            return "failed", value_text, prop_text
    return None


@pytest.mark.parametrize("name", sorted(REFINED))
def test_refined_values_match_twins_built_by_their_record_bases(name):
    build, make_twin = REFINED[name]
    twin = make_twin()
    copies = [lambda r: r, copy.copy, copy.deepcopy]
    if name in PICKLABLE:
        copies.append(lambda r: pickle.loads(pickle.dumps(r)))
    for made in copies:
        value = made(build())
        assert type(value) is type(twin)
        assert value == twin and twin == value and not value != twin
        assert hash(value) == hash(twin)
        assert repr(value) == repr(twin)
        assert _pattern(value) == _pattern(twin) is not None
    built = build()
    if isinstance(twin, Attested):
        assert proj1(built) == proj1(twin) and proj2(built) == proj2(twin)
        assert built.prop_text == twin.prop_text
    else:
        assert (built.value_text, built.prop_text) == (twin.value_text, twin.prop_text)


def test_attested_rat_reads_its_fields_through_the_built_rat():
    built = cast_rat(False, 3, 4)
    assert (built.sign, built.top, built.bottom) == (False, 3, 4)
    assert repr(cast_rat(True, 5, 6)).startswith(
        f"AttestedRat(value=Rat(sign=True, top=5, bottom=6), prop_text={IRREDUCIBLE_5_6!r}"
    )


# --- no cast runs a record constructor --------------------------------------


def _refuse(self, *args, **kwargs):
    raise AssertionError(f"{type(self).__name__}.__init__ ran")


def _outcome(run):
    try:
        result = run()
    except CastFault as fault:
        return ("fault", str(fault), fault.value_text, fault.prop_text)
    return ("returned", result, repr(result))


SCENARIOS = {
    "single": lambda m: cast(LT10, 5, m),
    "single-fails": lambda m: cast(LT10, 15, m),
    "combinators": lambda m: [
        cast(p_and(LT10, pred_gt_const(2)), 5, m),
        cast(p_or(pred_gt_const(20), p_not(LT10)), 12, m),
        cast(p_forall_bounded(3, pred_lt_const), None, m),
        cast(p_relate(lambda n: n % 2 == 0, lambda n: f"{n} even"), 4, m),
    ],
    "combinator-fails": lambda m: cast(p_and(LT10, pred_gt_const(2)), 1, m),
    "forall-fails": lambda m: cast(p_forall_bounded(3, lambda n: pred_lt_const(2)), None, m),
    "eq-list": lambda m: cast(pred_equals(eq_list(eq_nat()), [1, 2]), [1, 2], m),
    "eq-list-fails": lambda m: cast(pred_equals(eq_list(eq_nat()), [1, 2]), [1, 3], m),
    "map-cast": lambda m: map_cast(LT10, [1, 3, 9], m),
    "map-cast-fails": lambda m: map_cast(LT10, [1, 12, 3], m),
    "fun-range": lambda m: cast_fun_range(LT10, lambda n: n + 1, m)(3),
    "fun-range-fails": lambda m: cast_fun_range(LT10, lambda n: n + 1, m)(20),
    "fun-dom": lambda m: cast_fun_dom(LT10, proj1, m)(3),
    "fun-dom-fails": lambda m: cast_fun_dom(LT10, lambda r: r, m)(20),
    "fun-dom-ignored": lambda m: cast_fun_dom(LT10, lambda r: 1, m)(20),
    "forall-range": lambda m: cast_forall_range(
        PredFamily(at=pred_lt_const), lambda n: n - 1 if n % 2 else n, m
    )(5),
    "forall-range-fails": lambda m: cast_forall_range(PredFamily(at=pred_lt_const), lambda n: n, m)(4),
    "runc-fixed": lambda m: runc(checked_compile("fixed", m), parse_exp("(3-1)*4+2")),
    "runc-buggy": lambda m: runc(checked_compile("buggy", m), parse_exp("2-1")),
    "checked-compile": lambda m: [checked_compile(v, m)(parse_exp("1+2")) for v in ("fixed", "buggy")],
    **{
        f"cast-rat-{s.value}": lambda m, s=s: [cast_rat(True, 5, 6, s, m), cast_rat(False, 0, 1, s, m)]
        for s in IrredStrategy
    },
    **{f"cast-rat-{s.value}-fails": lambda m, s=s: cast_rat(True, 5, 10, s, m) for s in IrredStrategy},
    **{f"cast-rat-{s.value}-zero": lambda m, s=s: cast_rat(False, 1, 0, s, m) for s in IrredStrategy},
}


@pytest.mark.parametrize("mode", list(FailureMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_casts_return_the_same_without_any_record_constructor(name, mode, monkeypatch):
    run = SCENARIOS[name]
    expected = _outcome(lambda: run(mode))
    for cls in (Evidence, Holds, Refutes, Attested, FailedCast):
        monkeypatch.setattr(cls, "__init__", _refuse)
    with pytest.raises(AssertionError, match="Holds.__init__ ran"):
        Holds(None)  # the patch is in place
    with pytest.raises(AssertionError, match="AttestedRat.__init__ ran"):
        AttestedRat(None, None, None)  # and reaches the subclasses
    assert _outcome(lambda: run(mode)) == expected


# --- issued records refuse every constructor call ---------------------------

EVIDENCE_REFUSED = (
    r"^Evidence cannot be constructed directly; it is only issued by decision procedures$"
)
RAT_REFUSED = r"^Rat cannot be constructed directly; use cast_rat$"
_EVIDENCE_5 = cast(LT10, 5).evidence
REFUSED = [
    (Evidence, EVIDENCE_REFUSED, ("forged",), {"text": "forged"}),
    (Evidence, EVIDENCE_REFUSED, ("{}", ("forged",)), {"text": "{}", "args": ("forged",)}),
    (Rat, RAT_REFUSED, (True, 1, 2), {"sign": True, "top": 1, "bottom": 2}),
    *[
        (cls, rf"^{cls.__name__} cannot be constructed directly; a cast issues it$", fields,
         dict(zip(("value", "pred", "evidence"), fields)))
        for cls, fields in [
            (Attested, (15, LT10, _EVIDENCE_5)),
            (AttestedRat, (_RAT_5_6, RAT_INVARIANTS, _RATIONAL_EVIDENCE)),
        ]
    ],
]


@pytest.mark.parametrize(
    "cls, message, args, kwargs", REFUSED, ids=[f"{r[0].__name__}-{len(r[2])}" for r in REFUSED]
)
def test_evidence_rat_and_attested_constructors_refuse_every_call(cls, message, args, kwargs):
    key = object()
    calls = [
        lambda: cls(*args),
        lambda: cls(**kwargs),
        lambda: cls(*args, key),  # where the private key used to go
        lambda: cls(*args, _key=key),
        lambda: cls(),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=message):
            call()


# --- a decide that returns no decision --------------------------------------

BOOLEAN = Pred(decide=lambda a: True, render=lambda a: f"{a} ok")
NOTHING = Pred(decide=lambda a: None, render=lambda a: f"{a} ok")
NOT_A_DECISION = r"^decide returned {}, not Holds or Refutes; wrap a boolean decider in p_relate$"


@pytest.mark.parametrize(
    "run",
    [
        lambda p: cast(p, 3),
        lambda p: cast(p, 3, EAGER),
        lambda p: map_cast(p, [3]),
        lambda p: map_cast(p, [3], EAGER),
        lambda p: cast_fun_range(p, lambda n: n)(3),
        lambda p: cast_fun_dom(p, proj1, EAGER)(3),
    ],
    ids=["lazy", "eager", "map-cast", "map-cast-eager", "fun-range", "fun-dom-eager"],
)
@pytest.mark.parametrize("pred, kind", [(BOOLEAN, "bool"), (NOTHING, "NoneType")], ids=["bool", "none"])
def test_a_decide_returning_no_decision_raises_type_error(run, pred, kind):
    with pytest.raises(TypeError, match=NOT_A_DECISION.format(kind)):
        run(pred)


def _lists_over(decide):
    return lambda: pred_equals(eq_list(EqDec(eq_decide=decide, render_value=str)), [1])


# A combinator or derived equality whose child decides True (BOOLEAN) or None
# (NOTHING), each read where a decision's other arm would be; cast at 3 unless
# CHILD_INPUT names another input.
CHILD_NOT_A_DECISION = {
    "not-bool": (lambda: p_not(BOOLEAN), "bool"),
    "not-none": (lambda: p_not(NOTHING), "NoneType"),
    "and-left": (lambda: p_and(BOOLEAN, p_true()), "bool"),
    "and-right": (lambda: p_and(p_true(), NOTHING), "NoneType"),
    "or-left": (lambda: p_or(NOTHING, p_false()), "NoneType"),
    "or-right": (lambda: p_or(p_false(), BOOLEAN), "bool"),
    "or-left-before-right-holds": (lambda: p_or(NOTHING, p_true()), "NoneType"),
    "implies-antecedent": (lambda: p_implies(BOOLEAN, NOTHING), "bool"),
    "implies-antecedent-none": (lambda: p_implies(NOTHING, p_true()), "NoneType"),
    "implies-consequent": (lambda: p_implies(p_true(), NOTHING), "NoneType"),
    "implies-consequent-bool": (lambda: p_implies(p_true(), BOOLEAN), "bool"),
    "forall": (lambda: p_forall_bounded(2, lambda n: BOOLEAN), "bool"),
    "forall-last": (
        lambda: p_forall_bounded(2, lambda n: NOTHING if n == 2 else p_true()),
        "NoneType",
    ),
    "eq-list-false": (_lists_over(lambda a, b: False), "bool"),
    "eq-list-none": (_lists_over(lambda a, b: None), "NoneType"),
    "eq-option": (
        lambda: pred_equals(eq_option(EqDec(eq_decide=lambda a, b: 0, render_value=str)), 1),
        "int",
    ),
}
CHILD_INPUT = {
    "forall": None, "forall-last": None, "eq-list-false": [2], "eq-list-none": [2], "eq-option": 2
}


@pytest.mark.parametrize("mode", list(FailureMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(CHILD_NOT_A_DECISION))
def test_a_child_decide_returning_no_decision_raises_type_error(name, mode):
    make, kind = CHILD_NOT_A_DECISION[name]
    with pytest.raises(TypeError, match=NOT_A_DECISION.format(kind)):
        cast(make(), CHILD_INPUT.get(name, 3), mode)


def test_p_relate_turns_a_boolean_decider_into_a_decision():
    assert proj1(cast(p_relate(BOOLEAN.decide, BOOLEAN.render), 3)) == 3
    failed = cast(p_relate(lambda a: False, BOOLEAN.render), 3)
    assert failed == FailedCast("3", "3 ok")


# --- a decision carries evidence or nothing ---------------------------------

class _SubEvidence(Evidence):
    __slots__ = ()


# Not evidence: plain values, evidence's pending form, a verdict, and an
# instance of an Evidence subclass.
NOT_EVIDENCE = [None, "forged", True, 5, ("{}", ("x",)), _holds("x"), object.__new__(_SubEvidence)]


@pytest.mark.parametrize("field", NOT_EVIDENCE, ids=lambda f: type(f).__name__)
def test_holds_and_refutes_take_only_evidence(field):
    for cls, name in ((Holds, "evidence"), (Refutes, "refutation")):
        message = rf"^{cls.__name__} takes an Evidence, not {type(field).__name__}$"
        for call in (lambda: cls(field), lambda: cls(**{name: field})):
            with pytest.raises(TypeError, match=message):
                call()
    forged = Pred(decide=lambda a: Holds(field), render=str)
    for run in (lambda: cast(forged, 3), lambda: cast(p_and(forged, p_true()), 3, EAGER)):
        with pytest.raises(TypeError, match="^Holds takes an Evidence"):
            run()
    # Issued evidence still builds both verdicts, positionally and by keyword.
    assert Holds(_EVIDENCE_5) == Holds(evidence=_EVIDENCE_5) == cast(LT10, 5).pred.decide(5)
    assert Refutes(refutation=_EVIDENCE_5).refutation is _EVIDENCE_5


# --- refined values are built only by the cast core's builders ------------

SOURCE = Path(gradcast.__file__).parent
BUILDERS = {"_attested", "_failed"}  # in casts.py
REFINED_CLASSES = {"Attested", "AttestedRat", "FailedCast", "FailedCastRat"}
TAKERS = {"isinstance", "issubclass"} | BUILDERS  # may take a refined class as an argument


def _names_refined(node):
    return any(
        (isinstance(n, ast.Name) and n.id in REFINED_CLASSES)
        or (isinstance(n, ast.Attribute) and n.attr in REFINED_CLASSES)
        for n in ast.walk(node)
    )


def _builds_outside_the_builders(path):
    """``(line, text)`` of every call in ``path`` that calls a refined class,
    or hands one to anything but a builder or a class test, outside the two
    builders."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and not (path.name == "casts.py" and function in BUILDERS):
            callee = node.func.id if isinstance(node.func, ast.Name) else None
            handed = [a for a in [*node.args, *(k.value for k in node.keywords)] if _direct(a)]
            if _names_refined(node.func) or (handed and callee not in TAKERS):
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _direct(arg):
    # A refined class passed as it is, or in a tuple (``isinstance``'s form).
    if isinstance(arg, ast.Tuple):
        return any(_direct(item) for item in arg.elts)
    return isinstance(arg, (ast.Name, ast.Attribute)) and _names_refined(arg)


def test_refined_values_are_built_only_by_the_cast_core_builders():
    paths = sorted(SOURCE.glob("*.py"))
    assert {"casts.py", "rationals.py"} <= {p.name for p in paths}
    offenders = {p.name: found for p in paths if (found := _builds_outside_the_builders(p))}
    assert offenders == {}


def test_the_ast_check_catches_builds_outside_the_builders(tmp_path):
    bad = tmp_path / "casts.py"
    bad.write_text(
        "def cast(p, a):\n"
        "    return Attested(a, p, None)\n"
        "def forge():\n"
        "    return _new(FailedCastRat), object.__new__(AttestedRat), casts.FailedCast('1', '2')\n"
        "def _attested(cls, value, pred, evidence):\n"
        "    return _new(cls), Attested(value, pred, evidence)\n"
        "def fine(r):\n"
        "    return isinstance(r, (Attested, FailedCast)), _failed(FailedCastRat, '', '', None)\n"
    )
    assert [line for line, _ in _builds_outside_the_builders(bad)] == [2, 4, 4, 4]


@pytest.mark.parametrize("module, function", [("casts.py", "cast"), ("rationals.py", "cast_rat")])
def test_cast_and_cast_rat_end_in_the_builders(module, function):
    tree = ast.parse((SOURCE / module).read_text())
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    called = {n.func.id for n in ast.walk(body) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert BUILDERS <= called
    last = body.body[-1]
    assert isinstance(last, ast.Return) and last.value.func.id == "_failed"


# --- private slots are stored only by the writers ------------------------

WRITERS = {  # per module, the only functions that store a private slot (see records)
    "predicates.py": {"_join", "_holds", "_refutes"},
    "casts.py": {"_attested", "_failed"},
    "rationals.py": {"cast_rat"},
    "compiler.py": {"parse_exp"},
}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _private(name):
    return type(name) is str and name.startswith("_") and not name.startswith("__")


def _private_stores(path):
    """``(line, writer, text)`` of every store in ``path`` to a single-underscore
    attribute, by assignment, ``del`` or a ``setattr``/``__setattr__`` call naming
    it, where ``writer`` is the qualified name of the enclosing function."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            scope = f"{scope}.{name}" if scope else name
        if isinstance(node, ast.Attribute):
            stored = isinstance(node.ctx, (ast.Store, ast.Del)) and _private(node.attr)
        elif isinstance(node, ast.Call):
            setter = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            stored = setter in SETTERS and any(
                isinstance(a, ast.Constant) and _private(a.value) for a in node.args
            )
        else:
            stored = False
        if stored:
            found.append((node.lineno, scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _stores_outside_the_writers(path):
    allowed = WRITERS.get(path.name, set())
    return [(line, text) for line, writer, text in _private_stores(path) if writer not in allowed]


def test_private_slots_are_stored_only_by_the_writers():
    paths = sorted(SOURCE.glob("*.py"))
    offenders = {p.name: found for p in paths if (found := _stores_outside_the_writers(p))}
    assert offenders == {}
    writers = {p.name: {writer for _, writer, _ in _private_stores(p)} for p in paths}
    assert {name: found for name, found in writers.items() if found} == WRITERS


def test_the_ast_check_catches_private_stores_outside_the_writers(tmp_path):
    bad = tmp_path / "casts.py"
    bad.write_text(
        "def cast(p, a):\n"
        "    r = _new(Attested)\n"
        "    r._value = a\n"
        "    object.__setattr__(r, '_pred', p)\n"
        "    setattr(r, '_evidence', None); r._count += 1\n"
        "    r.value, r.__dict__, r.__private = a, {}, None\n"
        "def _attested(cls, value, pred, evidence):\n"
        "    r = _new(cls)\n"
        "    r._value, r._pred = value, pred\n"
        "    def later():\n"
        "        r._evidence = evidence\n"
        "    return r\n"
        "class Holds:\n"
        "    def __init__(self, evidence):\n"
        "        self._evidence = evidence\n"
        "def _failed(cls, value_text, prop_text, mode):\n"
        "    del cls._value_text\n"
        "    cls.__setattr__('_prop_text', prop_text), (lambda: delattr(cls, '_mode'))()\n"
    )
    assert [line for line, _ in _stores_outside_the_writers(bad)] == [3, 4, 5, 5, 11, 15, 18]


# --- private slots are read only where a workload measures it -----------

READERS = {  # per module, the only functions that read a private slot (see records)
    "casts.py": {"cast", "proj1"},
    "compiler.py": {
        "BinOp.__reduce__", "_show_iconst", "_show_ibinop", "eval_exp", "run_prog", "_compile"
    },
    "instances.py": {"EqDec.render_eq"},
    "predicates.py": {"_join", "p_and.decide", "p_or.decide", "p_not.decide", "p_implies.decide"},
    "rationals.py": {"AttestedRat"},
}
GETTERS = {"getattr", "attrgetter"}


def _private_reads(path):
    """``(line, reader, text)`` of every load of a single-underscore attribute in
    ``path``, and of every ``getattr`` or ``attrgetter`` call naming one (a dotted
    name counts if any part is one), where ``reader`` is the qualified name of the
    enclosing function or class."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            scope = f"{scope}.{name}" if scope else name
        if isinstance(node, ast.Attribute):
            read = isinstance(node.ctx, ast.Load) and _private(node.attr)
        elif isinstance(node, ast.Call):
            getter = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            read = getter in GETTERS and any(
                isinstance(a, ast.Constant) and type(a.value) is str
                and any(_private(part) for part in a.value.split("."))
                for a in node.args
            )
        else:
            read = False
        if read:
            found.append((node.lineno, scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _reads_outside_the_readers(path):
    allowed = READERS.get(path.name, set())
    return [(line, text) for line, reader, text in _private_reads(path) if reader not in allowed]


def test_private_slots_are_read_only_by_the_readers():
    # records.py owns the layout: its _Record methods and properties read the slots.
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "records.py"]
    offenders = {p.name: found for p in paths if (found := _reads_outside_the_readers(p))}
    assert offenders == {}
    readers = {p.name: {reader for _, reader, _ in _private_reads(p)} for p in paths}
    assert {name: found for name, found in readers.items() if found} == READERS


def test_the_ast_check_catches_private_reads_outside_the_readers(tmp_path):
    bad = tmp_path / "casts.py"
    bad.write_text(
        "def try_cast(p, a):\n"
        "    r = cast(p, a)\n"
        "    return r._value, r.value, r.__class__, _new\n"
        "def proj2(r):\n"
        "    return getattr(r, '_evidence'), getattr(r, 'evidence'), getattr(r, name)\n"
        "class Wrapper:\n"
        "    top = property(attrgetter('_value._top'))\n"
        "    sign = property(operator.attrgetter('value._sign')), attrgetter('value.sign')\n"
        "def proj1(r):\n"
        "    def later():\n"
        "        return r._value\n"
        "    return r._value, (lambda: r._prop_text)(), r._value_text.__class__\n"
        "def cast(p, a):\n"
        "    r._count += 1\n"
        "    return p._decide(a), rationals.cast_rat(a)._top\n"
    )
    assert [line for line, _ in _reads_outside_the_readers(bad)] == [3, 5, 7, 8, 11, 12]


# --- no key and no call of a refusing constructor in the package ----------

REFUSING = {"Evidence", "Rat", "Attested", "AttestedRat"}  # their constructors refuse every call
KEY_NAMES = {"_EVIDENCE_KEY", "_RAT_KEY", "_key"}  # the private keys that once let a call through


def _keys_and_refused_calls(path):
    """``(line, text)`` of every call in ``path`` to a class in ``REFUSING``,
    and of every name, attribute, parameter, keyword or import named as a key."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) in REFUSING or getattr(func, "attr", None) in REFUSING:
                found.append((node.lineno, ast.unparse(node)))
        named = {getattr(node, field, None) for field in ("id", "attr", "arg", "name", "asname")}
        if named & KEY_NAMES:
            found.append((getattr(node, "lineno", 0), ast.unparse(node)))
    return sorted(found)


def test_the_package_holds_no_key_and_calls_no_refusing_constructor():
    offenders = {
        p.name: found for p in sorted(SOURCE.glob("*.py")) if (found := _keys_and_refused_calls(p))
    }
    assert offenders == {}


def test_the_ast_check_catches_keys_and_refused_calls(tmp_path):
    bad = tmp_path / "rationals.py"
    bad.write_text(
        "from .predicates import _EVIDENCE_KEY\n"
        "_RAT_KEY = object()\n"
        "def cast_rat(sign, top, bottom):\n"
        "    return Rat(sign, top, bottom), predicates.Evidence('x')\n"
        "def _attested(cls, value, _key=None):\n"
        "    return Attested(value, None, None), AttestedRat(value, None, None, key=r._key)\n"
        "def fine(r):\n"
        "    return _new(Rat), isinstance(r, (Attested, Evidence)), r.key, Rational(1)\n"
    )
    lines = [line for line, _ in _keys_and_refused_calls(bad)]
    assert lines == [1, 2, 4, 4, 5, 6, 6, 6]
