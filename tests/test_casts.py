import copy
import pickle
import random

import pytest

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
from gradcast.compiler import ParseError, parse_exp
from gradcast.instances import (
    eq_list,
    eq_nat,
    pred_equals,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import Holds, Pred, p_false, p_true

LT10 = pred_lt_const(10)


def test_cast_success_carries_value_prop_and_evidence():
    refined = cast(LT10, 5)
    assert isinstance(refined, Attested)
    assert refined.value == 5
    assert refined.prop_text == "6 <= 10"
    assert refined.evidence.summary == "6 <= 10 by arithmetic"


def test_cast_failure_renders_value_and_violated_prop():
    refined = cast(LT10, 15)
    assert refined == FailedCast(value_text="15", prop_text="16 <= 10")


def test_cast_eager_success_is_quiet():
    refined = cast(p_true(), 0, FailureMode.EAGER)
    assert isinstance(refined, Attested)
    assert refined.value == 0


def test_cast_eager_failure_raises():
    with pytest.raises(CastFault) as excinfo:
        cast(LT10, 15, FailureMode.EAGER)
    fault = excinfo.value
    assert fault.message == "Cast has failed"
    assert str(fault).startswith("Cast has failed")
    assert fault.value_text == "15"
    assert fault.prop_text == "16 <= 10"


def test_failed_cast_does_not_carry_the_value():
    refined = cast(LT10, 15)
    assert not hasattr(refined, "value")


def test_proj1():
    assert proj1(cast(LT10, 5)) == 5
    assert proj1(cast(p_true(), 7)) == 7
    with pytest.raises(CastFault) as excinfo:
        proj1(cast(LT10, 15))
    assert excinfo.value.value_text == "15"
    assert excinfo.value.prop_text == "16 <= 10"


def test_proj2_returns_evidence_on_success():
    assert proj2(cast(p_true(), 0)).summary == "trivially true"
    verdict = cast(pred_gt_const(0), 5)
    assert proj2(verdict).summary == "1 <= 5 by arithmetic"


def test_shared_equality_evidence_cannot_be_rewritten_through_proj2():
    eq = eq_list(eq_nat())
    first = proj2(cast(pred_equals(eq, [1, 2]), [1, 2]))
    second = proj2(cast(pred_equals(eq, [3]), [3]))
    assert first == second
    with pytest.raises(AttributeError):
        first.summary = "forged"
    assert first.summary == second.summary == "eq_refl"


def test_proj2_faults_on_failed_cast():
    # Evidence for a refuted property must be unobtainable.
    with pytest.raises(CastFault):
        proj2(cast(p_false(), 0))


def test_try_cast():
    ok = try_cast(LT10, 5)
    assert isinstance(ok, Attested) and ok.value == 5
    bad = try_cast(LT10, 15)
    assert isinstance(bad, CastFault)
    assert bad.prop_text == "16 <= 10"
    assert isinstance(try_cast(p_false(), 3), CastFault)


def test_map_cast_mixes_attested_and_failed():
    out = map_cast(pred_equals(eq_nat(), 3), [3, 2, 1])
    assert isinstance(out[0], Attested) and out[0].value == 3
    assert out[1] == FailedCast(value_text="2", prop_text="2 = 3")
    assert out[2] == FailedCast(value_text="1", prop_text="1 = 3")


def test_map_cast_empty_and_all_attested():
    assert map_cast(LT10, []) == []
    assert all(isinstance(r, Attested) for r in map_cast(p_true(), [1, 2]))


def test_map_cast_eager_raises_on_first_failure():
    with pytest.raises(CastFault) as excinfo:
        map_cast(pred_equals(eq_nat(), 3), [3, 2, 1], FailureMode.EAGER)
    assert excinfo.value.value_text == "2"


def _random_pred_and_value(rng):
    k = rng.randint(0, 20)
    n = rng.randint(0, 20)
    pred = rng.choice(
        [pred_lt_const(k), pred_gt_const(k), pred_equals(eq_nat(), k)]
    )
    return pred, n


def test_cast_agrees_with_decide_on_random_instances():
    rng = random.Random(20260809)
    for _ in range(300):
        p, n = _random_pred_and_value(rng)
        refined = cast(p, n)
        assert isinstance(refined, Attested) == isinstance(p.decide(n), Holds)
        assert isinstance(try_cast(p, n), Attested) == isinstance(refined, Attested)


def test_eager_raises_exactly_when_lazy_projection_raises():
    rng = random.Random(99)
    for _ in range(200):
        p, n = _random_pred_and_value(rng)
        lazy_raises = False
        try:
            proj1(cast(p, n))
        except CastFault:
            lazy_raises = True
        eager_raises = False
        try:
            cast(p, n, FailureMode.EAGER)
        except CastFault:
            eager_raises = True
        assert lazy_raises == eager_raises


def test_casts_from_trivially_holding_predicates_are_always_attested():
    for value in [0, 5, "x", [1, 2]]:
        assert isinstance(cast(p_true(), value), Attested)


def test_attested_prints_and_compares_like_a_stored_prop_text():
    refined = cast(pred_lt_const(10), 5)
    assert repr(refined) == (
        "Attested(value=5, prop_text='6 <= 10', "
        "evidence=Evidence('6 <= 10 by arithmetic'))"
    )
    assert refined.prop_text == "6 <= 10"
    assert refined == cast(pred_lt_const(10), 5)
    assert hash(refined) == hash(cast(pred_lt_const(10), 5))
    assert refined != cast(pred_lt_const(11), 5)
    assert refined != cast(LT10, 4)


def test_attested_renders_prop_text_only_when_read():
    renders = []

    def render(n):
        renders.append(n)
        return f"{n} is small"

    refined = cast(Pred(decide=LT10.decide, render=render), 5)
    assert renders == []
    assert refined.prop_text == "5 is small"
    assert renders == [5]


class _SubFault(CastFault):
    def __init__(self, value_text, prop_text):
        super().__init__(value_text, prop_text)


def _raised(force):
    with pytest.raises(CastFault) as info:
        force()
    return info.value


def _fields(value_text, prop_text):
    return {"message": "Cast has failed", "value_text": value_text, "prop_text": prop_text}


@pytest.mark.parametrize(
    "make, text, shown, fields",
    [
        (
            lambda: CastFault("15", "16 <= 10"),
            "Cast has failed: value 15 does not satisfy 16 <= 10",
            "CastFault('Cast has failed: value 15 does not satisfy 16 <= 10')",
            _fields("15", "16 <= 10"),
        ),
        (
            lambda: _raised(lambda: proj1(cast(LT10, 12))),
            "Cast has failed: value 12 does not satisfy 13 <= 10",
            "CastFault('Cast has failed: value 12 does not satisfy 13 <= 10')",
            _fields("12", "13 <= 10"),
        ),
        (
            lambda: _raised(lambda: cast(pred_equals(eq_list(eq_nat()), [1]), [2], FailureMode.EAGER)),
            "Cast has failed: value 2 :: nil does not satisfy 2 :: nil = 1 :: nil",
            "CastFault('Cast has failed: value 2 :: nil does not satisfy 2 :: nil = 1 :: nil')",
            _fields("2 :: nil", "2 :: nil = 1 :: nil"),
        ),
        (
            lambda: try_cast(LT10, 30),
            "Cast has failed: value 30 does not satisfy 31 <= 10",
            "CastFault('Cast has failed: value 30 does not satisfy 31 <= 10')",
            _fields("30", "31 <= 10"),
        ),
        (
            lambda: _SubFault("7", "8 <= 3"),
            "Cast has failed: value 7 does not satisfy 8 <= 3",
            "_SubFault('Cast has failed: value 7 does not satisfy 8 <= 3')",
            _fields("7", "8 <= 3"),
        ),
    ],
    ids=["built", "proj1", "eager", "try-cast", "subclass"],
)
def test_cast_fault_layout_is_pinned(make, text, shown, fields):
    fault = make()
    assert fault.args == (text,) and str(fault) == text and repr(fault) == shown
    assert vars(fault) == fields and list(vars(fault)) == list(fields)
    assert [fault.message, fault.value_text, fault.prop_text] == list(fields.values())


def _raised_parse_error():
    with pytest.raises(ParseError) as info:
        parse_exp("1 +")
    return info.value


@pytest.mark.parametrize(
    "make",
    [
        lambda: CastFault("15", "16 <= 10"),
        lambda: ParseError("expected a number", 3),
        lambda: try_cast(LT10, 15),
        lambda: _raised(lambda: proj1(cast(LT10, 15))),
        _raised_parse_error,
    ],
    ids=["cast-fault", "parse-error", "try-cast", "raised-cast-fault", "raised-parse-error"],
)
def test_faults_survive_copy_deepcopy_and_pickle(make):
    fault = make()
    fields = ("message", "value_text", "prop_text", "reason", "offset")
    shown = [getattr(fault, name, None) for name in fields]
    for twin in (copy.copy(fault), copy.deepcopy(fault), pickle.loads(pickle.dumps(fault))):
        assert type(twin) is type(fault)
        assert str(twin) == str(fault) and twin.args == fault.args
        assert [getattr(twin, name, None) for name in fields] == shown
