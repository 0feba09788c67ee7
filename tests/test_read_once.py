"""Each combinator, derived equality and range wrapper reads its children's
public fields once, when it is built, and never while it casts.

The children below count every read of a public field.  After the build, a
hundred casts over them, ok and failing, lazy and eager, with ``prop_text`` and
``evidence.summary`` read, must read none: a child's ``decide``, ``render``,
``eq_decide``, ``render_value`` and ``at`` are bound when its parent is built.
"""

from collections import Counter
from operator import attrgetter

import pytest

from gradcast.casts import Attested, CastFault, FailureMode, cast, proj1
from gradcast.hocasts import cast_forall_range, cast_fun_range
from gradcast.instances import (
    EqDec,
    eq_list,
    eq_nat,
    eq_option,
    pred_equals,
    pred_ge_const,
    pred_gt_const,
    pred_lt_const,
)
from gradcast.predicates import Pred, PredFamily, p_and, p_implies, p_not, p_or

READS: Counter = Counter()


def _counted(name):
    slot = attrgetter(f"_{name}")

    def read(self):
        READS[name] += 1
        return slot(self)

    return property(read)


class CountingPred(Pred):
    __slots__ = ()
    decide, render = _counted("decide"), _counted("render")


class CountingEqDec(EqDec):
    __slots__ = ()
    eq_decide, render_value = _counted("eq_decide"), _counted("render_value")


class CountingPredFamily(PredFamily):
    __slots__ = ()
    at = _counted("at")


def _counting(p):
    return CountingPred(p.decide, p.render)


def _ops():
    """Casts of a natural, lazy ones first, over children that count their reads."""
    lt, gt = _counting(pred_lt_const(10)), _counting(pred_gt_const(20))
    ge, nat = _counting(pred_ge_const(5)), CountingEqDec(eq_nat().eq_decide, eq_nat().render_value)
    between, outside = p_and(ge, lt), p_or(lt, gt)
    preds = [
        (between, lambda n: n),
        (outside, lambda n: n),
        (p_not(lt), lambda n: n),
        (p_implies(ge, lt), lambda n: n),
        (pred_equals(nat, 7), lambda n: n % 9),
        (pred_equals(eq_option(nat), 3), lambda n: None if n % 4 == 0 else n % 5),
        (pred_equals(eq_list(nat), [1, 2]), lambda n: [n % 3, 2]),
    ]
    family = CountingPredFamily(lambda n: (between, outside)[n % 2])
    ops = []
    for mode in FailureMode:
        ops += [lambda n, p=p, arg=arg, mode=mode: cast(p, arg(n), mode) for p, arg in preds]
        ops.append(cast_fun_range(p_not(gt), lambda n: n + 3, mode))
        ops.append(cast_forall_range(family, lambda n: n * 7 % 31, mode))
    return ops


def test_no_child_field_is_read_after_the_build():
    READS.clear()
    ops = _ops()
    built = set(READS)
    READS.clear()
    outcomes = Counter()
    for i in range(100):
        op = i % len(ops)
        try:
            r = ops[op](i * 13 % 31)
        except CastFault as fault:
            assert fault.prop_text
            outcome = "fault"
        else:
            if isinstance(r, Attested):
                assert r.prop_text and r.evidence.summary
                outcome = "ok"
            else:
                with pytest.raises(CastFault):
                    proj1(r)
                outcome = "poisoned"
        lazy = op < len(ops) // 2  # _ops lists the lazy casts first
        outcomes[lazy, outcome] += 1
    assert set(outcomes) == {(True, "ok"), (True, "poisoned"), (False, "ok"), (False, "fault")}
    assert READS == Counter()
    assert built == {"decide", "render", "eq_decide", "render_value", "at"}  # counted when built
