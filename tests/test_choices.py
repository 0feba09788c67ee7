"""``mode`` and ``strategy`` are checked where they enter the library.

Each public entry that takes a failure mode or an irreducibility strategy
raises ``ValueError`` naming the allowed values for anything else, before
it decides anything; the higher-order wrappers check when they wrap.
"""

import pytest

from gradcast.casts import FailureMode, cast, map_cast
from gradcast.compiler import checked_compile
from gradcast.hocasts import cast_forall_dom, cast_forall_range, cast_fun_dom, cast_fun_range
from gradcast.instances import pred_lt_const
from gradcast.predicates import PredFamily
from gradcast.rationals import IrredStrategy, cast_rat

LT10 = pred_lt_const(10)
MODES = "mode must be one of FailureMode.LAZY, FailureMode.EAGER; got "
STRATEGIES = (
    "strategy must be one of IrredStrategy.BOUNDED, IrredStrategy.BINARY_BOUNDED, "
    "IrredStrategy.GCD; got "
)


class EqualsEverything:
    def __eq__(self, other):
        return True

    __hash__ = object.__hash__

    def __repr__(self):
        return "EqualsEverything()"


# Look-alikes of a member: its value, its name, a member of the other enum,
# and objects whose == or hash would mislead a membership test.
BAD = ["eager", "EAGER", IrredStrategy.GCD, None, EqualsEverything(), [FailureMode.LAZY]]

MODE_ENTRIES = {
    "cast holding": lambda mode: cast(LT10, 5, mode),
    "cast refuted": lambda mode: cast(LT10, 15, mode),
    "map_cast": lambda mode: map_cast(LT10, [5, 15], mode),
    "map_cast empty": lambda mode: map_cast(LT10, [], mode),
    "cast_fun_range": lambda mode: cast_fun_range(LT10, lambda n: n, mode),
    "cast_fun_dom": lambda mode: cast_fun_dom(LT10, lambda r: r, mode),
    "cast_forall_range": lambda mode: cast_forall_range(PredFamily(at=pred_lt_const), abs, mode),
    "cast_forall_dom": lambda mode: cast_forall_dom(LT10, lambda r: r, mode),
    "checked_compile": lambda mode: checked_compile("fixed", mode),
    "cast_rat": lambda mode: cast_rat(True, 5, 10, IrredStrategy.GCD, mode),
    "cast_rat zero bottom": lambda mode: cast_rat(True, 1, 0, IrredStrategy.GCD, mode),
}


@pytest.mark.parametrize("entry", sorted(MODE_ENTRIES))
@pytest.mark.parametrize("mode", BAD, ids=repr)
def test_an_unknown_mode_is_refused_where_it_enters(entry, mode):
    with pytest.raises(ValueError) as caught:
        MODE_ENTRIES[entry](mode)
    assert str(caught.value) == MODES + repr(mode)


@pytest.mark.parametrize("entry", sorted(MODE_ENTRIES))
def test_both_modes_are_accepted_everywhere(entry):
    for mode in FailureMode:
        try:
            MODE_ENTRIES[entry](mode)
        except Exception as exc:  # noqa: BLE001 - only the refusal is under test
            assert not isinstance(exc, ValueError), exc


BAD_STRATEGIES = ["gcd", "GCD", FailureMode.EAGER, None, EqualsEverything(), [IrredStrategy.GCD]]


@pytest.mark.parametrize("bottom", [10, 0])
@pytest.mark.parametrize("strategy", BAD_STRATEGIES, ids=repr)
def test_an_unknown_strategy_is_refused_before_any_decision(strategy, bottom):
    with pytest.raises(ValueError) as caught:
        cast_rat(True, 5, bottom, strategy)
    assert str(caught.value) == STRATEGIES + repr(strategy)
