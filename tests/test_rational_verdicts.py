"""``cast_rat`` and ``gcd`` against the versions that built evidence for
every decision, kept here as references.

The references decide the nonzero-bottom guard through a ``Pred``, run
Euclid's algorithm in Python and reach the gcd strategy through an
evidence-bearing ``p_equivalent`` predicate; the library decides by arm
only.  Both must give the same result type and fields, the same lazy failure
texts, or the same exception with the same message.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from gradcast.casts import CastFault, FailureMode, check_choice
from gradcast.instances import check_nat
from gradcast.predicates import Decision, Holds, Pred, Refutes
from gradcast.rationals import (
    _RAT_KEY,
    _RATIONAL_EVIDENCE,
    MACHINE_ARITH,
    PEANO_ARITH,
    RAT_INVARIANTS,
    AttestedRat,
    FailedCastRat,
    IrredStrategy,
    Rat,
    _require_nonzero_bottom,
    cast_rat,
    gcd,
    irreducible_bounded,
)
from gradcast.render import show_value
from spec import _holds, _refutes, p_equivalent


def ref_gcd(a, b):
    check_nat(a)
    check_nat(b)
    while b:
        a, b = b, a % b
    return a


def ref_irreducibility_text(top, bottom):
    return f"forall x y z, y * x = {top} /\\ z * x = {bottom} -> 1 = x"


def ref_decide_gcd(pair):
    top, bottom = pair
    g = ref_gcd(top, bottom)
    if g == 1:
        return _holds(f"gcd {top} {bottom} = 1")
    return _refutes(f"gcd {top} {bottom} = {g}")


REF_GCD_IRREDUCIBLE = p_equivalent(
    Pred(decide=ref_decide_gcd, render=lambda pair: f"gcd {pair[0]} {pair[1]} = 1"),
    render_override=lambda pair: ref_irreducibility_text(*pair),
    justification="irreducibility is equivalent to gcd(top, bottom) = 1 for a nonzero bottom",
)


def ref_irreducible_gcd(top, bottom) -> Decision:
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    return REF_GCD_IRREDUCIBLE.decide((top, bottom))


REF_IRRED_DECIDERS = {
    IrredStrategy.BOUNDED: lambda t, b: irreducible_bounded(t, b, PEANO_ARITH),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: irreducible_bounded(t, b, MACHINE_ARITH),
    IrredStrategy.GCD: ref_irreducible_gcd,
}

REF_BOTTOM_NONZERO = Pred(
    decide=lambda b: _refutes("0 = 0") if b == 0 else _holds(f"0 <> {b}: {b} is a successor"),
    render=lambda b: f"0 <> {b}",
)


def ref_cast_rat(sign, top, bottom, strategy=IrredStrategy.GCD, mode=FailureMode.LAZY):
    check_nat(top)
    check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")

    def fail(violated):
        if mode is FailureMode.EAGER:
            raise CastFault(f"mkRat {show_value(sign)} {top} {bottom}", violated)
        return FailedCastRat(f"mkRat {show_value(sign)} {top} {bottom}", violated)

    bottom_verdict = REF_BOTTOM_NONZERO.decide(bottom)
    if isinstance(bottom_verdict, Refutes):
        return fail(REF_BOTTOM_NONZERO.render(bottom))
    irred_verdict = REF_IRRED_DECIDERS[strategy](top, bottom)
    if isinstance(irred_verdict, Refutes):
        return fail(ref_irreducibility_text(top, bottom))
    return AttestedRat(
        Rat(sign, top, bottom, _key=_RAT_KEY), RAT_INVARIANTS, _RATIONAL_EVIDENCE
    )


class PlainInt(int):
    pass


class ModLies(int):
    """An int subclass whose ``%`` always answers 0."""

    def __mod__(self, other):
        return 0


def typed(x):
    return (type(x), x)


def outcome(fn, *args):
    try:
        r = fn(*args)
    except CastFault as fault:
        return ("fault", str(fault), fault.value_text, fault.prop_text)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return ("raised", type(err), str(err))
    if isinstance(r, FailedCastRat):
        return ("failed", r.value_text, r.prop_text)
    return (type(r), typed(r.sign), typed(r.top), typed(r.bottom))


SIGNS = st.sampled_from([True, False, 0, 1, None, "x"])
MODES = st.sampled_from(list(FailureMode))
BIG = st.integers(0, 10**40)
SMALL = st.integers(0, 12)


def fields(naturals):
    return st.one_of(
        naturals,
        st.just(0),
        st.integers(max_value=-1),
        st.booleans(),
        st.floats(allow_nan=True),
        st.text(max_size=3),
        naturals.map(PlainInt),
    )


@settings(max_examples=600, deadline=None)
@given(SIGNS, fields(BIG), fields(BIG), MODES)
def test_gcd_cast_matches_reference(sign, top, bottom, mode):
    args = (sign, top, bottom, IrredStrategy.GCD, mode)
    assert outcome(cast_rat, *args) == outcome(ref_cast_rat, *args)


@settings(max_examples=400, deadline=None)
@given(
    SIGNS,
    fields(SMALL),
    fields(SMALL),
    st.sampled_from([IrredStrategy.BOUNDED, IrredStrategy.BINARY_BOUNDED]),
    MODES,
)
def test_bounded_casts_match_reference(sign, top, bottom, strategy, mode):
    args = (sign, top, bottom, strategy, mode)
    assert outcome(cast_rat, *args) == outcome(ref_cast_rat, *args)


def gcd_outcome(fn, a, b):
    try:
        return ("value", fn(a, b))
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return ("raised", type(err), str(err))


@settings(max_examples=300, deadline=None)
@given(fields(BIG), fields(BIG))
def test_gcd_matches_euclid(a, b):
    # Equal by integer value: Euclid may hand back the caller's own subclass
    # instance, math.gcd always returns a plain int.
    got = gcd_outcome(gcd, a, b)
    assert got == gcd_outcome(ref_gcd, a, b)
    if got[0] == "value":
        assert type(got[1]) is int


def test_gcd_of_zeros_and_examples():
    assert gcd(0, 0) == ref_gcd(0, 0) == 0
    for a, b in [(0, 7), (7, 0), (5, 10), (40, 77), (10**40, 10**39)]:
        assert gcd(a, b) == ref_gcd(a, b)


@pytest.mark.parametrize(
    "top, bottom, arm",
    [
        (5, 6, Holds),
        (5, 10, Refutes),
        (123456789012345678, 987654321098765431, Holds),
        (123456789012345678, 987654321098765432, Refutes),
    ]
    + [(1, k, Holds) for k in range(1, 12)],
)
def test_gcd_cast_arm_matches_reference_gcd_arm(top, bottom, arm):
    assert type(ref_irreducible_gcd(top, bottom)) is arm
    assert isinstance(cast_rat(True, top, bottom), AttestedRat) == (arm is Holds)


def test_int_subclass_overriding_mod_is_decided_by_its_value():
    # Euclid ran the subclass's own % (5 % 6 -> 0, so "gcd" 6); math.gcd
    # reads the integer value 5.
    top = ModLies(5)
    assert ref_gcd(top, 6) == 6
    assert gcd(top, 6) == 1
    assert isinstance(ref_cast_rat(True, top, 6), FailedCastRat)
    refined = cast_rat(True, top, 6)
    assert isinstance(refined, AttestedRat)
    assert refined.top is top


# A reference ``cast_rat`` that validates each natural through ``check_nat``
# (in ``gcd`` too), builds ``Rat`` through the record's own ``__init__`` and is
# read through ``value``, not through the ``Rat``'s private slots.
_RECORD_INIT = Rat.__mro__[1].__init__


def old_rat(sign, top, bottom):
    rat = object.__new__(Rat)
    _RECORD_INIT(rat, sign, top, bottom)
    return rat


def old_gcd(a, b):
    check_nat(a)
    check_nat(b)
    return math.gcd(a, b)


OLD_IRRED_DECIDERS = {
    IrredStrategy.BOUNDED: lambda t, b: isinstance(irreducible_bounded(t, b, PEANO_ARITH), Holds),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, MACHINE_ARITH), Holds
    ),
    IrredStrategy.GCD: lambda t, b: old_gcd(t, b) == 1,
}


def old_cast_rat(sign, top, bottom, strategy, mode):
    if type(strategy) is not IrredStrategy:
        check_choice("strategy", strategy, IrredStrategy)
    if type(mode) is not FailureMode:
        check_choice("mode", mode, FailureMode)
    check_nat(top)
    check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")
    if bottom != 0 and OLD_IRRED_DECIDERS[strategy](top, bottom):
        return AttestedRat(old_rat(sign, top, bottom), RAT_INVARIANTS, _RATIONAL_EVIDENCE)
    value_text = f"mkRat {show_value(sign)} {top} {bottom}"
    violated = f"0 <> {bottom}" if bottom == 0 else ref_irreducibility_text(top, bottom)
    if mode is FailureMode.EAGER:
        raise CastFault(value_text, violated)
    return FailedCastRat(value_text, violated)


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)
    return None


@st.composite
def rat_arguments(draw):
    strategy = draw(st.sampled_from([*IrredStrategy, "gcd", None]))
    mode = draw(st.sampled_from([*FailureMode, "eager"]))
    bound = 12 if strategy in (IrredStrategy.BOUNDED, IrredStrategy.BINARY_BOUNDED) else 10**18
    naturals = st.integers(0, bound)
    field = st.one_of(
        naturals,
        st.just(0),
        st.booleans(),
        st.integers(-(10**18), -1),
        naturals.map(PlainInt),
        st.floats(allow_nan=True),
        st.none(),
    )
    sign = draw(st.sampled_from([True, False, 1, 0, None, "+"]))
    return sign, draw(field), draw(field), strategy, mode


@settings(max_examples=800, deadline=None)
@given(rat_arguments())
def test_cast_rat_is_the_cast_built_the_old_way(args):
    try:
        want = old_cast_rat(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        with pytest.raises(type(err)) as got:
            cast_rat(*args)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        if isinstance(err, CastFault):
            assert (got.value.value_text, got.value.prop_text) == (err.value_text, err.prop_text)
        return
    got = cast_rat(*args)
    assert type(got) is type(want)
    assert repr(got) == repr(want)
    assert got == want and hash(got) == hash(want)
    assert got.prop_text == want.prop_text
    if isinstance(want, FailedCastRat):
        assert got.value_text == want.value_text
        for name in ("sign", "top", "bottom"):
            assert raised(getattr, got, name) == raised(getattr, want, name) is not None
        return
    assert type(got.value) is Rat and got.value == want.value
    for name in ("sign", "top", "bottom"):
        assert getattr(got, name) is getattr(want.value, name)
        assert getattr(got.value, name) is getattr(want.value, name)


def test_rat_built_by_key_positionally_or_by_keyword_is_the_same_record():
    assert Rat(True, 1, 2, _RAT_KEY) == Rat(True, 1, 2, _key=_RAT_KEY) == old_rat(True, 1, 2)


@pytest.mark.parametrize("top, bottom", [(5, 6), (0, 1), (10**18, 10**18 - 1), (PlainInt(3), 4)])
def test_rats_and_attested_rats_survive_copy_deepcopy_and_pickle(top, bottom):
    refined = cast_rat(False, top, bottom)
    assert isinstance(refined, AttestedRat)
    for value in (refined.value, refined):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert (twin.sign, twin.top, twin.bottom) == (False, top, bottom)
    twin = pickle.loads(pickle.dumps(refined))
    assert twin.pred == RAT_INVARIANTS and twin.evidence == _RATIONAL_EVIDENCE
