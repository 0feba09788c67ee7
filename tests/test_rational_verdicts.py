"""``cast_rat`` and ``gcd`` against the versions that built evidence for
every decision, kept here as references.

The references decide the nonzero-bottom guard through a ``Pred``, run
Euclid's algorithm in Python and reach the gcd strategy through an
evidence-bearing ``p_equivalent`` predicate; the library decides by arm
only.  Both must give the same result type and fields, the same lazy failure
texts, or the same exception with the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gradcast.casts import CastFault, FailureMode
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
