"""Refinement-checked rational numbers.

A :class:`Rat` packages a sign, numerator and denominator together with two
invariants: the denominator is nonzero and the fraction is irreducible.  The
only way to obtain one is :func:`cast_rat`, which decides each invariant, in
that order; the irreducibility decider is reached only once the denominator is
known to be nonzero, because the bounded formulation of irreducibility is
equivalent to the real thing only under that assumption.

Three interchangeable irreducibility deciders are provided.  The two bounded
ones enumerate candidate divisor triples up to max(top, bottom); they differ
only in the arithmetic used for the multiplications and comparisons (unary,
one successor step at a time, versus machine integers), which is exactly what
separates their running times.  The gcd strategy replaces the enumeration with
``gcd(top, bottom) == 1``, which is equivalent to irreducibility for a nonzero
denominator.

:func:`cast_rat` reads only the arm of each decision and ends in the cast
core's builders, so ``proj1``, ``proj2`` and ``==`` apply to its records: an
:class:`AttestedRat` holds one shared evidence for :data:`RAT_INVARIANTS`.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter, eq, mul

from .casts import Attested, FailedCast, FailureMode, _attested, _failed, check_choice, proj1
from .instances import Nat, check_nat
from .predicates import Decision, Holds, Pred, _holds, _refutes
from .records import _new, record
from .render import LimitError, _show_int, show_value

_SIGN_TEXT = {sign: show_value(sign) for sign in (True, False)}  # no dispatch per cast


class Rat(record("sign", "top", "bottom")):
    """An irreducible fraction with a nonzero denominator.

    Instances cannot be constructed directly; :func:`cast_rat` builds one
    exactly when both invariant checks hold.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("Rat cannot be constructed directly; use cast_rat")


class AttestedRat(Attested):
    """A successfully cast rational: its value is the :class:`Rat`, whose
    fields it reads through."""

    __slots__ = ()
    sign = property(attrgetter("_value._sign"))
    top = property(attrgetter("_value._top"))
    bottom = property(attrgetter("_value._bottom"))


class FailedCastRat(FailedCast):
    """The poisoned result of a failed rational cast: projecting any field
    raises its :class:`CastFault`, as :func:`proj1` does."""

    __slots__ = ()
    sign = top = bottom = property(proj1)


RefinedRat = AttestedRat | FailedCastRat


class IrredStrategy(enum.Enum):
    """Which decision procedure checks irreducibility."""

    BOUNDED = "bounded"
    BINARY_BOUNDED = "binary"
    GCD = "gcd"


# The largest top or bottom each bounded strategy accepts.  There the worst
# case, an irreducible pair such as 89 90, runs `rat` in about 0.95 s (bounded)
# or 0.5 s (binary) on Python 3.11.7, 2-core x86; the work grows as n^4 or n^2.
BOUNDED_CEILINGS = {IrredStrategy.BOUNDED: 90, IrredStrategy.BINARY_BOUNDED: 2000}


def _unary_mul(a: int, b: int) -> int:
    total = 0
    for _ in range(a):
        for _ in range(b):
            total += 1
    return total


def _unary_equal(a: int, b: int) -> bool:
    while a > 0 and b > 0:
        a -= 1
        b -= 1
    return a == b


class NatArith(record("name", "mul", "equal")):
    """The arithmetic a bounded enumeration runs on: a name and the
    multiplication and equality on naturals."""

    __slots__ = ()


PEANO_ARITH = NatArith(name="peano", mul=_unary_mul, equal=_unary_equal)
MACHINE_ARITH = NatArith(name="machine", mul=mul, equal=eq)


def gcd(a: Nat, b: Nat) -> Nat:
    """Greatest common divisor of two naturals; gcd(0, b) = b.

    The result is ``math.gcd`` of their integer values, so an ``int``
    subclass that overrides ``%`` is decided by its integer value.
    """
    if not (type(a) is int and a >= 0):
        check_nat(a)
    if not (type(b) is int and b >= 0):
        check_nat(b)
    return math.gcd(a, b)


def _invariant_text(top: str, bottom: str, zero: bool) -> str:
    if zero:
        return f"0 <> {bottom}"
    return f"forall x y z, y * x = {top} /\\ z * x = {bottom} -> 1 = x"


def _require_nonzero_bottom(bottom: Nat) -> None:
    if bottom == 0:
        raise ValueError(
            "irreducibility deciders require a nonzero denominator; "
            "the bounded formulation is not equivalent when bottom = 0"
        )


def irreducible_bounded(top: Nat, bottom: Nat, arith: NatArith) -> Decision:
    """Decide irreducibility by enumerating divisor triples up to
    max(top, bottom).

    For every x, y, z in that range: if y * x = top and z * x = bottom then x
    must be 1.  The conjunction is checked left to right, so the z loop is
    only entered once y * x = top; the refutation names the least
    counterexample triple in (x, y, z) order.  All multiplications and
    comparisons go through ``arith``.
    """
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    bound = max(top, bottom)
    mul, equal = arith.mul, arith.equal
    for x in range(bound + 1):
        for y in range(bound + 1):
            if not equal(mul(y, x), top):
                continue
            for z in range(bound + 1):
                if equal(mul(z, x), bottom) and x != 1:
                    return _refutes(
                        f"counterexample x={x}, y={y}, z={z}: "
                        f"{y} * {x} = {top} and {z} * {x} = {bottom} with 1 <> {x}"
                    )
    return _holds(f"every divisor triple bounded by {bound} forces x = 1")


# The verdict of every fraction that holds; its evidence is every AttestedRat's.
_RATIONAL = _holds("the bottom is nonzero and the fraction is irreducible")
_RATIONAL_EVIDENCE = _RATIONAL.evidence


def _decide_rat(rat: Rat) -> Decision:
    if rat.bottom != 0 and gcd(rat.top, rat.bottom) == 1:
        return _RATIONAL
    return _refutes("{} is false", _render_rat(rat))  # now: a Rat's slots stay writable


def _render_rat(rat: Rat) -> str:
    return _invariant_text(_show_int(rat.top), _show_int(rat.bottom), rat.bottom == 0)


# Every AttestedRat's predicate; all strategies give the same arm as gcd.
RAT_INVARIANTS: Pred[Rat] = Pred(decide=_decide_rat, render=_render_rat)


def cast_rat(
    sign: bool,
    top: Nat,
    bottom: Nat,
    strategy: IrredStrategy = IrredStrategy.GCD,
    mode: FailureMode = FailureMode.LAZY,
) -> RefinedRat:
    """Build a rational if both invariants hold.

    The nonzero-bottom check runs first; the irreducibility decider runs only
    on its success, so a zero denominator never reaches the bounded
    enumeration (whose equivalence needs that fact).  An unknown ``strategy``
    or ``mode`` raises ``ValueError`` before any other check.  A top or bottom
    above a bounded strategy's :data:`BOUNDED_CEILINGS` entry raises
    :class:`LimitError` after the input checks, before the bottom's, and so does a
    failure whose texts would show a plain ``int`` top or bottom past the digit limit.
    """
    if type(strategy) is not IrredStrategy:
        check_choice("strategy", strategy, IrredStrategy)
    if type(mode) is not FailureMode:
        check_choice("mode", mode, FailureMode)
    if not (type(top) is int and top >= 0):
        check_nat(top)
    if not (type(bottom) is int and bottom >= 0):
        check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")
    # Not casts.cast, which builds a Rat before deciding and adds a Pred call.
    # The deciders are module globals, which the traced benchmark rebinds.
    if strategy is IrredStrategy.GCD:
        irreducible = bottom != 0 and gcd(top, bottom) == 1
    else:
        ceiling = BOUNDED_CEILINGS[strategy]
        if top > ceiling or bottom > ceiling:
            raise LimitError(f"strategy {strategy.value} takes top and bottom up to {ceiling}")
        arith = PEANO_ARITH if strategy is IrredStrategy.BOUNDED else MACHINE_ARITH
        irreducible = bottom != 0 and isinstance(irreducible_bounded(top, bottom, arith), Holds)
    if irreducible:
        rat = _new(Rat)
        rat._sign, rat._top, rat._bottom = sign, top, bottom
        return _attested(AttestedRat, rat, RAT_INVARIANTS, _RATIONAL_EVIDENCE)
    top_text, bottom_text = _show_int(top), _show_int(bottom)
    value_text = f"mkRat {_SIGN_TEXT[sign]} {top_text} {bottom_text}"
    prop_text = _invariant_text(top_text, bottom_text, bottom == 0)
    return _failed(FailedCastRat, value_text, prop_text, mode)
