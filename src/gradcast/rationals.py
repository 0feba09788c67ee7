"""Refinement-checked rational numbers.

A :class:`Rat` packages a sign, numerator and denominator together with two
invariants: the denominator is nonzero and the fraction is irreducible.  The
only way to obtain one is :func:`cast_rat`, which decides each invariant, in
that order; the irreducibility decider is reached only once the denominator is
known to be nonzero, because the bounded formulation of irreducibility is
equivalent to the real thing only under that assumption.

Three interchangeable irreducibility deciders are provided.  The two bounded
ones enumerate candidate divisor triples up to max(top, bottom); they differ
only in the number representation used for the multiplications and
comparisons (:class:`Peano` unary naturals versus machine integers), which is
exactly what separates their running times.  The gcd strategy replaces the
enumeration with ``gcd(top, bottom) == 1``, which is equivalent to
irreducibility for a nonzero denominator.

:func:`cast_rat` reads only the arm of each decision.  Its results are the
cast core's records, so ``proj1``, ``proj2`` and ``==`` apply: an
:class:`AttestedRat` holds one shared evidence for :data:`RAT_INVARIANTS`.
A successful gcd cast does only what its verdict needs: :func:`cast_rat` and
:func:`gcd` test each natural inline and call :func:`check_nat` only on failure,
:class:`Rat` stores its own slots in one frame, and :class:`AttestedRat` reads
each field from the ``Rat``'s slot in one step.
:func:`irreducible_bounded` returns the evidence-bearing :class:`Decision`,
whose refutation names the least counterexample triple.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter, eq, mul
from typing import Callable

from .casts import Attested, CastFault, FailedCast, FailureMode, check_choice, proj1
from .instances import Nat, check_nat
from .predicates import Decision, Holds, Pred, _holds, _later, _refutes
from .records import record
from .render import show_value

_RAT_KEY = object()
_SIGN_TEXT = {sign: show_value(sign) for sign in (True, False)}  # no dispatch per cast


class Rat(record("sign", "top", "bottom")):
    """An irreducible fraction with a nonzero denominator.

    Instances cannot be constructed directly; :func:`cast_rat` builds one
    exactly when both invariant checks hold.  Its fields are read-only.
    """

    __slots__ = ()

    def __init__(self, sign: bool, top: Nat, bottom: Nat, _key: object = None) -> None:
        if _key is not _RAT_KEY:
            raise TypeError("Rat cannot be constructed directly; use cast_rat")
        self._sign = sign
        self._top = top
        self._bottom = bottom


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


def _walk_add(a: int, b: int) -> int:
    # One loop step per successor constructor of b.
    total = a
    for _ in range(b):
        total += 1
    return total


class Peano:
    """A unary natural: the count of successor constructors.

    Every operation walks the chain one constructor at a time, so the cost of
    arithmetic is proportional to the magnitudes involved.  This is the
    representation whose cost profile the BOUNDED strategy measures.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0) -> None:
        self.count = check_nat(count)

    def mul(self, other: "Peano") -> "Peano":
        total = 0
        for _ in range(self.count):
            total = _walk_add(total, other.count)
        return Peano(total)

    def equals(self, other: "Peano") -> bool:
        x, y = self.count, other.count
        while x > 0 and y > 0:
            x -= 1
            y -= 1
        return x == 0 and y == 0

    def __repr__(self) -> str:
        return f"Peano({self.count})"


class NatArith(record("name", "lift", "mul", "equal")):
    """The arithmetic a bounded enumeration runs on: a name, the lift from
    ``int`` and the multiplication and equality on lifted values."""

    __slots__ = ()


PEANO_ARITH = NatArith(name="peano", lift=Peano, mul=Peano.mul, equal=Peano.equals)
MACHINE_ARITH = NatArith(name="machine", lift=lambda n: n, mul=mul, equal=eq)


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


def _invariant_text(top: Nat, bottom: Nat) -> str:
    """The first invariant a failing fraction violates, else irreducibility."""
    if bottom == 0:
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
    lifted = [arith.lift(v) for v in range(bound + 1)]
    mul, equal = arith.mul, arith.equal
    top_l = arith.lift(top)
    bottom_l = arith.lift(bottom)
    for x in range(bound + 1):
        x_l = lifted[x]
        for y in range(bound + 1):
            if not equal(mul(lifted[y], x_l), top_l):
                continue
            for z in range(bound + 1):
                if equal(mul(lifted[z], x_l), bottom_l) and x != 1:
                    return _refutes(
                        f"counterexample x={x}, y={y}, z={z}: "
                        f"{y} * {x} = {top} and {z} * {x} = {bottom} with 1 <> {x}"
                    )
    return _holds(f"every divisor triple bounded by {bound} forces x = 1")


# cast_rat's verdict per strategy, looking the deciders up as module attributes
# at each call.  The gcd entry must call this module's gcd, not math.gcd: the
# traced benchmark rebinds gcd on the module to time the decider on its own.
_IRRED_DECIDERS: dict[IrredStrategy, Callable[[Nat, Nat], bool]] = {
    IrredStrategy.BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, PEANO_ARITH), Holds
    ),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, MACHINE_ARITH), Holds
    ),
    IrredStrategy.GCD: lambda t, b: gcd(t, b) == 1,
}


# The verdict of every fraction that holds; its evidence is every AttestedRat's.
_RATIONAL = _holds("the bottom is nonzero and the fraction is irreducible")
_RATIONAL_EVIDENCE = _RATIONAL.evidence


def _decide_rat(rat: Rat) -> Decision:
    if rat.bottom != 0 and gcd(rat.top, rat.bottom) == 1:
        return _RATIONAL
    return _refutes("{} is false", _later(_invariant_text, rat.top, rat.bottom))


def _render_rat(rat: Rat) -> str:
    return _invariant_text(rat.top, rat.bottom)


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
    or ``mode`` raises ``ValueError`` before any other check.
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
    if bottom != 0 and _IRRED_DECIDERS[strategy](top, bottom):
        return AttestedRat(Rat(sign, top, bottom, _RAT_KEY), RAT_INVARIANTS, _RATIONAL_EVIDENCE)
    value_text = f"mkRat {_SIGN_TEXT[sign]} {top} {bottom}"
    if mode is FailureMode.EAGER:
        raise CastFault(value_text, _invariant_text(top, bottom))
    return FailedCastRat(value_text, _invariant_text(top, bottom))
