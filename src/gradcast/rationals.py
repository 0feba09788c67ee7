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
exactly what separates their running times.  The gcd decider replaces the
enumeration with ``gcd(top, bottom) = 1`` via the declared-equivalence
combinator, so its refutation still names the irreducibility proposition.

:func:`cast_rat` reads only the arm of each decision, as an :class:`AttestedRat`
carries no evidence; the ``irreducible_*`` functions return the
evidence-bearing :class:`Decision`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict

from .casts import CastFault, FailureMode, check_choice
from .instances import Nat, check_nat
from .predicates import Decision, Holds, Pred, _holds, _refutes, p_equivalent
from .render import show_value

_RAT_KEY = object()


class Rat:
    """An irreducible fraction with a nonzero denominator.

    Instances cannot be constructed directly; :func:`cast_rat` builds one
    exactly when both invariant checks hold.
    """

    __slots__ = ("sign", "top", "bottom")

    def __init__(self, sign: bool, top: Nat, bottom: Nat, *, _key: object = None) -> None:
        if _key is not _RAT_KEY:
            raise TypeError("Rat cannot be constructed directly; use cast_rat")
        self.sign = sign
        self.top = top
        self.bottom = bottom

    def __repr__(self) -> str:
        return f"Rat(sign={self.sign}, top={self.top}, bottom={self.bottom})"


@dataclass(frozen=True)
class AttestedRat:
    """A successfully cast rational; field access goes through to the record."""

    rat: Rat

    @property
    def sign(self) -> bool:
        return self.rat.sign

    @property
    def top(self) -> Nat:
        return self.rat.top

    @property
    def bottom(self) -> Nat:
        return self.rat.bottom


class FailedCastRat:
    """The poisoned result of a failed rational cast.

    The attempted field values are remembered for reporting, but projecting
    any field out of a failed cast faults, just like projecting a failed
    subset cast.
    """

    __slots__ = ("_sign", "_top", "_bottom", "violated")

    def __init__(self, sign: bool, top: Nat, bottom: Nat, violated: str) -> None:
        self._sign = sign
        self._top = top
        self._bottom = bottom
        self.violated = violated

    @property
    def value_text(self) -> str:
        return f"mkRat {show_value(self._sign)} {self._top} {self._bottom}"

    def _fault(self) -> CastFault:
        return CastFault(self.value_text, self.violated)

    @property
    def sign(self) -> bool:
        raise self._fault()

    @property
    def top(self) -> Nat:
        raise self._fault()

    @property
    def bottom(self) -> Nat:
        raise self._fault()

    def __repr__(self) -> str:
        return f"FailedCastRat({self.value_text}, violated={self.violated!r})"


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

    @classmethod
    def from_int(cls, n: int) -> "Peano":
        return cls(check_nat(n))

    def to_int(self) -> int:
        return self.count

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


@dataclass(frozen=True)
class NatArith:
    """The arithmetic a bounded enumeration runs on."""

    name: str
    lift: Callable[[int], Any]
    mul: Callable[[Any, Any], Any]
    equal: Callable[[Any, Any], bool]


PEANO_ARITH = NatArith(name="peano", lift=Peano.from_int, mul=Peano.mul, equal=Peano.equals)
MACHINE_ARITH = NatArith(
    name="machine",
    lift=lambda n: n,
    mul=lambda a, b: a * b,
    equal=lambda a, b: a == b,
)


def gcd(a: Nat, b: Nat) -> Nat:
    """Greatest common divisor of two naturals; gcd(0, b) = b.

    The result is ``math.gcd`` of their integer values, so an ``int``
    subclass that overrides ``%`` is decided by its integer value.
    """
    check_nat(a)
    check_nat(b)
    return math.gcd(a, b)


def _irreducibility_text(top: Nat, bottom: Nat) -> str:
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


def _decide_gcd(pair: tuple[Nat, Nat]) -> Decision:
    top, bottom = pair
    g = gcd(top, bottom)
    if g == 1:
        return _holds(f"gcd {top} {bottom} = 1")
    return _refutes(f"gcd {top} {bottom} = {g}")


_GCD_IRREDUCIBLE = p_equivalent(
    Pred(decide=_decide_gcd, render=lambda pair: f"gcd {pair[0]} {pair[1]} = 1"),
    render_override=lambda pair: _irreducibility_text(*pair),
    justification="irreducibility is equivalent to gcd(top, bottom) = 1 for a nonzero bottom",
)


def irreducible_gcd(top: Nat, bottom: Nat) -> Decision:
    """Decide irreducibility as gcd(top, bottom) = 1.

    Wrapped in the declared-equivalence combinator so a refutation still
    renders the irreducibility proposition rather than the gcd equation.
    """
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    return _GCD_IRREDUCIBLE.decide((top, bottom))


# cast_rat's verdict per strategy.  The deciders are looked up as module
# attributes at each call, so rebinding them on the module reaches cast_rat.
_IRRED_DECIDERS: Dict[IrredStrategy, Callable[[Nat, Nat], bool]] = {
    IrredStrategy.BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, PEANO_ARITH), Holds
    ),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: isinstance(
        irreducible_bounded(t, b, MACHINE_ARITH), Holds
    ),
    IrredStrategy.GCD: lambda t, b: gcd(t, b) == 1,
}


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
    check_nat(top)
    check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")
    if bottom == 0:
        violated = f"0 <> {bottom}"
    elif _IRRED_DECIDERS[strategy](top, bottom):
        return AttestedRat(Rat(sign, top, bottom, _key=_RAT_KEY))
    else:
        violated = _irreducibility_text(top, bottom)
    if mode is FailureMode.EAGER:
        raise CastFault(f"mkRat {show_value(sign)} {top} {bottom}", violated)
    return FailedCastRat(sign, top, bottom, violated)
