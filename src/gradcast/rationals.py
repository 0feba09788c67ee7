"""Refinement-checked rational numbers.

A :class:`Rat` packages a sign, numerator and denominator together with two
invariants: the denominator is nonzero and the fraction is irreducible.  The
only way to obtain one is :func:`cast_rat`, which runs a decision procedure
for each invariant, in that order; the irreducibility decider is reached only
once the denominator is known to be nonzero, because the bounded formulation
of irreducibility is equivalent to the real thing only under that assumption.

Three interchangeable irreducibility deciders are provided.  The two bounded
ones enumerate candidate divisor triples up to max(top, bottom); they differ
only in the number representation used for the multiplications and
comparisons (:class:`Peano` unary naturals versus machine integers), which is
exactly what separates their running times.  The gcd decider replaces the
enumeration with Euclid's algorithm via the declared-equivalence combinator,
so failures still report the irreducibility proposition itself.
"""

from __future__ import annotations

import enum
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

from .casts import CastFault, FailureMode
from .instances import Nat, check_nat
from .predicates import Decision, Pred, Refutes, _holds, _refutes, p_equivalent
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
    """Greatest common divisor by Euclid's algorithm; gcd(0, b) = b."""
    check_nat(a)
    check_nat(b)
    while b:
        a, b = b, a % b
    return a


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


_IRRED_DECIDERS: Dict[IrredStrategy, Callable[[Nat, Nat], Decision]] = {
    IrredStrategy.BOUNDED: lambda t, b: irreducible_bounded(t, b, PEANO_ARITH),
    IrredStrategy.BINARY_BOUNDED: lambda t, b: irreducible_bounded(t, b, MACHINE_ARITH),
    IrredStrategy.GCD: irreducible_gcd,
}

_BOTTOM_NONZERO = Pred(
    decide=lambda b: _refutes("0 = 0") if b == 0 else _holds(f"0 <> {b}: {b} is a successor"),
    render=lambda b: f"0 <> {b}",
)


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
    enumeration (whose equivalence needs that fact).
    """
    check_nat(top)
    check_nat(bottom)
    if not isinstance(sign, bool):
        raise TypeError(f"sign must be a bool, got {sign!r}")

    def fail(violated: str) -> FailedCastRat:
        if mode is FailureMode.EAGER:
            raise CastFault(f"mkRat {show_value(sign)} {top} {bottom}", violated)
        return FailedCastRat(sign, top, bottom, violated)

    bottom_verdict = _BOTTOM_NONZERO.decide(bottom)
    if isinstance(bottom_verdict, Refutes):
        return fail(_BOTTOM_NONZERO.render(bottom))
    irred_verdict = _IRRED_DECIDERS[strategy](top, bottom)
    if isinstance(irred_verdict, Refutes):
        return fail(_irreducibility_text(top, bottom))
    return AttestedRat(Rat(sign, top, bottom, _key=_RAT_KEY))


@dataclass(frozen=True)
class BenchReport:
    """Median wall time per strategy for one (top, bottom) cast; measurement
    only, no assertions."""

    top: Nat
    bottom: Nat
    repetitions: int
    medians: Dict[IrredStrategy, float]


def bench_strategies(top: Nat, bottom: Nat, repetitions: int) -> BenchReport:
    """Time ``cast_rat`` under each strategy and report median seconds."""
    check_nat(top)
    check_nat(bottom)
    _require_nonzero_bottom(bottom)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    medians: Dict[IrredStrategy, float] = {}
    for strategy in IrredStrategy:
        samples = []
        for _ in range(repetitions):
            started = time.perf_counter()
            cast_rat(True, top, bottom, strategy=strategy, mode=FailureMode.LAZY)
            samples.append(time.perf_counter() - started)
        medians[strategy] = statistics.median(samples)
    return BenchReport(top=top, bottom=bottom, repetitions=repetitions, medians=medians)
