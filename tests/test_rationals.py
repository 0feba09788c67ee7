import pytest

from gradcast.casts import CastFault, FailureMode
from gradcast.predicates import Holds, Refutes, _holds
from gradcast.rationals import (
    MACHINE_ARITH,
    PEANO_ARITH,
    AttestedRat,
    BenchReport,
    FailedCastRat,
    IrredStrategy,
    Peano,
    Rat,
    bench_strategies,
    cast_rat,
    gcd,
    irreducible_bounded,
    irreducible_gcd,
)
import gradcast.rationals as rationals


def holds(decision):
    return isinstance(decision, Holds)


def divisor_scan_irreducible(top, bottom):
    """Independent oracle: no x >= 2 divides both top and bottom."""
    return not any(
        top % x == 0 and bottom % x == 0 for x in range(2, max(top, bottom) + 1)
    )


def least_counterexample(top, bottom):
    """Least (x, y, z) with y*x = top, z*x = bottom and x != 1, by triple scan."""
    bound = max(top, bottom)
    for x in range(bound + 1):
        for y in range(bound + 1):
            for z in range(bound + 1):
                if y * x == top and z * x == bottom and x != 1:
                    return (x, y, z)
    return None


def test_gcd_examples():
    assert gcd(5, 6) == 1
    assert gcd(5, 10) == 5
    assert gcd(0, 7) == 7
    assert gcd(7, 0) == 7
    assert gcd(40, 77) == 1


def test_irreducible_bounded_examples():
    assert holds(irreducible_bounded(5, 6, MACHINE_ARITH))
    assert holds(irreducible_bounded(1, 1, MACHINE_ARITH))
    assert not holds(irreducible_bounded(5, 10, MACHINE_ARITH))


def test_irreducible_bounded_refutation_names_least_triple():
    assert least_counterexample(5, 10) == (5, 1, 2)
    verdict = irreducible_bounded(5, 10, MACHINE_ARITH)
    assert isinstance(verdict, Refutes)
    assert "x=5, y=1, z=2" in verdict.refutation.summary


def test_irreducible_bounded_requires_nonzero_bottom():
    with pytest.raises(ValueError):
        irreducible_bounded(5, 0, MACHINE_ARITH)


def test_both_bounded_representations_agree():
    for top in range(0, 13):
        for bottom in range(1, 13):
            machine = holds(irreducible_bounded(top, bottom, MACHINE_ARITH))
            peano = holds(irreducible_bounded(top, bottom, PEANO_ARITH))
            assert machine == peano == divisor_scan_irreducible(top, bottom)


def test_irreducible_gcd_examples():
    assert holds(irreducible_gcd(5, 6))
    assert not holds(irreducible_gcd(5, 10))
    for k in range(1, 12):
        assert holds(irreducible_gcd(1, k))
    with pytest.raises(ValueError):
        irreducible_gcd(3, 0)


GCD_JUSTIFICATION = (
    " (via equivalence: irreducibility is equivalent to gcd(top, bottom) = 1 "
    "for a nonzero bottom)"
)


@pytest.mark.parametrize(
    "top, bottom, arm, summary",
    [
        (5, 6, Holds, "gcd 5 6 = 1"),
        (5, 10, Refutes, "gcd 5 10 = 5"),
        (
            123456789012345678,
            987654321098765431,
            Holds,
            "gcd 123456789012345678 987654321098765431 = 1",
        ),
        (
            123456789012345678,
            987654321098765432,
            Refutes,
            "gcd 123456789012345678 987654321098765432 = 2",
        ),
    ],
)
def test_irreducible_gcd_summaries(top, bottom, arm, summary):
    verdict = irreducible_gcd(top, bottom)
    assert type(verdict) is arm
    evidence = verdict.evidence if arm is Holds else verdict.refutation
    assert evidence.summary == summary + GCD_JUSTIFICATION


def test_cast_rat_good():
    refined = cast_rat(True, 5, 6)
    assert isinstance(refined, AttestedRat)
    assert refined.sign is True
    assert refined.top == 5
    assert refined.bottom == 6


def test_cast_rat_bad_blocks_projections():
    refined = cast_rat(True, 5, 10)
    assert isinstance(refined, FailedCastRat)
    for field in ("sign", "top", "bottom"):
        with pytest.raises(CastFault) as excinfo:
            getattr(refined, field)
        assert excinfo.value.value_text == "mkRat true 5 10"


def test_cast_rat_zero_bottom_fails_first_guard():
    refined = cast_rat(True, 1, 0)
    assert isinstance(refined, FailedCastRat)
    assert refined.violated == "0 <> 0"


def test_cast_rat_zero_bottom_never_runs_irreducibility(monkeypatch):
    calls = []

    def counting_decider(top, bottom):
        calls.append((top, bottom))
        return _holds("counted")

    counted = {strategy: counting_decider for strategy in IrredStrategy}
    monkeypatch.setattr(rationals, "_IRRED_DECIDERS", counted)
    cast_rat(True, 1, 0, strategy=IrredStrategy.BOUNDED)
    assert calls == []
    cast_rat(True, 5, 6, strategy=IrredStrategy.BOUNDED)
    assert calls == [(5, 6)]


def test_cast_rat_eager_raises():
    with pytest.raises(CastFault) as excinfo:
        cast_rat(True, 5, 10, mode=FailureMode.EAGER)
    assert excinfo.value.message == "Cast has failed"
    assert excinfo.value.value_text == "mkRat true 5 10"


def test_cast_rat_strategies_agree_on_spot_checks():
    for top, bottom in [(5, 6), (5, 10), (1, 1), (40, 77), (0, 1), (0, 4), (12, 8)]:
        outcomes = {
            strategy: isinstance(
                cast_rat(True, top, bottom, strategy=strategy), AttestedRat
            )
            for strategy in IrredStrategy
        }
        assert len(set(outcomes.values())) == 1, (top, bottom, outcomes)
        assert outcomes[IrredStrategy.GCD] == divisor_scan_irreducible(top, bottom)


def test_attested_rats_satisfy_both_invariants():
    for top in range(0, 15):
        for bottom in range(0, 15):
            refined = cast_rat(False, top, bottom)
            if isinstance(refined, AttestedRat):
                assert refined.bottom != 0
                assert gcd(refined.top, refined.bottom) == 1


def test_rat_cannot_be_constructed_directly():
    with pytest.raises(TypeError):
        Rat(True, 1, 2)


def test_peano_roundtrip():
    for n in range(10_001):
        assert Peano.from_int(n).to_int() == n


def test_peano_arithmetic_matches_integers():
    for a in range(0, 12):
        for b in range(0, 12):
            assert Peano.from_int(a).mul(Peano.from_int(b)).to_int() == a * b
            assert Peano.from_int(a).equals(Peano.from_int(b)) == (a == b)


def test_peano_rejects_negative():
    with pytest.raises(ValueError):
        Peano(-1)


def test_bench_strategies_reports_all_medians():
    report = bench_strategies(5, 10, 3)
    assert isinstance(report, BenchReport)
    assert set(report.medians) == set(IrredStrategy)
    assert all(t >= 0.0 for t in report.medians.values())


def test_bench_strategies_trivial_instance():
    report = bench_strategies(1, 1, 1)
    assert set(report.medians) == set(IrredStrategy)


def test_bench_strategies_on_coprime_pair():
    # gcd(40, 77) = 1: the timed casts all succeed.
    report = bench_strategies(40, 77, 3)
    assert set(report.medians) == set(IrredStrategy)
    for strategy in IrredStrategy:
        assert isinstance(cast_rat(True, 40, 77, strategy=strategy), AttestedRat)


def test_bench_strategies_validates_arguments():
    with pytest.raises(ValueError):
        bench_strategies(5, 0, 3)
    with pytest.raises(ValueError):
        bench_strategies(5, 10, 0)
