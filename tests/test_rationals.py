import pytest

from gradcast.casts import Attested, CastFault, FailedCast, FailureMode, proj1, proj2
from gradcast.predicates import Holds, Refutes
from gradcast.rationals import (
    _RAT_KEY,
    MACHINE_ARITH,
    PEANO_ARITH,
    RAT_INVARIANTS,
    AttestedRat,
    FailedCastRat,
    IrredStrategy,
    Peano,
    Rat,
    cast_rat,
    gcd,
    irreducible_bounded,
)
import gradcast.rationals as rationals
from gradcast.cli import bench_strategies


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
    assert refined.prop_text == "0 <> 0"


def test_cast_rat_zero_bottom_never_runs_irreducibility(monkeypatch):
    calls = []

    def counting_decider(top, bottom):
        calls.append((top, bottom))
        return True

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
    for key in (object(), None):
        with pytest.raises(TypeError, match="^Rat cannot be constructed directly; use cast_rat$"):
            Rat(True, 1, 2, key)
        with pytest.raises(TypeError, match="^Rat cannot be constructed directly; use cast_rat$"):
            Rat(True, 1, 2, _key=key)


def test_peano_roundtrip():
    for n in range(10_001):
        assert Peano(n).count == n


def test_peano_arithmetic_matches_integers():
    for a in range(0, 12):
        for b in range(0, 12):
            assert Peano(a).mul(Peano(b)).count == a * b
            assert Peano(a).equals(Peano(b)) == (a == b)


def test_peano_rejects_negative():
    with pytest.raises(ValueError):
        Peano(-1)


def test_bench_strategies_reports_all_medians():
    report = bench_strategies(5, 10, 3)
    assert isinstance(report, dict)
    assert set(report) == set(IrredStrategy)
    assert all(t >= 0.0 for t in report.values())


def test_bench_strategies_trivial_instance():
    report = bench_strategies(1, 1, 1)
    assert set(report) == set(IrredStrategy)


def test_bench_strategies_on_coprime_pair():
    # gcd(40, 77) = 1: the timed casts all succeed.
    report = bench_strategies(40, 77, 3)
    assert set(report) == set(IrredStrategy)
    for strategy in IrredStrategy:
        assert isinstance(cast_rat(True, 40, 77, strategy=strategy), AttestedRat)


def test_bench_strategies_validates_arguments():
    with pytest.raises(ValueError):
        bench_strategies(5, 0, 3)
    with pytest.raises(ValueError):
        bench_strategies(5, 10, 0)


@pytest.mark.parametrize("field", ["sign", "top", "bottom"])
def test_rat_fields_are_read_only(field):
    refined = cast_rat(True, 5, 6)
    with pytest.raises(AttributeError):
        setattr(refined.value, field, 10)
    with pytest.raises(AttributeError):
        delattr(refined.value, field)
    with pytest.raises(AttributeError):
        setattr(refined, field, 10)
    assert (refined.sign, refined.top, refined.bottom) == (True, 5, 6)


def test_rational_results_are_the_cast_core_records():
    refined = cast_rat(False, 5, 6)
    assert isinstance(refined, Attested)
    assert isinstance(cast_rat(True, 5, 10), FailedCast)
    rat = proj1(refined)
    assert type(rat) is Rat and rat is refined.value
    assert (rat.sign, rat.top, rat.bottom) == (False, 5, 6)
    assert refined.pred is RAT_INVARIANTS
    # One shared evidence, the evidence of the predicate's holding verdict.
    assert proj2(refined) is proj2(cast_rat(True, 40, 77, strategy=IrredStrategy.BOUNDED))
    assert proj2(refined) is RAT_INVARIANTS.decide(rat).evidence
    assert proj2(refined).summary == "the bottom is nonzero and the fraction is irreducible"


@pytest.mark.parametrize("top_bottom", [(5, 10), (1, 0), (0, 0)])
def test_failed_rational_projections_raise_the_field_fault(top_bottom):
    refined = cast_rat(True, *top_bottom)
    with pytest.raises(CastFault) as field:
        refined.top
    expected = (str(field.value), field.value.value_text, field.value.prop_text)
    assert expected[1:] == (refined.value_text, refined.prop_text)
    for project in (proj1, proj2):
        with pytest.raises(CastFault) as excinfo:
            project(refined)
        fault = excinfo.value
        assert (str(fault), fault.value_text, fault.prop_text) == expected


def test_equal_casts_are_equal_and_hash_equal():
    first, second = cast_rat(True, 5, 6), cast_rat(True, 5, 6, strategy=IrredStrategy.BOUNDED)
    assert first is not second and first.value is not second.value
    assert first == second and hash(first) == hash(second)
    assert first.value == second.value and hash(first.value) == hash(second.value)
    assert first != cast_rat(False, 5, 6)
    failed, again = cast_rat(True, 5, 10), cast_rat(True, 5, 10, mode=FailureMode.LAZY)
    assert failed == again and hash(failed) == hash(again)
    assert failed != cast_rat(True, 1, 0)


def test_rational_results_match_class_patterns_and_repr():
    irreducibility = "forall x y z, y * x = 5 /\\ z * x = 6 -> 1 = x"
    match cast_rat(True, 5, 6):
        case AttestedRat(Rat(True, top, bottom=6), rationals.RAT_INVARIANTS, evidence):
            assert top == 5 and evidence.summary.startswith("the bottom")
        case _:
            pytest.fail("no match")
    match cast_rat(False, 1, 0):
        case FailedCastRat(value_text, prop_text="0 <> 0"):
            assert value_text == "mkRat false 1 0"
        case _:
            pytest.fail("no match")
    assert repr(cast_rat(True, 5, 6)) == (
        "AttestedRat(value=Rat(sign=True, top=5, bottom=6), "
        f"prop_text={irreducibility!r}, evidence=Evidence("
        "'the bottom is nonzero and the fraction is irreducible'))"
    )
    assert repr(cast_rat(True, 1, 0)) == (
        "FailedCastRat(value_text='mkRat true 1 0', prop_text='0 <> 0')"
    )


@pytest.mark.parametrize("strategy", list(IrredStrategy))
def test_rat_invariants_agree_with_cast_rat(strategy):
    for top in range(41):
        for bottom in range(41):
            refined = cast_rat(bool(top % 2), top, bottom, strategy=strategy)
            candidate = Rat(bool(top % 2), top, bottom, _key=_RAT_KEY)
            verdict = RAT_INVARIANTS.decide(candidate)
            assert isinstance(verdict, Holds) == isinstance(refined, AttestedRat), (top, bottom)
            assert RAT_INVARIANTS.render(candidate) == refined.prop_text
            if isinstance(refined, AttestedRat):
                assert refined.value == candidate
                assert verdict.evidence is refined.evidence
