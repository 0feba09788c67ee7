import itertools
import random

import pytest

from gradcast.predicates import (
    Evidence,
    Holds,
    Pred,
    Refutes,
    check_relate_spec,
    p_and,
    p_equivalent,
    p_false,
    p_forall_bounded,
    p_implies,
    p_is_true,
    p_not,
    p_or,
    p_proven,
    p_relate,
    p_true,
)
from gradcast.instances import dec_le, pred_lt_const


def holds(decision):
    return isinstance(decision, Holds)


def counting_pred(result_pred):
    """Wrap a predicate so we can observe how often decide runs."""
    calls = []

    def decide(a):
        calls.append(a)
        return result_pred.decide(a)

    return Pred(decide=decide, render=result_pred.render), calls


def test_p_true_always_holds():
    p = p_true()
    assert holds(p.decide(0))
    assert holds(p.decide("anything"))
    assert p.render(42) == "True"


def test_p_false_always_refutes():
    p = p_false()
    assert not holds(p.decide(0))
    assert not holds(p.decide([1, 2]))
    assert p.render(7) == "False"


@pytest.mark.parametrize(
    "combinator, table",
    [
        (p_and, lambda a, b: a and b),
        (p_or, lambda a, b: a or b),
        (p_implies, lambda a, b: (not a) or b),
    ],
)
def test_binary_combinators_match_classical_tables(combinator, table):
    arms = {True: p_true(), False: p_false()}
    for a, b in itertools.product([True, False], repeat=2):
        verdict = combinator(arms[a], arms[b]).decide(None)
        assert holds(verdict) == table(a, b), (combinator.__name__, a, b)


def test_p_not_matches_classical_table():
    assert holds(p_not(p_false()).decide(None))
    assert not holds(p_not(p_true()).decide(None))
    assert p_not(p_false()).render(None) == "~ False"


def test_p_and_short_circuits_and_names_left_conjunct():
    right, right_calls = counting_pred(p_false())
    verdict = p_and(p_false(), right).decide(None)
    assert isinstance(verdict, Refutes)
    assert "left conjunct" in verdict.refutation.summary
    assert right_calls == []


def test_p_and_names_right_conjunct_when_left_holds():
    verdict = p_and(p_true(), p_false()).decide(None)
    assert isinstance(verdict, Refutes)
    assert "right conjunct" in verdict.refutation.summary


def test_p_and_render_grammar():
    p = p_and(pred_lt_const(10), p_true())
    assert p.render(5) == "6 <= 10 /\\ True"
    assert p_or(p_false(), p_true()).render(None) == "False \\/ True"
    assert p_implies(p_false(), p_false()).render(None) == "False -> False"


def test_p_proven_always_holds_with_description():
    p = p_proven("lemma 3 of design doc")
    verdict = p.decide(object())
    assert holds(verdict)
    assert verdict.evidence.summary == "lemma 3 of design doc"


def test_p_proven_in_conjunction_follows_other_conjunct():
    le = pred_lt_const(10)
    conj = p_and(p_proven("established elsewhere"), le)
    for n in range(20):
        assert holds(conj.decide(n)) == holds(le.decide(n))


def test_p_equivalent_delegates_and_renders_original():
    substitute = pred_lt_const(10)
    p = p_equivalent(substitute, lambda n: f"small({n})", "bounded by design")
    assert holds(p.decide(5))
    assert not holds(p.decide(15))
    assert p.render(15) == "small(15)"


def test_p_equivalent_surfaces_justification():
    p = p_equivalent(p_true(), lambda _a: "original", "the reason")
    verdict = p.decide(None)
    assert "the reason" in verdict.evidence.summary


def test_p_equivalent_identity_behaves_like_substitute():
    base = pred_lt_const(7)
    same = p_equivalent(base, base.render, "identity")
    for n in range(15):
        assert holds(same.decide(n)) == holds(base.decide(n))
        assert same.render(n) == base.render(n)


def test_p_forall_bounded_all_true():
    assert holds(p_forall_bounded(10, lambda n: p_true()).decide(None))


def test_p_forall_bounded_refutes_at_least_counterexample():
    # n <= 9 holds for n in 0..9 and first fails at n = 10.
    verdict = p_forall_bounded(10, lambda n: pred_lt_const(10)).decide(None)
    assert isinstance(verdict, Refutes)
    assert "n = 10" in verdict.refutation.summary
    assert "11 <= 10" in verdict.refutation.summary


def test_p_forall_bounded_single_instance():
    def eq_zero(n):
        return p_relate(lambda m: m == 0, lambda m: f"{m} = 0")

    assert holds(p_forall_bounded(0, eq_zero).decide(None))


def test_p_forall_bounded_matches_brute_force():
    families = [
        lambda n: p_true(),
        lambda n: pred_lt_const(9),
        lambda n: p_relate(lambda m: m % 3 != 2, lambda m: f"{m} mod 3 <> 2"),
    ]
    for family in families:
        for k in range(0, 25):
            brute = all(holds(family(n).decide(n)) for n in range(k + 1))
            assert holds(p_forall_bounded(k, family).decide(None)) == brute


@pytest.mark.parametrize(
    "k, error, text",
    [
        (True, TypeError, "bound must be a natural, got True"),
        (2.5, TypeError, "bound must be a natural, got 2.5"),
        ("3", TypeError, "bound must be a natural, got '3'"),
        (None, TypeError, "bound must be a natural, got None"),
        (-1, ValueError, "bound must be a natural, got -1"),
    ],
)
def test_p_forall_bounded_rejects_a_bound_that_is_not_a_natural(k, error, text):
    # Checked when built: range() takes True as 1, and rejects 2.5 only when decided.
    with pytest.raises(error) as raised:
        p_forall_bounded(k, lambda n: p_true())
    assert str(raised.value) == text


def test_p_is_true():
    assert holds(p_is_true(True).decide(None))
    assert not holds(p_is_true(False).decide(None))
    assert p_is_true(False).render(None) == "Is_true false"
    assert p_is_true(True).render(None) == "Is_true true"


def test_p_relate_follows_witness():
    is_even = p_relate(lambda n: n % 2 == 0, lambda n: f"even({n})")
    assert holds(is_even.decide(4))
    assert not holds(is_even.decide(3))
    verdict = is_even.decide(4)
    assert verdict.evidence.summary == "witness = true"


def test_p_relate_const_true():
    p = p_relate(lambda _a: True, lambda a: f"anything({a})")
    for a in [0, 1, "x", None]:
        assert holds(p.decide(a))


def test_check_relate_spec_agreeing_witness():
    reference = Pred(
        decide=lambda a: dec_le(a % 2, 0),
        render=lambda a: f"{a} mod 2 = 0",
    )
    report = check_relate_spec(lambda a: (a & 1) == 0, reference, range(101))
    assert report.agrees
    assert report.checked == 101


def test_check_relate_spec_reports_disagreements():
    report = check_relate_spec(lambda _a: True, p_false(), [1])
    assert not report.agrees
    assert len(report.disagreements) == 1
    assert report.disagreements[0].value == 1


def test_check_relate_spec_rejects_empty_samples():
    with pytest.raises(ValueError):
        check_relate_spec(lambda _a: True, p_true(), [])


def test_decide_is_deterministic():
    rng = random.Random(7)
    preds = [pred_lt_const(10), p_true(), p_false(), p_not(pred_lt_const(3))]
    for _ in range(200):
        p = rng.choice(preds)
        n = rng.randint(0, 30)
        assert holds(p.decide(n)) == holds(p.decide(n))


def test_evidence_cannot_be_constructed_directly():
    with pytest.raises(TypeError):
        Evidence("forged")


def test_evidence_summary_is_read_only():
    evidence = pred_lt_const(10).decide(5).evidence
    with pytest.raises(AttributeError):
        evidence.summary = "forged"
    with pytest.raises(AttributeError):
        del evidence.summary
    assert evidence.summary == "6 <= 10 by arithmetic"


def test_evidence_only_flows_out_of_decisions():
    verdict = pred_lt_const(10).decide(5)
    assert isinstance(verdict.evidence, Evidence)
    refutation = pred_lt_const(10).decide(15)
    assert isinstance(refutation.refutation, Evidence)
