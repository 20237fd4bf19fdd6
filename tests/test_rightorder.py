import itertools

import pytest

from conftest import w, words
from ordcalc import abelian
from ordcalc import calculus as ca
from ordcalc import freegroup as fg
from ordcalc import rightorder as ro
from ordcalc.witnesses import (
    RefutationBranch,
    RefutationLeaf,
    TruncatedRightOrder,
    verify_refutation_tree,
)

S_WORDS = ("xx", "yy", "x'y'")
T_WORDS = ("xx", "xy", "yx'")


def test_close_truncated_matches_worked_sets():
    closed = ro.close_truncated(words(*S_WORDS), 2)
    assert closed == frozenset(words("xx", "yy", "x'y'", "xy'", "x'y", "xy"))

    closed = ro.close_truncated(words(*T_WORDS), 2)
    assert closed == frozenset(words("xx", "xy", "yx'", "yx", "yy"))

    assert ro.close_truncated(words("x"), 1) == frozenset(words("x"))


def test_close_truncated_validates_input():
    with pytest.raises(ValueError):
        ro.close_truncated([fg.IDENTITY], 2)
    with pytest.raises(ValueError):
        ro.close_truncated(words("xxx"), 2)


def test_extend_right_order_refutes_first_set():
    outcome = ro.extend_right_order(words(*S_WORDS), 2)
    assert isinstance(outcome, (RefutationLeaf, RefutationBranch))
    assert verify_refutation_tree(tuple(words(*S_WORDS)), outcome) is None


def test_extend_right_order_witnesses_second_set():
    outcome = ro.extend_right_order(words(*T_WORDS), 2)
    assert isinstance(outcome, TruncatedRightOrder)
    assert outcome.level == 2
    expected = frozenset(words("xx", "xy", "yx'", "yx", "yy", "x", "y"))
    assert expected <= outcome.elements
    assert outcome.elements == expected
    assert outcome.verify()
    # no element together with its inverse
    assert not any(fg.inv(u) in outcome.elements for u in outcome.elements)


def test_extend_right_order_trivial_and_identity_cases():
    outcome = ro.extend_right_order(words("x"), 2)
    assert isinstance(outcome, TruncatedRightOrder)
    assert outcome.level == 1 and outcome.elements == frozenset(words("x"))

    outcome = ro.extend_right_order([fg.IDENTITY, w("x")], 2)
    assert isinstance(outcome, RefutationLeaf)
    assert outcome.witness.factors == (0,)


def test_extend_right_order_deeper_level_keeps_verdicts():
    outcome = ro.extend_right_order(words(*S_WORDS), 2, level=3)
    assert isinstance(outcome, (RefutationLeaf, RefutationBranch))
    assert verify_refutation_tree(tuple(words(*S_WORDS)), outcome) is None

    outcome = ro.extend_right_order(words(*T_WORDS), 2, level=3)
    assert isinstance(outcome, TruncatedRightOrder)
    assert outcome.level == 3
    assert outcome.verify()

    with pytest.raises(ValueError):
        ro.extend_right_order(words(*T_WORDS), 2, level=1)


def test_initial_subterms_and_cis():
    prefixes = ro.initial_subterms(words("xx"))
    assert prefixes == frozenset([fg.IDENTITY, w("x"), w("xx")])
    assert ro.cis(words("xx")) == frozenset(words("x", "x'", "xx", "x'x'"))
    assert ro.cis(words("x")) == frozenset(words("x", "x'"))


def test_cis_is_closed_under_inversion(rng):
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    for _ in range(50):
        sample = rng.sample(pool, rng.randint(1, 3))
        closed = ro.cis(sample)
        assert closed == frozenset(fg.inv(u) for u in closed)
        assert fg.IDENTITY not in closed


def test_decide_lg_cs_on_worked_examples():
    verdict = ro.decide_lg_cs(words(*S_WORDS), 2)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words(*S_WORDS))
    assert ca.check(ca.CalculusId.GLGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_lg_cs(words(*T_WORDS), 2)
    assert verdict.status == "INVALID"
    assert verdict.certificate.verify()


def test_single_words_are_never_valid():
    for u in fg.ball(2, 3):
        if u.is_identity:
            continue
        assert ro.decide_lg_cs([u], 2).status == "INVALID"


def test_decide_lg_hm_on_worked_examples():
    verdict = ro.decide_lg_hm(words(*S_WORDS), 2)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words(*S_WORDS))
    assert ca.check(ca.CalculusId.GLGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_lg_hm(words(*T_WORDS), 2)
    assert verdict.status == "INVALID"
    assignment = verdict.certificate.as_dict()
    assert assignment[w("x")] == 1 and assignment[w("y")] == 1

    assert ro.decide_lg_hm([fg.IDENTITY], 2).status == "VALID"


def test_procedures_agree_on_short_sets():
    pool = [u for u in fg.ball(2, 1) if not u.is_identity]
    for size in (1, 2):
        for subset in itertools.combinations(pool, size):
            sub = list(subset)
            cs = ro.decide_lg_cs(sub, 2)
            hm = ro.decide_lg_hm(sub, 2)
            extends = isinstance(
                ro.extend_right_order(sub, 2), TruncatedRightOrder
            )
            assert cs.status == hm.status
            assert extends == (cs.status == "INVALID")


def test_rg_refute_bounded_examples():
    tree = ro.rg_refute_bounded(words("x", "x'"), 1, 0)
    assert isinstance(tree, RefutationLeaf)
    entries = tree.witness.entries
    assert [(e.conjugator, e.base, e.sign) for e in entries] == [
        (fg.IDENTITY, 0, 1),
        (fg.IDENTITY, 1, 1),
    ]

    degenerate = ro.rg_refute_bounded([fg.reduce([1, 2, -2, -1])], 2, 0)
    assert isinstance(degenerate, RefutationLeaf)

    tree = ro.rg_refute_bounded(words("x y x'", "y'"), 2, 1)
    assert isinstance(tree, RefutationLeaf)
    assert tree.witness.product(tuple(words("x y x'", "y'"))).is_identity
    assert any(e.conjugator == w("x'") for e in tree.witness.entries)


def test_decide_rg_three_outcomes():
    verdict = ro.decide_rg(words("x", "x'"), 1, conjugator_bound=0)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words("x", "x'"))
    assert ca.check(ca.CalculusId.GRGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_rg(words("x"), 1)
    assert verdict.status == "INVALID"
    assert verdict.certificate.functional == (-1,)

    verdict = ro.decide_rg(words("x' y' x y"), 2)
    assert verdict.status == "UNKNOWN"
    assert verdict.certificate.conjugator_bound == ro.DEFAULT_CONJUGATOR_BOUND


def test_decide_rg_with_explicit_pivots():
    verdict = ro.decide_rg(words("x' y' x y"), 2, pivots=words("x", "y"))
    assert verdict.status == "UNKNOWN"
    assert verdict.certificate.pivots == (w("x"), w("y"))
    with pytest.raises(ValueError):
        ro.rg_refute_bounded(words("x"), 1, 1, pivots=[fg.IDENTITY])


def test_sign_search_runs_deeper_than_the_recursion_limit():
    # one search level per pivot: 1,200 levels, all open, then a separator
    pivots = [fg.ReducedWord((1,) * k) for k in range(1, 1201)]
    verdict = ro.decide_rg(words("x"), 1, 0, pivots=pivots)
    assert verdict.status == "INVALID"
    assert isinstance(verdict.certificate, abelian.Separator)


def test_truncated_order_violations_detected():
    bad = TruncatedRightOrder(2, 2, frozenset(words("x", "x'")))
    assert bad.violations()
    good = TruncatedRightOrder(2, 1, frozenset(words("x", "y")))
    assert good.verify()
