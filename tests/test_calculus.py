import pytest

from conftest import product_leaf, words
from ordcalc import calculus as ca
from ordcalc import freegroup as fg
from ordcalc import rightorder as ro
from ordcalc.calculus import (
    CalculusId,
    Derivation,
    DerivationError,
    Hypersequent,
    Sequent,
    rule_instance,
)
from ordcalc.witnesses import (
    ConjugateEntry,
    ConjugateProduct,
    RefutationBranch,
    RefutationLeaf,
)


def _goal(*texts):
    return ca.hypersequent_of_words(words(*texts))


def test_group_valid():
    assert Sequent((1, 2, -2, -1)).word.is_identity
    assert not Sequent((1, 2, -1, -2)).word.is_identity
    assert Sequent(()).word.is_identity


def test_hypersequent_set_semantics():
    hyper = Hypersequent.of([Sequent((1, -1)), Sequent(()), Sequent((2,))])
    assert len(hyper) == 2  # both identity components merge, first raw kept
    assert hyper.has_raw((1, -1))
    assert not hyper.has_raw(())
    with pytest.raises(ValueError):
        Hypersequent((Sequent((1,)), Sequent((2, -2, 1))))


def test_hand_built_ga_derivation_accepted():
    goal = _goal("x", "x'")
    axiom = Derivation(
        Hypersequent.of([Sequent((1, -1)), Sequent((1,)), Sequent((-1,))]),
        rule_instance("id", gamma=(1, -1)),
    )
    split = Derivation(
        goal, rule_instance("split", gamma=(1,), delta=(-1,)), (axiom,)
    )
    assert ca.check(CalculusId.GA, split, goal).ok
    # the same tree is not a derivation in the star system
    result = ca.check(CalculusId.GLGSTAR, split, goal)
    assert not result.ok and "not part of this calculus" in result.message


def test_id_side_condition_enforced():
    # x x y' y' x' y: two x against one x', two y' against one y
    raw = (1, 1, -2, -2, -1, 2)
    goal = Hypersequent.of([Sequent(raw)])
    node = Derivation(goal, rule_instance("id", gamma=raw))
    result = ca.check(CalculusId.GA, node, goal)
    assert not result.ok
    assert "side condition failed" in result.message
    assert "pair off" in result.message
    # the literal order is free: any arrangement that pairs off is an axiom
    raw = (2, 1, -2, 1, -1, -1)
    goal = Hypersequent.of([Sequent(raw)])
    node = Derivation(goal, rule_instance("id", gamma=raw))
    assert ca.check(CalculusId.GA, node, goal).ok


def test_exchange_is_not_a_ga_rule():
    # y x x' y' from y y' x x' by exchanging the blocks x x' and y'
    raw, premise_raw = (2, 1, -1, -2), (2, -2, 1, -1)
    axiom = Derivation(
        Hypersequent.of([Sequent(premise_raw)]), rule_instance("id", gamma=premise_raw)
    )
    goal = Hypersequent.of([Sequent(raw)])
    exchange = Derivation(
        goal, rule_instance("ex", pi=(2,), gamma=(1, -1), delta=(-2,)), (axiom,)
    )
    result = ca.check(CalculusId.GA, exchange, goal)
    assert not result.ok and result.message == "unknown rule 'ex'"


def test_gv_side_condition_enforced():
    goal = _goal("x")
    node = Derivation(goal, rule_instance("gv", gamma=(1,)))
    result = ca.check(CalculusId.GLGSTAR, node, goal)
    assert not result.ok and "group valid" in result.message


def test_star_side_condition_enforced():
    context = _goal("xx")
    pos = Derivation(
        Hypersequent.of([*context.sequents, Sequent(())]),
        rule_instance("gv", gamma=()),
    )
    neg = Derivation(
        Hypersequent.of([*context.sequents, Sequent(())]),
        rule_instance("gv", gamma=()),
    )
    node = Derivation(context, rule_instance("star", delta=(1, -1)), (pos, neg))
    result = ca.check(CalculusId.GLGSTAR, node, context)
    assert not result.ok and "side condition" in result.message


def test_premise_components_outside_the_conclusion_are_rejected():
    # e <= x' fails, but a star whose premises both carry an extra e, each
    # a gv axiom, would discharge it if the conclusion's context were
    # not compared with the premises'
    goal = _goal("x'")
    premises = tuple(
        Derivation(
            Hypersequent.of([*goal.sequents, Sequent((c,)), Sequent(())]),
            rule_instance("gv", gamma=()),
        )
        for c in (2, -2)
    )
    node = Derivation(goal, rule_instance("star", delta=(2,)), premises)
    result = ca.check(CalculusId.GLGSTAR, node, goal)
    assert not result.ok
    assert result.message == "conclusion context does not match the rule schema"


def test_check_locates_single_corrupted_certificate():
    verdict = ro.decide_lg_cs(words("xx", "yy", "x'y'"), 2)
    goal = _goal("xx", "yy", "x'y'")
    derivation = verdict.certificate
    assert ca.check(CalculusId.GLGSTAR, derivation, goal).ok

    # corrupt the leftmost gv certificate: flip its first literal
    def corrupt(node):
        if node.instance.rule == "gv" and not node.premises:
            gamma = node.instance.cert("gamma")
            bad = (-gamma[0],) + gamma[1:]
            return Derivation(node.conclusion, rule_instance("gv", gamma=bad), ())
        return Derivation(
            node.conclusion,
            node.instance,
            tuple(corrupt(p) for p in node.premises),
        )

    mutated = corrupt(derivation)
    result = ca.check(CalculusId.GLGSTAR, mutated, goal)
    assert not result.ok
    # the reported node is the corrupted axiom, and only that node fails
    target = mutated
    for index in result.path:
        target = target.premises[index]
    assert target.instance.rule == "gv"


def test_derive_ga_examples():
    pair = words("x y'", "y x'")
    derivation = ca.derive_ga(pair, (1, 1))
    assert ca.check(CalculusId.GA, derivation, ca.hypersequent_of_words(pair)).ok

    identity_only = ca.derive_ga([fg.IDENTITY], (1,))
    assert ca.check(
        CalculusId.GA, identity_only, ca.hypersequent_of_words([fg.IDENTITY])
    ).ok

    three = words("xx", "yy", "x'y'")
    derivation = ca.derive_ga(three, (1, 1, 2))
    assert ca.check(CalculusId.GA, derivation, ca.hypersequent_of_words(three)).ok


def _node_count(derivation):
    count, todo = 0, [derivation]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.premises)
    return count


def test_derive_ga_has_one_node_per_factor():
    # one id axiom and a split for every factor after the first
    for texts, multipliers in (
        (("x y'", "y x'"), (1, 1)),
        (("xx", "yy", "x'y'"), (1, 1, 2)),
        (("x'x'", "x", "y", "y'x"), (1, 1, 1, 1)),
        (("xxx", "x'", "y"), (1, 3, 0)),
        (("x" * 5 + "y" * 7, "x'", "y'"), (2, 10, 14)),
    ):
        derivation = ca.derive_ga(words(*texts), multipliers)
        assert _node_count(derivation) == sum(multipliers), texts
        assert {derivation.instance.rule} <= {"id", "split"}


def test_derive_ga_rejects_bad_multipliers():
    with pytest.raises(DerivationError):
        ca.derive_ga(words("x"), (1,))
    with pytest.raises(DerivationError):
        ca.derive_ga(words("x", "x'"), (0, 0))
    with pytest.raises(DerivationError):
        ca.derive_ga(words("x", "x'"), (1, -1))


def test_derive_glgstar_examples():
    pair = words("x", "x'")
    tree = product_leaf((0, 1))
    derivation = ca.derive_glgstar(pair, tree)
    assert ca.check(CalculusId.GLGSTAR, derivation, ca.hypersequent_of_words(pair)).ok

    triple = words("xx", "yy", "x'y'")
    outcome = ro.extend_right_order(triple, 2)
    derivation = ca.derive_glgstar(triple, outcome)
    assert ca.check(
        CalculusId.GLGSTAR, derivation, ca.hypersequent_of_words(triple)
    ).ok

    malformed = RefutationBranch(fg.IDENTITY, tree, tree)
    with pytest.raises(DerivationError):
        ca.derive_glgstar(pair, malformed)


def test_derive_grgstar_with_sign_branching():
    # conj(y, x) * conj(y, x') cancels, whichever sign the pivot y takes
    pair = words("x", "x'")
    product = ConjugateProduct(
        (ConjugateEntry(words("y")[0], 0), ConjugateEntry(words("y")[0], 1))
    )
    tree = RefutationBranch(words("y")[0], RefutationLeaf(product), RefutationLeaf(product))
    derivation = ca.derive_grgstar(pair, tree)
    goal = ca.hypersequent_of_words(pair)
    assert ca.check(CalculusId.GRGSTAR, derivation, goal).ok
    # the star node sits at the root with the pivot as its certificate
    assert derivation.instance.rule == "star"
    assert derivation.instance.cert("delta") == (2,)


def test_derive_grgstar_examples():
    pair = words("x", "x'")
    tree = ro.rg_refute_bounded(pair, 1, 0)
    derivation = ca.derive_grgstar(pair, tree)
    assert ca.check(CalculusId.GRGSTAR, derivation, ca.hypersequent_of_words(pair)).ok

    conj = words("x y x'", "y'")
    tree = ro.rg_refute_bounded(conj, 2, 1)
    derivation = ca.derive_grgstar(conj, tree)
    goal = ca.hypersequent_of_words(conj)
    assert ca.check(CalculusId.GRGSTAR, derivation, goal).ok

    # a derivation with a cycle node is rejected under the star calculus
    result = ca.check(CalculusId.GLGSTAR, derivation, goal)
    assert not result.ok and "cycle" in result.message


def test_wrong_premise_count_rejected():
    goal = _goal("x", "x'")
    node = Derivation(goal, rule_instance("split", gamma=(1,), delta=(-1,)), ())
    result = ca.check(CalculusId.GA, node, goal)
    assert not result.ok and "premises" in result.message


def test_root_must_match_goal():
    conclusion = Hypersequent.of([Sequent((1, -1)), Sequent((1,))])
    node = Derivation(conclusion, rule_instance("gv", gamma=(1, -1)))
    assert ca.check(CalculusId.GLGSTAR, node, conclusion).ok
    result = ca.check(CalculusId.GLGSTAR, node, _goal("x"))
    assert not result.ok and "goal" in result.message
