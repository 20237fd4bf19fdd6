import itertools
import pathlib
import sys

import pytest

from conftest import w, words
from ordcalc import abelian, certio, freegroup
from ordcalc import calculus as ca
from ordcalc import rightorder as ro
from ordcalc.calculus import CalculusId
from ordcalc.witnesses import (
    ConjugateEntry,
    ConjugateProduct,
    Factorization,
    RefutationBranch,
    RefutationLeaf,
    TruncatedRightOrder,
    verify_refutation_tree,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

S_WORDS = ("xx", "yy", "x'y'")
T_WORDS = ("xx", "xy", "yx'")


def test_proof_document_round_trip():
    joins = words(*S_WORDS)
    verdict = ro.decide_lg_cs(joins, 2)
    goal = ca.hypersequent_of_words(joins)
    doc = certio.proof_doc(CalculusId.GLGSTAR, [(goal, verdict.certificate)])
    reparsed = certio.loads(certio.dumps(doc))
    calculus, conjuncts = certio.load_proof(reparsed)
    assert calculus is CalculusId.GLGSTAR
    assert len(conjuncts) == 1
    loaded_goal, loaded_derivation = conjuncts[0]
    assert loaded_goal.words == goal.words
    assert loaded_derivation == verdict.certificate
    assert ca.check(calculus, loaded_derivation, loaded_goal).ok


def _certificate(decide):
    return lambda joins: decide(joins, 2).certificate


# The first rotation of x'x' | x | y | y'x collides at its second split
# (x against y y'x, which reduces to x), so these leaves and multipliers
# pin the fallback to the next rotation in all three calculi.
FALLBACK_WORDS = ("x'x'", "x", "y", "y'x")


def _fallback_glgstar(joins):
    return ca.derive_glgstar(joins, RefutationLeaf(Factorization((0, 1, 2, 3))))


def _fallback_grgstar(joins):
    entries = tuple(ConjugateEntry(freegroup.IDENTITY, i, 1) for i in range(4))
    return ca.derive_grgstar(joins, RefutationLeaf(ConjugateProduct(entries)))


def _fallback_ga(joins):
    return ca.derive_ga(joins, (1, 1, 1, 1))


def _abelian_certificate(joins):
    # the order the command line hands the words to the decider
    return abelian.validity_abelian(sorted(joins), 2).certificate


GOLDEN_PROOFS = (
    # xx | yy | x'y' balances with x'y' taken twice
    ("ga_example_valid", CalculusId.GA, S_WORDS, _abelian_certificate),
    ("rotation_fallback_ga", CalculusId.GA, FALLBACK_WORDS, _fallback_ga),
    ("branch_example_valid", CalculusId.GLGSTAR, S_WORDS, _certificate(ro.decide_lg_cs)),
    ("hm_example_valid", CalculusId.GLGSTAR, S_WORDS, _certificate(ro.decide_lg_hm)),
    (
        "rg_conjugate_valid",
        CalculusId.GRGSTAR,
        ("x y x'", "y'"),
        _certificate(lambda joins, arity: ro.decide_rg(joins, arity, 1)),
    ),
    ("rotation_fallback_glgstar", CalculusId.GLGSTAR, FALLBACK_WORDS, _fallback_glgstar),
    ("rotation_fallback_grgstar", CalculusId.GRGSTAR, FALLBACK_WORDS, _fallback_grgstar),
)


def test_golden_proof_is_bit_exact():
    for name, calculus, texts, derive in GOLDEN_PROOFS:
        joins = words(*texts)
        goal = ca.hypersequent_of_words(joins)
        doc = certio.proof_doc(calculus, [(goal, derive(joins))])
        expected = (GOLDEN / f"{name}.proof.json").read_bytes()
        assert certio.dumps(doc).encode() == expected, name
        assert certio.loads(expected.decode()) == doc, name


def test_golden_witness_is_bit_exact():
    joins = words(*T_WORDS)
    cs = certio.truncated_order_doc(ro.decide_lg_cs(joins, 2).certificate)
    hm = certio.sign_assignment_doc(joins, 2, ro.decide_lg_hm(joins, 2).certificate)
    for name, doc in (("branch_example_invalid", cs), ("hm_example_invalid", hm)):
        expected = (GOLDEN / f"{name}.witness.json").read_bytes()
        assert certio.dumps(doc).encode() == expected, name


def test_witness_documents_verify():
    verdict = ro.decide_lg_cs(words(*T_WORDS), 2)
    doc = certio.truncated_order_doc(verdict.certificate)
    assert certio.verify_witness_doc(doc) == []

    doc["elements"].remove("x")
    assert certio.verify_witness_doc(doc)  # totality gap reported


def test_separator_document_verification():
    doc = certio.separator_doc(words("x", "xy"), 2, (-1, -1))
    assert certio.verify_witness_doc(doc) == []
    doc = certio.separator_doc(words("x", "x'"), 2, (-1, 0))
    assert certio.verify_witness_doc(doc)


def test_refutation_document_round_trip():
    joins = words(*S_WORDS)
    tree = ro.extend_right_order(joins, 2)
    doc = certio.refutation_doc(joins, 2, tree, "right_order")
    assert certio.verify_witness_doc(doc) == []

    conj = words("x y x'", "y'")
    tree = ro.rg_refute_bounded(conj, 2, 1)
    doc = certio.refutation_doc(conj, 2, tree, "order")
    assert certio.verify_witness_doc(doc) == []
    # breaking a leaf sign must surface in verification
    raw = certio.loads(certio.dumps(doc))
    raw["tree"]["factors"][0]["sign"] = -1
    assert certio.verify_witness_doc(raw)


def test_sign_assignment_document():
    verdict = ro.decide_lg_hm(words(*T_WORDS), 2)
    doc = certio.sign_assignment_doc(words(*T_WORDS), 2, verdict.certificate)
    assert certio.verify_witness_doc(doc) == []
    # flipping the first sign makes the signed set reach the identity
    doc["signs"][0]["sign"] = -doc["signs"][0]["sign"]
    assert certio.verify_witness_doc(doc)


def test_forged_sign_assignment_rejected():
    # xx | yy | x'y' is valid, so no sign assignment may verify for it
    forged = {
        "schema_version": 1,
        "kind": "sign_assignment",
        "arity": 2,
        "words": ["x x", "y y", "x' y'"],
        "signs": [],
    }
    assert certio.verify_witness_doc(forged)

    genuine = certio.sign_assignment_doc(
        words(*T_WORDS), 2, ro.decide_lg_hm(words(*T_WORDS), 2).certificate
    )
    assert certio.verify_witness_doc(genuine) == []
    for forge in (
        lambda signs: signs.pop(),  # a pivot left unsigned
        lambda signs: signs.reverse(),  # pivots out of search order
        lambda signs: signs[0].update(sign=2),  # a sign outside 1, -1
    ):
        doc = certio.loads(certio.dumps(genuine))
        forge(doc["signs"])
        assert certio.verify_witness_doc(doc)


def test_out_of_range_witness_fields_are_format_errors():
    truncated = {"schema_version": 1, "kind": "truncated_right_order", "elements": ["x"]}
    docs = [
        {**truncated, "arity": 0, "level": 1},
        {**truncated, "arity": -1, "level": 2},
        {**truncated, "arity": 2, "level": 0},
    ]
    for kind, functional in (("separator", [-1, -1]), ("abelian_order_witness", [1, 1])):
        doc = {"schema_version": 1, "kind": kind, "functional": functional}
        docs += [
            {**doc, "arity": 0, "words": []},
            {**doc, "arity": -1, "words": ["x"]},
            {**doc, "arity": 1, "words": ["x", "xy"]},  # y is generator 2
        ]
    for doc in docs:
        with pytest.raises(certio.CertificateFormatError):
            certio.verify_witness_doc(doc)


_X_TIMES_INVERSE = RefutationLeaf(Factorization((0, 1)))
_X_TIMES_INVERSE_CONJUGATES = RefutationLeaf(
    ConjugateProduct(tuple(ConjugateEntry(freegroup.IDENTITY, i, 1) for i in (0, 1)))
)


def test_malformed_documents_rejected():
    with pytest.raises(certio.CertificateFormatError):
        certio.loads("not json")
    with pytest.raises(certio.CertificateFormatError):
        certio.loads("[1, 2]")
    with pytest.raises(certio.CertificateFormatError):
        certio.load_proof({"schema_version": 1, "kind": "proof"})
    with pytest.raises(certio.CertificateFormatError):
        certio.load_proof(
            {"schema_version": 2, "kind": "proof", "calculus": "GA", "conjuncts": []}
        )
    with pytest.raises(certio.CertificateFormatError):
        certio.verify_witness_doc({"kind": "mystery"})
    header = {"schema_version": 1, "arity": 2, "words": ["x"]}
    for doc in (
        {**header, "kind": "sign_assignment", "signs": [1]},
        {**header, "kind": "separator", "functional": ["a"]},
        {**header, "kind": "abelian_order_witness", "functional": ["a", 1]},
    ):
        with pytest.raises(certio.CertificateFormatError):
            certio.verify_witness_doc(doc)
    # refutations: an unknown flavor, a leaf without factors, and JSON
    # true where a sign or an index belongs
    joins = words("x", "x'")
    right = certio.refutation_doc(joins, 1, _X_TIMES_INVERSE, "right_order")
    order = certio.refutation_doc(joins, 1, _X_TIMES_INVERSE_CONJUGATES, "order")
    assert certio.verify_witness_doc(right) == certio.verify_witness_doc(order) == []
    for genuine, path, value in (
        (right, ("flavor",), "banana"),
        (right, ("tree", "factors"), []),
        (order, ("tree", "factors"), []),
        (right, ("tree", "factors", 1), True),
        (order, ("tree", "factors", 1, "base"), True),
        (order, ("tree", "factors", 0, "sign"), True),
    ):
        doc = certio.loads(certio.dumps(genuine))
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
        with pytest.raises(certio.CertificateFormatError):
            certio.verify_witness_doc(doc)


def _deep_chain(depth: int, leaf: RefutationLeaf):
    """Branches on distinct pivots, each positive side one level deeper; for
    the words x | x', every leaf multiplies x by x'."""
    pivots = [
        p
        for p in freegroup.ball(2, 7)
        if not p.is_identity and p < freegroup.inv(p) and p != w("x")
    ]
    tree = leaf
    for pivot in reversed(pivots[:depth]):
        tree = RefutationBranch(pivot, tree, leaf)
    return tree


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_refutation_trees_of_any_depth():
    joins = words("x", "x'")
    for leaf, flavor in (
        (_X_TIMES_INVERSE, "right_order"),
        (_X_TIMES_INVERSE_CONJUGATES, "order"),
    ):
        tree = _deep_chain(1100, leaf)
        assert verify_refutation_tree(tuple(joins), tree, flavor == "order") is None
        doc = certio.refutation_doc(joins, 2, tree, flavor)
        assert certio.verify_witness_doc(certio.loads(certio.dumps(doc))) == []

    # the proof grows quadratically with the depth, so it is not written
    tree = _deep_chain(300, _X_TIMES_INVERSE)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        derivation = ca.derive_glgstar(joins, tree)
    finally:
        sys.setrecursionlimit(limit)
    stars = 0
    while derivation.instance.rule == "star":
        derivation, stars = derivation.premises[0], stars + 1
    assert stars == 300


def _mutants(doc: dict):
    """The document with one leaf factor dropped, then with that factor
    made invalid: for right_order an index one past its leaf's generators,
    for order the opposite sign.  Every mutant is changed in place."""
    stack = [(doc["tree"], 0)]
    while stack:
        node, depth = stack.pop()
        if node["kind"] == "branch":
            stack += [(node["positive"], depth + 1), (node["negative"], depth + 1)]
            continue
        factors = node["factors"]
        for k, factor in enumerate(factors):
            if doc["flavor"] == "order":
                broken = {**factor, "sign": -factor["sign"]}
            else:
                broken = len(doc["words"]) + depth
            for mutant in ([], [broken]):
                node["factors"] = factors[:k] + mutant + factors[k + 1 :]
                yield doc
        node["factors"] = factors


def test_mutated_refutations_rejected():
    # Dropping a factor of an identity product leaves a conjugate of its
    # inverse, and flipping a sign a conjugate of a nontrivial square, so
    # no mutant multiplies to the identity.
    pool = [p for p in freegroup.ball(2, 2) if not p.is_identity]
    docs = []
    for size in (1, 2, 3):
        for joins in itertools.combinations(pool, size):
            tree = ro.extend_right_order(joins, 2)
            if not isinstance(tree, TruncatedRightOrder):
                docs.append(certio.refutation_doc(joins, 2, tree, "right_order"))
            tree = ro.rg_refute_bounded(joins, 2, 1)
            if tree is not None:
                docs.append(certio.refutation_doc(joins, 2, tree, "order"))
    flavors = [doc["flavor"] for doc in docs]
    assert (flavors.count("right_order"), flavors.count("order")) == (236, 288)
    mutants = 0
    for doc in docs:
        assert certio.verify_witness_doc(doc) == []
        for mutant in _mutants(doc):
            mutants += 1
            try:
                issues = certio.verify_witness_doc(mutant)
            except certio.CertificateFormatError:
                continue
            assert issues, certio.dumps(mutant)
    assert mutants == 2944
