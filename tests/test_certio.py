import pathlib

import pytest

from conftest import words
from ordcalc import calculus as ca
from ordcalc import certio, freegroup
from ordcalc import rightorder as ro
from ordcalc.calculus import CalculusId
from ordcalc.witnesses import (
    ConjugateEntry,
    ConjugateProduct,
    Factorization,
    RefutationLeaf,
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
# (x against y y'x, which reduces to x), so these two leaves pin the
# fallback to the next rotation in both star calculi.
FALLBACK_WORDS = ("x'x'", "x", "y", "y'x")


def _fallback_glgstar(joins):
    return ca.derive_glgstar(joins, RefutationLeaf(Factorization((0, 1, 2, 3))))


def _fallback_grgstar(joins):
    entries = tuple(ConjugateEntry(freegroup.IDENTITY, i, 1) for i in range(4))
    return ca.derive_grgstar(joins, RefutationLeaf(ConjugateProduct(entries)))


GOLDEN_PROOFS = (
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
