import itertools
import json
import pathlib
import sys

import pytest

from conftest import product_leaf, w, words
from schema1 import convert
from test_membership import HARD_HM_SETS
from ordcalc import abelian, certio, freegroup, membership, witnesses
from ordcalc import calculus as ca
from ordcalc import rightorder as ro
from ordcalc.calculus import CalculusId
from ordcalc.witnesses import (
    RefutationBranch,
    RefutationLeaf,
    SignAssignment,
    TruncatedRightOrder,
    verify_refutation_tree,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

S_WORDS = ("xx", "yy", "x'y'")
T_WORDS = ("xx", "xy", "yx'")


def _rejected(doc: dict, message: str, read=certio.verify_witness_doc) -> None:
    """Reading doc raises a format error whose message contains message."""
    with pytest.raises(certio.CertificateFormatError) as caught:
        read(doc)
    assert message in str(caught.value), (str(caught.value), doc)


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
    return ca.derive_glgstar(joins, product_leaf((0, 1, 2, 3)))


def _fallback_grgstar(joins):
    return ca.derive_grgstar(joins, product_leaf((0, 1, 2, 3)))


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


def _golden(name: str, words_=None) -> str:
    """The golden schema-1 file, converted to the current schema and written
    as certio writes it."""
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    return certio.dumps(convert(doc, words_))


def test_golden_proof_is_bit_exact():
    for name, calculus, texts, derive in GOLDEN_PROOFS:
        joins = words(*texts)
        goal = ca.hypersequent_of_words(joins)
        doc = certio.proof_doc(calculus, [(goal, derive(joins))])
        text = certio.dumps(doc)
        assert text == _golden(f"{name}.proof.json"), name
        assert certio.loads(text) == doc, name


def test_golden_witness_is_bit_exact():
    joins = words(*T_WORDS)
    texts = [freegroup.word_to_text(u) for u in joins]
    cs = certio.truncated_order_doc(ro.decide_lg_cs(joins, 2).certificate)
    hm = certio.sign_assignment_doc(joins, 2, ro.decide_lg_hm(joins, 2).certificate)
    for name, doc in (("branch_example_invalid", cs), ("hm_example_invalid", hm)):
        assert certio.dumps(doc) == _golden(f"{name}.witness.json", texts), name


def test_schema_1_files_are_rejected_as_unsupported():
    for path in sorted(GOLDEN.glob("*.json")):
        doc = certio.loads(path.read_text(encoding="utf-8"))
        read = certio.verify_witness_doc
        if doc["kind"] == "proof":
            read = certio.load_proof
        _rejected(doc, "unsupported schema version", read)


def test_witness_documents_verify():
    verdict = ro.decide_lg_cs(words(*T_WORDS), 2)
    doc = certio.truncated_order_doc(verdict.certificate)
    assert certio.verify_witness_doc(doc) == []

    doc["generators"].remove("x")
    assert certio.verify_witness_doc(doc)  # totality gap reported


def test_truncated_order_must_hold_its_words():
    # the words generate the cone, with the open path's signed pivots, so
    # a file holds them; y' is in no positive cone that holds y, and x'x'
    # in none that holds xx, so either in place of a word closes to e
    joins = words(*T_WORDS)
    genuine = certio.truncated_order_doc(ro.decide_lg_cs(joins, 2).certificate)
    assert certio.verify_witness_doc(genuine) == []
    cone = ro.close_truncated(joins + words(*genuine["generators"]), 2)
    for outside in ("y'", "x' x'"):
        assert w(outside) not in cone
        doc = certio.loads(certio.dumps(genuine))
        doc["words"][1] = outside
        assert certio.verify_witness_doc(doc) == [
            "the generators reach the identity within the level"
        ]


def test_truncated_order_elements_stay_within_arity():
    joins = words("x", "z")
    verdict = ro.decide_lg_cs(joins, 3)
    # the file the search writes: the words alone generate the cone x, z
    doc = certio.truncated_order_doc(verdict.certificate)
    assert (doc["arity"], doc["level"], doc["generators"]) == (3, 1, [])
    assert ro.close_truncated(joins, 1) == frozenset(joins)
    assert certio.verify_witness_doc(doc) == []
    _rejected({**doc, "arity": 2}, "generator index 3 exceeds arity 2")
    # a generator beyond the arity, with every word within it
    forged = {**doc, "arity": 2, "generators": ["z'"], "words": ["x"]}
    _rejected(forged, "generator index 3 exceeds arity 2")


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
    raw = certio.loads(certio.dumps(doc))
    assert certio._node_to_tree(raw["tree"], 2) == tree
    # breaking a leaf conjugator must surface in verification
    assert raw["tree"][-1]["factors"][0]["conjugator"] == "x'"
    raw["tree"][-1]["factors"][0]["conjugator"] = "x"
    assert certio.verify_witness_doc(raw)


def test_sign_assignment_document():
    verdict = ro.decide_lg_hm(words(*T_WORDS), 2)
    doc = certio.sign_assignment_doc(words(*T_WORDS), 2, verdict.certificate)
    assert certio.verify_witness_doc(doc) == []
    # one sign for each of the 11 pivots, and no pivot text
    assert doc["signs"] == "++++-+-++++" and "pivot" not in certio.dumps(doc)
    # flipping the first sign makes the signed set reach the identity
    doc["signs"] = _flipped(doc["signs"], 0)
    assert certio.verify_witness_doc(doc)


def _flipped(signs: str, i: int) -> str:
    """The sign string with its sign at i flipped."""
    return signs[:i] + {"+": "-", "-": "+"}[signs[i]] + signs[i + 1 :]


def test_sign_assignment_check_builds_no_identity_closure(monkeypatch):
    # the check must not trust the closure the hm search decides with: with
    # that closure forbidden, it still accepts the golden witness and the
    # hard-search witnesses, and rejects each with its first sign flipped
    docs = [certio.loads(_golden("hm_example_invalid.witness.json"))]
    for text in HARD_HM_SETS:
        joins = words(*text.split(" | "))
        verdict = ro.decide_lg_hm(joins, 2)
        docs.append(certio.sign_assignment_doc(joins, 2, verdict.certificate))

    class Forbidden:
        def __init__(self):
            raise AssertionError("the check built the search's closure")

    monkeypatch.setattr(membership, "IdentityClosure", Forbidden)
    for doc in docs:
        assert certio.verify_witness_doc(doc) == [], doc["words"]
        doc["signs"] = _flipped(doc["signs"], 0)
        assert certio.verify_witness_doc(doc) == [
            "signed generators reach the identity"
        ], doc["words"]


def test_forged_sign_assignment_rejected():
    # xx | yy | x'y' is valid, so no sign assignment may verify for it
    forged = {
        "schema_version": certio.SCHEMA_VERSION,
        "kind": "sign_assignment",
        "arity": 2,
        "words": ["x x", "y y", "x' y'"],
        "signs": "",
    }
    assert certio.verify_witness_doc(forged)

    genuine = certio.sign_assignment_doc(
        words(*T_WORDS), 2, ro.decide_lg_hm(words(*T_WORDS), 2).certificate
    )
    assert certio.verify_witness_doc(genuine) == []
    signs = genuine["signs"]
    for forged_signs in (
        signs[:-1],  # a pivot left unsigned
        signs + "-",  # a sign for no pivot
        signs.replace("-", "0", 1),  # a sign outside + and -
    ):
        doc = dict(genuine, signs=forged_signs)
        assert certio.verify_witness_doc(doc)
    # e among the words: its one pivot x is signed, and e alone is a product
    # of the generators that reaches the identity
    doc = dict(forged, words=["e", "x"], signs="+")
    assert certio.verify_witness_doc(doc) == ["signed generators reach the identity"]


WRONG_LENGTH = "there must be one sign for each pivot of cis(words)"


def test_sign_strings_of_the_wrong_length_or_alphabet_are_rejected():
    # S_WORDS is l-group valid, so its all-positive string of the right
    # length is rejected for reaching the identity; T_WORDS and the
    # hard-search rg VALID row are l-group INVALID, and the search's
    # string is accepted.  A string one sign short or one sign long is
    # rejected for its length, whatever its signs, and so is any character
    # other than + and -, wherever it stands
    for texts in (S_WORDS, T_WORDS, ("yxyxx", "xy'x", "x'y'y'x'y")):
        joins = words(*texts)
        pivots = ro.sign_pivots(joins)
        n = len(pivots)
        verdict = ro.decide_lg_hm(joins, 2)
        if verdict.status == "INVALID":
            base = certio.sign_assignment_doc(joins, 2, verdict.certificate)
            assert certio.verify_witness_doc(base) == []
        else:
            positive = SignAssignment(tuple((p, 1) for p in pivots))
            base = certio.sign_assignment_doc(joins, 2, positive)
            assert certio.verify_witness_doc(base) == [
                "signed generators reach the identity"
            ]
        genuine = base["signs"]
        assert len(genuine) == n
        for signs in ("+" * (n - 1), "-" * (n - 1), genuine[:-1], genuine[1:],
                      genuine + "+", genuine + "-", "+" + genuine):
            doc = {**base, "signs": signs}
            assert certio.verify_witness_doc(doc) == [WRONG_LENGTH], (texts, signs)
        for i, bad in itertools.product(range(n), ("0", "1", "x", " ", "\u2212")):
            doc = {**base, "signs": genuine[:i] + bad + genuine[i + 1 :]}
            assert certio.verify_witness_doc(doc) == [
                "every sign must be + or -"
            ], (texts, i, bad)


def test_leaf_factor_indexes_out_of_range_are_rejected():
    # x | x' refutes at its root with the leaf x * x'; an index past the
    # generators names none, and neither does a negative one, though read
    # from the end of the list, as Python would, [0, -1] and [-2, 1] are
    # x * x' too
    joins = words("x", "x'")
    doc = certio.refutation_doc(joins, 1, ro.rg_refute_bounded(joins, 1, 0), "order")
    assert doc["tree"][0]["factors"] == [0, 1]
    assert certio.verify_witness_doc(doc) == []
    for factors in ([0, -1], [0, 2], [-2, 1]):
        forged = certio.loads(certio.dumps(doc))
        forged["tree"][0]["factors"] = factors
        assert certio.verify_witness_doc(forged) == ["factor index out of range"]
    # below a branch, the signed pivot is the generator after the words
    tree = RefutationBranch(w("x"), product_leaf([1, 2]), product_leaf([0, -1]))
    assert verify_refutation_tree(tuple(joins), tree) == "factor index out of range"


def test_forged_pivot_lists_are_rejected_at_the_first_missing_pivot(monkeypatch):
    # one 300-letter word has 45,150 quotients of initial subterms; a file
    # that signs none of their representatives is rejected after the first
    formed = 0
    inverse_pairs = witnesses._inverse_pairs

    def counted(words):
        nonlocal formed
        for pair in inverse_pairs(words):
            formed += 1
            yield pair

    monkeypatch.setattr(witnesses, "_inverse_pairs", counted)
    long_word = " ".join(["x", "y"] * 150)
    base = {"schema_version": certio.SCHEMA_VERSION, "arity": 2, "words": [long_word]}
    doc = {**base, "kind": "sign_assignment", "signs": ""}
    assert certio.verify_witness_doc(doc) == [WRONG_LENGTH]
    assert formed == 1, formed


def test_out_of_range_witness_fields_are_format_errors():
    truncated = {
        "schema_version": certio.SCHEMA_VERSION,
        "kind": "truncated_right_order",
        "words": ["x"],
        "generators": [],
    }
    cases = [
        ({**truncated, "arity": 0, "level": 1}, "arity must be >= 1"),
        ({**truncated, "arity": -1, "level": 2}, "arity must be >= 1"),
        ({**truncated, "arity": 2, "level": 0}, "level must be >= 1"),
        ({**truncated, "arity": 1, "level": 2, "generators": ["x y"]},
         "generator index 2 exceeds arity 1"),
        ({**truncated, "arity": 1, "level": 2, "words": ["y"]},
         "generator index 2 exceeds arity 1"),
    ]
    for kind, sign in (("separator", -1), ("abelian_order_witness", 1)):
        doc = {"schema_version": certio.SCHEMA_VERSION, "kind": kind}
        cases += [
            ({**doc, "arity": 0, "functional": [], "words": []}, "arity must be >= 1"),
            ({**doc, "arity": -1, "functional": [sign], "words": ["x"]},
             "arity must be >= 1"),
            # y is generator 2
            ({**doc, "arity": 1, "functional": [sign], "words": ["x", "x y"]},
             "generator index 2 exceeds arity 1"),
        ]
    # a sign assignment and both refutation flavors parse their words,
    # branch pivots and conjugators against their arity
    hm_words, right_words = words(*T_WORDS), words(*S_WORDS)
    conj = words("x y x'", "y'")
    hm = certio.sign_assignment_doc(
        hm_words, 2, ro.decide_lg_hm(hm_words, 2).certificate
    )
    right = certio.refutation_doc(
        right_words, 2, ro.extend_right_order(right_words, 2), "right_order"
    )
    order = certio.refutation_doc(conj, 2, ro.rg_refute_bounded(conj, 2, 1), "order")
    for genuine in (hm, right, order):
        assert certio.verify_witness_doc(genuine) == []
        cases += [
            ({**genuine, "arity": "banana"}, "'arity' has the wrong type"),
            ({**genuine, "arity": True}, "'arity' has the wrong type"),
            ({**genuine, "arity": 0}, "arity must be >= 1"),
            ({**genuine, "arity": -3}, "arity must be >= 1"),
            ({k: v for k, v in genuine.items() if k != "arity"},
             "missing field 'arity'"),
            # every one of them names y, generator 2
            ({**genuine, "arity": 1}, "generator index 2 exceeds arity 1"),
        ]
    # z is generator 3: a word, a branch pivot and a conjugator
    for genuine, path in (
        (hm, ("words", 0)),
        (right, ("tree", 2, "pivot")),
        (order, ("tree", 0, "factors", 0, "conjugator")),
    ):
        doc = certio.loads(certio.dumps(genuine))
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = "z"
        cases.append((doc, "generator index 3 exceeds arity 2"))
    for doc, message in cases:
        _rejected(doc, message)


_X_TIMES_INVERSE = product_leaf((0, 1))


def test_malformed_documents_rejected():
    with pytest.raises(certio.CertificateFormatError, match="not valid JSON"):
        certio.loads("not json")
    with pytest.raises(certio.CertificateFormatError, match="must hold one object"):
        certio.loads("[1, 2]")
    version = certio.SCHEMA_VERSION
    proof = {"schema_version": version, "kind": "proof"}
    for doc, message in (
        (proof, "missing field 'calculus'"),
        ({**proof, "schema_version": version + 1}, "unsupported schema version"),
        ({**proof, "calculus": "GA", "conjuncts": []}, "proof file has no conjuncts"),
    ):
        _rejected(doc, message, certio.load_proof)
    _rejected({"schema_version": version, "kind": "mystery"}, "unknown witness kind")
    header = {"schema_version": version, "arity": 2, "words": ["x"]}
    for doc, message in (
        # the sign string is the only form of signs schema 2 reads
        ({**header, "kind": "sign_assignment", "signs": [1]}, "'signs' has the wrong"),
        ({**header, "kind": "sign_assignment", "signs": [{"pivot": "x", "sign": 1}]},
         "'signs' has the wrong type"),
        ({**header, "kind": "separator", "functional": ["a"]}, "one integer per"),
        ({**header, "kind": "abelian_order_witness", "functional": ["a", 1]},
         "one integer per"),
    ):
        _rejected(doc, message)
    # refutations: an unknown flavor, a leaf without factors, JSON true
    # where an index belongs, and factor objects with other keys than a
    # base and its conjugator, such as the sign that files once carried
    joins = words("x", "x'")
    right = certio.refutation_doc(joins, 1, _X_TIMES_INVERSE, "right_order")
    order = certio.refutation_doc(joins, 1, _X_TIMES_INVERSE, "order")
    assert certio.verify_witness_doc(right) == certio.verify_witness_doc(order) == []
    factor = ("tree", 0, "factors", 1)
    for genuine, path, value, message in (
        (right, ("flavor",), "banana", "unknown refutation flavor"),
        (right, ("tree", 0, "factors"), [], "at least one factor"),
        (order, ("tree", 0, "factors"), [], "at least one factor"),
        (right, factor, True, "a factor is an index or an object"),
        (order, factor, "1", "a factor is an index or an object"),
        (order, factor, {"base": True, "conjugator": ""}, "'base' has the wrong type"),
        (order, factor, {"base": 1, "conjugator": 1}, "'conjugator' has the wrong"),
        (order, factor, {"base": 1}, "a factor object holds base and conjugator"),
        (order, factor, {"base": 1, "conjugator": "e", "sign": 1},
         "a factor object holds base and conjugator"),
    ):
        doc = certio.loads(certio.dumps(genuine))
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
        _rejected(doc, message)
    # bounds reports: a forged file, then one bad field per check
    _rejected(
        {"schema_version": version, "kind": "bounds_exhausted",
         "conjugator_bound": "banana"},
        "missing field 'arity'",
    )
    commutator = words("x'y'xy")
    report = ro.extend_order(commutator, 2, 1)
    bounds = certio.bounds_doc(commutator, 2, report)
    assert certio.verify_witness_doc(bounds) == []
    assert bounds == {"schema_version": version, "kind": "bounds_exhausted",
                      "arity": 2, "conjugator_bound": 1, "words": ["x' y' x y"]}
    for key, value, message in (
        ("arity", "2", "'arity' has the wrong type"),
        ("arity", 0, "arity must be >= 1"),
        ("conjugator_bound", "banana", "'conjugator_bound' has the wrong type"),
        ("conjugator_bound", -1, "conjugator bound must be >= 0"),
        ("words", 7, "'words' has the wrong type"),
        ("words", ["x'y'xz"], "generator index 3 exceeds arity 2"),
        ("words", ["x", 1], "literal sequences must be strings"),
        ("words", [], "a witness needs at least one word"),
    ):
        _rejected({**bounds, key: value}, message)


def _table_mutants(table: list, slots, bool_message: str) -> list:
    """(table, message) pairs, each breaking one rule of a post-order table:
    an empty table, a forward index, a self index, JSON true and -1 as an
    index, a node used twice and a node used by none.  slots(entry) lists
    the (container, key) pairs that hold the entry's child indices."""
    first = next(i for i, entry in enumerate(table) if slots(entry))
    used = [container[key] for entry in table for container, key in slots(entry)]

    def relinked(slot: int, value) -> list:
        copy = json.loads(json.dumps(table))
        container, key = [s for entry in copy for s in slots(entry)][slot]
        container[key] = value
        return copy

    shifted = json.loads(json.dumps(table))
    for entry in shifted:
        for container, key in slots(entry):
            container[key] += 1
    return [
        ([], "a tree table needs at least one node"),
        (relinked(0, first + 1), f"index {first + 1} names no unused earlier node"),
        (relinked(0, first), f"index {first} names no unused earlier node"),
        (relinked(0, True), bool_message),
        (relinked(0, -1), "index -1 names no unused earlier node"),
        (relinked(1, used[0]), f"index {used[0]} names no unused earlier node"),
        # a leaf that nothing names, in front of the genuine table
        ([shifted[0]] + shifted, "node 0 is used by no node"),
    ]


def test_proof_tables_must_be_trees():
    joins = words(*S_WORDS)
    goal = ca.hypersequent_of_words(joins)
    derivation = ro.decide_lg_cs(joins, 2).certificate
    genuine = certio.proof_doc(CalculusId.GLGSTAR, [(goal, derivation)])
    assert certio.load_proof(genuine)[1] == [(goal, derivation)]

    def premises(entry):
        return [(entry["premises"], i) for i in range(len(entry["premises"]))]

    nodes = genuine["conjuncts"][0]["nodes"]
    mutants = _table_mutants(nodes, premises, "node indices must be integers")
    for table, message in mutants:
        doc = json.loads(json.dumps(genuine))
        doc["conjuncts"][0]["nodes"] = table
        _rejected(doc, message, certio.load_proof)


def test_refutation_tables_must_be_trees():
    joins = words(*S_WORDS)
    genuine = certio.refutation_doc(
        joins, 2, ro.extend_right_order(joins, 2), "right_order"
    )
    assert certio.verify_witness_doc(genuine) == []

    def branches(entry):
        return [(entry, "positive"), (entry, "negative")] * (entry["kind"] == "branch")

    mutants = _table_mutants(genuine["tree"], branches, "'positive' has the wrong type")
    for table, message in mutants:
        _rejected({**genuine, "tree": table}, message)


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
    for flavor in ("right_order", "order"):
        tree = _deep_chain(1100, _X_TIMES_INVERSE)
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
    for order the factor conjugated by x, or by y where it commutes with x.
    Every mutant is changed in place."""
    table = doc["tree"]
    words = tuple(map(w, doc["words"]))
    stack = [(len(table) - 1, ())]
    while stack:
        index, path = stack.pop()
        node = table[index]
        if node["kind"] == "branch":
            pivot = w(node["pivot"])
            stack += [
                (node["positive"], path + (pivot,)),
                (node["negative"], path + (freegroup.inv(pivot),)),
            ]
            continue
        generators = words + path
        factors = node["factors"]
        for k, factor in enumerate(factors):
            if doc["flavor"] == "order":
                if type(factor) is int:
                    factor = {"base": factor, "conjugator": "e"}
                conjugator = w(factor["conjugator"])
                value = freegroup.conjugate(conjugator, generators[factor["base"]])
                x = w("x")
                q = x if freegroup.mul(x, value) != freegroup.mul(value, x) else w("y")
                text = freegroup.word_to_text(freegroup.mul(q, conjugator))
                broken = {"base": factor["base"], "conjugator": text}
            else:
                broken = len(generators)
            for mutant in ([], [broken]):
                node["factors"] = factors[:k] + mutant + factors[k + 1 :]
                yield doc
        node["factors"] = factors


def test_mutated_refutations_rejected():
    # Dropping a factor of an identity product leaves a conjugate of its
    # inverse, and conjugating a factor v of a product a v b = e by a q
    # that does not commute with v leaves a q v q' b = a (q v q' v') a',
    # a conjugate of a nontrivial commutator, so no mutant multiplies to
    # the identity.
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
    # two mutants per factor: the leaves take their fewest factors, 1,468
    # in all, where the first factorization found took 1,476
    assert mutants == 2936
