"""Certificate file schemas: canonical JSON for proofs and witnesses.

Serialization is deterministic (sorted keys, fixed indent, trailing
newline) so golden certificate files can be compared byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

from . import freegroup
from .calculus import (
    CalculusId,
    Derivation,
    Hypersequent,
    RuleInstance,
    Sequent,
)
from .freegroup import Pass, ReducedWord
from .witnesses import (
    BoundsReport,
    ConjugateEntry,
    ConjugateProduct,
    RefutationBranch,
    RefutationLeaf,
    RefutationTree,
    SignAssignment,
    TruncatedRightOrder,
    lists_sign_pivots,
    verify_refutation_tree,
    verify_sign_assignment,
)

SCHEMA_VERSION = 2


class CertificateFormatError(ValueError):
    pass


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise CertificateFormatError("not valid JSON: nested too deeply") from None
    except ValueError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate file must hold one object")
    return doc


def _require(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise CertificateFormatError(f"missing field {key!r}")
    value = doc[key]
    # JSON true and false are no integers, though Python's bool is an int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CertificateFormatError(f"field {key!r} has the wrong type")
    return value


def _doc(kind: str, **fields: Any) -> dict:
    """A document of the given kind: the schema header, then the fields."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _check_schema(doc: dict, kind: str) -> None:
    if _require(doc, "schema_version", int) != SCHEMA_VERSION:
        raise CertificateFormatError("unsupported schema version")
    if _require(doc, "kind", str) != kind:
        raise CertificateFormatError(f"expected kind {kind!r}, got {doc['kind']!r}")


def _parse_raw(text: str, arity: int | None = None) -> tuple[int, ...]:
    if not isinstance(text, str):
        raise CertificateFormatError("literal sequences must be strings")
    try:
        return freegroup.scan_literals(text, arity)
    except freegroup.WordSyntaxError as exc:
        raise CertificateFormatError(str(exc)) from None


def _parse_word(text: str, arity: int | None = None) -> ReducedWord:
    return freegroup.reduce(_parse_raw(text, arity))


def _arity(doc: dict) -> int:
    arity = _require(doc, "arity", int)
    if arity < 1:
        raise CertificateFormatError("arity must be >= 1")
    return arity


def _word_texts(doc: dict) -> list:
    """The words a witness is written for; no query has zero joinands."""
    texts = _require(doc, "words", list)
    if not texts:
        raise CertificateFormatError("a witness needs at least one word")
    return texts


def _word_list(words) -> list[str]:
    return [freegroup.word_to_text(w) for w in words]


def _parse_hypersequent(texts: list) -> Hypersequent:
    try:
        return Hypersequent.of(Sequent(_parse_raw(s)) for s in texts)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# trees as post-order tables, children before their parent and the root last,
# so that a deeper tree makes a longer file but not a more deeply nested one


def _to_table(root, children: Callable, entry: Callable) -> list[dict]:
    """The table of the tree under root.  entry(node, indices) writes one
    node, given the table indices of its children."""
    table: list[dict] = []
    freegroup.unwind(_visit(root, children, entry, table))
    return table


def _visit(node, children: Callable, entry: Callable, table: list[dict]) -> Pass:
    """Append the subtree under node to the table; returns its index."""
    indices = []
    for child in children(node):
        indices.append((yield _visit(child, children, entry, table)))
    table.append(entry(node, indices))
    return len(table) - 1


def _from_table(table: Any, build: Callable) -> Any:
    """The root of the tree a table holds.  build(entry, take) makes one
    node, and take(index) hands it a child: an earlier node that no other
    index names.  Every node but the root must be some node's child."""
    if not isinstance(table, list) or not table:
        raise CertificateFormatError("a tree table needs at least one node")
    unused: dict[int, Any] = {}  # the nodes built so far that no index names

    def take(index: Any) -> Any:
        if type(index) is not int:
            raise CertificateFormatError("node indices must be integers")
        if index not in unused:
            raise CertificateFormatError(f"index {index} names no unused earlier node")
        return unused.pop(index)

    for position, entry in enumerate(table):
        if not isinstance(entry, dict):
            raise CertificateFormatError("tree nodes must be objects")
        unused[position] = build(entry, take)
    root = unused.pop(len(table) - 1)
    if unused:
        raise CertificateFormatError(f"node {min(unused)} is used by no node")
    return root


# ---------------------------------------------------------------------------
# derivations


def derivation_to_node(derivation: Derivation) -> list[dict]:
    def entry(current: Derivation, premises: list[int]) -> dict:
        certificates = current.instance.certificates
        return {
            "rule": current.instance.rule,
            "certificates": {k: freegroup.word_to_text(v) for k, v in certificates},
            "conclusion": _word_list(s.raw for s in current.conclusion.sequents),
            "premises": premises,
        }

    return _to_table(derivation, lambda current: current.premises, entry)


def node_to_derivation(nodes: Any) -> Derivation:
    def build(node: dict, take: Callable) -> Derivation:
        rule = _require(node, "rule", str)
        certs = _require(node, "certificates", dict)
        instance = RuleInstance(
            rule, tuple(sorted((k, _parse_raw(v)) for k, v in certs.items()))
        )
        hyper = _parse_hypersequent(_require(node, "conclusion", list))
        premises = tuple(map(take, _require(node, "premises", list)))
        return Derivation(hyper, instance, premises)

    return _from_table(nodes, build)


def proof_doc(
    calculus: CalculusId,
    conjuncts: Sequence[tuple[Hypersequent, Derivation]],
) -> dict:
    return _doc(
        "proof",
        calculus=calculus.value,
        conjuncts=[
            {
                "goal": _word_list(s.raw for s in goal.sequents),
                "nodes": derivation_to_node(derivation),
            }
            for goal, derivation in conjuncts
        ],
    )


def load_proof(doc: dict) -> tuple[CalculusId, list[tuple[Hypersequent, Derivation]]]:
    _check_schema(doc, "proof")
    name = _require(doc, "calculus", str)
    try:
        calculus = CalculusId(name)
    except ValueError:
        raise CertificateFormatError(f"unknown calculus {name!r}") from None
    conjuncts = []
    for entry in _require(doc, "conjuncts", list):
        if not isinstance(entry, dict):
            raise CertificateFormatError("conjunct entries must be objects")
        goal = _parse_hypersequent(_require(entry, "goal", list))
        conjuncts.append((goal, node_to_derivation(_require(entry, "nodes", list))))
    if not conjuncts:
        raise CertificateFormatError("proof file has no conjuncts")
    return calculus, conjuncts


# ---------------------------------------------------------------------------
# witnesses


def truncated_order_doc(witness: TruncatedRightOrder, words) -> dict:
    return _doc(
        "truncated_right_order",
        arity=witness.arity,
        level=witness.level,
        elements=sorted(_word_list(witness.elements)),
        words=_word_list(words),
    )


def separator_doc(words, arity: int, functional: Sequence[int]) -> dict:
    return _doc(
        "separator", arity=arity, functional=list(functional), words=_word_list(words)
    )


def abelian_order_doc(words, arity: int, functional: Sequence[int]) -> dict:
    return _doc(
        "abelian_order_witness",
        arity=arity,
        functional=list(functional),
        words=_word_list(words),
    )


def sign_assignment_doc(words, arity: int, assignment: SignAssignment) -> dict:
    signs = [
        {"pivot": freegroup.word_to_text(p), "sign": s} for p, s in assignment.signs
    ]
    return _doc("sign_assignment", arity=arity, words=_word_list(words), signs=signs)


def bounds_doc(words, arity: int, report: BoundsReport) -> dict:
    return _doc(
        "bounds_exhausted",
        arity=arity,
        conjugator_bound=report.conjugator_bound,
        pivots=_word_list(report.pivots),
        words=_word_list(words),
    )


def _tree_to_node(tree: RefutationTree) -> list[dict]:
    def entry(node: RefutationTree, indices: list[int]) -> dict:
        if isinstance(node, RefutationBranch):
            positive, negative = indices
            return {
                "kind": "branch",
                "pivot": freegroup.word_to_text(node.pivot),
                "positive": positive,
                "negative": negative,
            }
        # a factor conjugated by e is its base index alone
        factors = [
            e.base
            if e.conjugator.is_identity
            else {"base": e.base, "conjugator": freegroup.word_to_text(e.conjugator)}
            for e in node.witness.entries
        ]
        return {"kind": "leaf", "factors": factors}

    def children(node: RefutationTree) -> tuple:
        branch = isinstance(node, RefutationBranch)
        return (node.positive, node.negative) if branch else ()

    return _to_table(tree, children, entry)


def _factor(item: Any, arity: int) -> ConjugateEntry:
    """One leaf factor: a base index, or an object of a base and its conjugator."""
    if isinstance(item, dict):
        if set(item) != {"base", "conjugator"}:
            raise CertificateFormatError("a factor object holds base and conjugator")
        conjugator = _parse_word(_require(item, "conjugator", str), arity)
        return ConjugateEntry(conjugator, _require(item, "base", int))
    if type(item) is not int:
        raise CertificateFormatError("a factor is an index or an object")
    return ConjugateEntry(freegroup.IDENTITY, item)


def _node_to_tree(table: Any, arity: int) -> RefutationTree:
    def build(node: dict, take: Callable) -> RefutationTree:
        kind = _require(node, "kind", str)
        if kind == "branch":
            return RefutationBranch(
                _parse_word(_require(node, "pivot", str), arity),
                take(_require(node, "positive", int)),
                take(_require(node, "negative", int)),
            )
        if kind != "leaf":
            raise CertificateFormatError(f"unknown tree node kind {kind!r}")
        factors = _require(node, "factors", list)
        if not factors:
            raise CertificateFormatError("a leaf needs at least one factor")
        entries = tuple(_factor(item, arity) for item in factors)
        return RefutationLeaf(ConjugateProduct(entries))

    return _from_table(table, build)


def refutation_doc(words, arity: int, tree: RefutationTree, flavor: str) -> dict:
    if flavor not in ("right_order", "order"):
        raise ValueError("flavor must be right_order or order")
    return _doc(
        "refutation",
        flavor=flavor,
        arity=arity,
        words=_word_list(words),
        tree=_tree_to_node(tree),
    )


# ---------------------------------------------------------------------------
# verification of loaded witness files


_FUNCTIONAL_SIDE = {"separator": -1, "abelian_order_witness": 1}


def verify_witness_doc(doc: dict) -> list[str]:
    """Re-assert the invariants a witness file claims; empty list means good."""
    kind = _require(doc, "kind", str)
    _check_schema(doc, kind)
    if kind == "truncated_right_order":
        arity = _require(doc, "arity", int)
        level = _require(doc, "level", int)
        if arity < 1 or level < 1:
            raise CertificateFormatError("arity and level must be >= 1")
        elements = frozenset(
            _parse_word(w, arity) for w in _require(doc, "elements", list)
        )
        # the cone must hold the words it claims to order positive
        issues = [
            f"word {text!r} is not an element"
            for text in _word_texts(doc)
            if _parse_word(text, arity) not in elements
        ]
        return issues + TruncatedRightOrder(arity, level, elements).violations()
    if kind in _FUNCTIONAL_SIDE:
        # a separator is negative on every word, an order witness positive
        arity = _arity(doc)
        y = _require(doc, "functional", list)
        if len(y) != arity or not all(type(c) is int for c in y):
            raise CertificateFormatError("functional needs one integer per generator")
        side = _FUNCTIONAL_SIDE[kind]
        issues = []
        for text in _word_texts(doc):
            vector = freegroup.abelianize(_parse_word(text, arity), arity)
            if side * sum(a * b for a, b in zip(y, vector)) <= 0:
                name = "positive" if side > 0 else "negative"
                issues.append(f"functional is not {name} on {text!r}")
        return issues
    if kind == "sign_assignment":
        arity = _arity(doc)
        words = tuple(_parse_word(w, arity) for w in _word_texts(doc))
        signs = []
        for item in _require(doc, "signs", list):
            if not isinstance(item, dict):
                raise CertificateFormatError("sign entries must be objects")
            pivot = _parse_word(_require(item, "pivot", str), arity)
            signs.append((pivot, _require(item, "sign", int)))
        error = verify_sign_assignment(words, signs)
        return [error] if error else []
    if kind == "refutation":
        flavor = _require(doc, "flavor", str)
        if flavor not in ("right_order", "order"):
            raise CertificateFormatError(f"unknown refutation flavor {flavor!r}")
        arity = _arity(doc)
        words = tuple(_parse_word(w, arity) for w in _word_texts(doc))
        tree = _node_to_tree(_require(doc, "tree", list), arity)
        error = verify_refutation_tree(words, tree, conjugate=flavor == "order")
        return [error] if error else []
    if kind == "bounds_exhausted":
        # the search is not re-run; the file must state the search that
        # ran: its bound, the words and exactly the pivots of cis(words)
        arity = _arity(doc)
        if _require(doc, "conjugator_bound", int) < 0:
            raise CertificateFormatError("conjugator bound must be >= 0")
        words = [_parse_word(w, arity) for w in _word_texts(doc)]
        pivots = tuple(_parse_word(p, arity) for p in _require(doc, "pivots", list))
        if not lists_sign_pivots(pivots, words):
            return ["pivots are not the representatives of cis(words)"]
        return []
    raise CertificateFormatError(f"unknown witness kind {kind!r}")
