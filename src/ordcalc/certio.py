"""Certificate file schemas: canonical JSON for proofs and witnesses.

Serialization is deterministic (sorted keys, fixed indent, trailing
newline) so golden certificate files can be compared byte for byte.
"""

from __future__ import annotations

import json
import re
from typing import Any, Sequence

from . import freegroup, membership, rightorder
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
    Factorization,
    RefutationBranch,
    RefutationLeaf,
    RefutationTree,
    SignAssignment,
    TruncatedRightOrder,
    verify_refutation_tree,
)

SCHEMA_VERSION = 1


class CertificateFormatError(ValueError):
    pass


def dumps(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) and a newline,
    written from an explicit stack so that no proof is too deep to write."""
    out: list[str] = []
    todo: list = [(doc, "")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, pad = item
        if not isinstance(value, (dict, list, tuple)) or not value:
            out.append(json.dumps(value))
            continue
        is_dict = isinstance(value, dict)
        entries = sorted(value.items()) if is_dict else [(None, v) for v in value]
        inner = pad + "  "
        out.append("{" if is_dict else "[")
        todo.append("\n" + pad + ("}" if is_dict else "]"))
        for i in range(len(entries) - 1, -1, -1):
            key, child = entries[i]
            todo.append((child, inner))
            label = "" if key is None else json.dumps(key) + ": "
            todo.append(("," if i else "") + "\n" + inner + label)
    return "".join(out) + "\n"


_SPACE = re.compile(r"[ \t\n\r]*")


def _loads_nested(text: str) -> Any:
    """json.loads with an explicit stack of open containers, for documents
    nested deeper than the recursive scanner allows."""
    scan = json.JSONDecoder().scan_once
    stack: list[list] = []  # [container, pending key]

    def expect(token: str, pos: int) -> int:
        pos = _SPACE.match(text, pos).end()
        if not text.startswith(token, pos):
            raise ValueError(f"expected {token!r} at position {pos}")
        return _SPACE.match(text, pos + len(token)).end()

    def key(pos: int) -> int:
        if not text.startswith('"', pos):
            raise ValueError(f"expected a key at position {pos}")
        stack[-1][1], pos = scan(text, pos)
        return expect(":", pos)

    pos = _SPACE.match(text).end()
    while True:
        if text[pos : pos + 1] in ("{", "["):
            is_dict = text[pos] == "{"
            pos = _SPACE.match(text, pos + 1).end()
            if not text.startswith("}" if is_dict else "]", pos):
                stack.append([{} if is_dict else [], None])
                pos = key(pos) if is_dict else pos
                continue
            value, pos = ({} if is_dict else []), pos + 1
        else:
            try:
                value, pos = scan(text, pos)
            except StopIteration:
                raise ValueError(f"expected a value at position {pos}") from None
        while True:
            pos = _SPACE.match(text, pos).end()
            if not stack:
                if pos != len(text):
                    raise ValueError(f"extra data at position {pos}")
                return value
            container, pending = stack[-1]
            if isinstance(container, dict):
                container[pending] = value
            else:
                container.append(value)
            if text.startswith(",", pos):
                pos = _SPACE.match(text, pos + 1).end()
                pos = key(pos) if isinstance(container, dict) else pos
                break
            pos = expect("}" if isinstance(container, dict) else "]", pos)
            value = stack.pop()[0]


def loads(text: str) -> dict:
    try:
        try:
            doc = json.loads(text)
        except RecursionError:
            doc = _loads_nested(text)
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


def _raw_text(raw: Sequence[int]) -> str:
    return freegroup.word_to_text(tuple(raw))


def _parse_raw(text: str) -> tuple[int, ...]:
    if not isinstance(text, str):
        raise CertificateFormatError("literal sequences must be strings")
    try:
        return freegroup.scan_literals(text)
    except freegroup.WordSyntaxError as exc:
        raise CertificateFormatError(str(exc)) from None


def _parse_word(text: str) -> ReducedWord:
    return freegroup.reduce(_parse_raw(text))


def _word_list(words) -> list[str]:
    return [freegroup.word_to_text(w) for w in words]


def _parse_hypersequent(texts: list) -> Hypersequent:
    try:
        return Hypersequent.of(Sequent(_parse_raw(s)) for s in texts)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# derivations


def derivation_to_node(derivation: Derivation) -> dict:
    def node(current: Derivation) -> Pass:
        premises = []
        for premise in current.premises:
            premises.append((yield node(premise)))
        return {
            "rule": current.instance.rule,
            "certificates": {
                name: _raw_text(raw) for name, raw in current.instance.certificates
            },
            "conclusion": [_raw_text(s.raw) for s in current.conclusion.sequents],
            "premises": premises,
        }

    return freegroup.unwind(node(derivation))


def node_to_derivation(node: dict) -> Derivation:
    def derivation(current) -> Pass:
        if not isinstance(current, dict):
            raise CertificateFormatError("derivation nodes must be objects")
        rule = _require(current, "rule", str)
        certs = _require(current, "certificates", dict)
        conclusion = _require(current, "conclusion", list)
        premises = _require(current, "premises", list)
        instance = RuleInstance(
            rule, tuple(sorted((k, _parse_raw(v)) for k, v in certs.items()))
        )
        hyper = _parse_hypersequent(conclusion)
        built = []
        for premise in premises:
            built.append((yield derivation(premise)))
        return Derivation(hyper, instance, tuple(built))

    return freegroup.unwind(derivation(node))


def proof_doc(
    calculus: CalculusId,
    conjuncts: Sequence[tuple[Hypersequent, Derivation]],
) -> dict:
    return _doc(
        "proof",
        calculus=calculus.value,
        conjuncts=[
            {
                "goal": [_raw_text(s.raw) for s in goal.sequents],
                "derivation": derivation_to_node(derivation),
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
        conjuncts.append((goal, node_to_derivation(_require(entry, "derivation", dict))))
    if not conjuncts:
        raise CertificateFormatError("proof file has no conjuncts")
    return calculus, conjuncts


# ---------------------------------------------------------------------------
# witnesses


def truncated_order_doc(witness: TruncatedRightOrder) -> dict:
    return _doc(
        "truncated_right_order",
        arity=witness.arity,
        level=witness.level,
        elements=sorted(_word_list(witness.elements)),
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


def bounds_doc(report: BoundsReport) -> dict:
    return _doc(
        "bounds_exhausted",
        conjugator_bound=report.conjugator_bound,
        pivots=_word_list(report.pivots),
    )


def _tree_to_node(tree: RefutationTree, conjugate: bool) -> Pass:
    if isinstance(tree, RefutationBranch):
        return {
            "kind": "branch",
            "pivot": freegroup.word_to_text(tree.pivot),
            "positive": (yield _tree_to_node(tree.positive, conjugate)),
            "negative": (yield _tree_to_node(tree.negative, conjugate)),
        }
    if conjugate:
        assert isinstance(tree.witness, ConjugateProduct)
        factors = [
            {
                "conjugator": freegroup.word_to_text(e.conjugator),
                "base": e.base,
                "sign": e.sign,
            }
            for e in tree.witness.entries
        ]
    else:
        assert isinstance(tree.witness, Factorization)
        factors = list(tree.witness.factors)
    return {"kind": "leaf", "factors": factors}


def _node_to_tree(node: dict, conjugate: bool) -> Pass:
    if not isinstance(node, dict):
        raise CertificateFormatError("tree nodes must be objects")
    kind = _require(node, "kind", str)
    if kind == "branch":
        return RefutationBranch(
            _parse_word(_require(node, "pivot", str)),
            (yield _node_to_tree(_require(node, "positive", dict), conjugate)),
            (yield _node_to_tree(_require(node, "negative", dict), conjugate)),
        )
    if kind != "leaf":
        raise CertificateFormatError(f"unknown tree node kind {kind!r}")
    factors = _require(node, "factors", list)
    if not factors:
        raise CertificateFormatError("a leaf needs at least one factor")
    if conjugate:
        entries = []
        for item in factors:
            if not isinstance(item, dict):
                raise CertificateFormatError("conjugate factors must be objects")
            entries.append(
                ConjugateEntry(
                    _parse_word(_require(item, "conjugator", str)),
                    _require(item, "base", int),
                    _require(item, "sign", int),
                )
            )
        return RefutationLeaf(ConjugateProduct(tuple(entries)))
    if not all(type(i) is int for i in factors):
        raise CertificateFormatError("factor indices must be integers")
    return RefutationLeaf(Factorization(tuple(factors)))


def refutation_doc(words, arity: int, tree: RefutationTree, flavor: str) -> dict:
    if flavor not in ("right_order", "order"):
        raise ValueError("flavor must be right_order or order")
    return _doc(
        "refutation",
        flavor=flavor,
        arity=arity,
        words=_word_list(words),
        tree=freegroup.unwind(_tree_to_node(tree, flavor == "order")),
    )


# ---------------------------------------------------------------------------
# verification of loaded witness files


_FUNCTIONAL_SIDE = {"separator": -1, "abelian_order_witness": 1}


def verify_witness_doc(doc: dict) -> list[str]:
    """Re-assert the invariants a witness file claims; empty list means good."""
    kind = _require(doc, "kind", str)
    if kind == "truncated_right_order":
        _check_schema(doc, kind)
        arity = _require(doc, "arity", int)
        level = _require(doc, "level", int)
        if arity < 1 or level < 1:
            raise CertificateFormatError("arity and level must be >= 1")
        witness = TruncatedRightOrder(
            arity,
            level,
            frozenset(_parse_word(w) for w in _require(doc, "elements", list)),
        )
        return witness.violations()
    if kind in _FUNCTIONAL_SIDE:
        # a separator is negative on every word, an order witness positive
        _check_schema(doc, kind)
        arity = _require(doc, "arity", int)
        if arity < 1:
            raise CertificateFormatError("arity must be >= 1")
        y = _require(doc, "functional", list)
        if len(y) != arity or not all(type(c) is int for c in y):
            raise CertificateFormatError("functional needs one integer per generator")
        side = _FUNCTIONAL_SIDE[kind]
        issues = []
        for text in _require(doc, "words", list):
            word = _parse_word(text)
            try:
                vector = freegroup.abelianize(word, arity)
            except ValueError as exc:
                raise CertificateFormatError(str(exc)) from None
            if side * sum(a * b for a, b in zip(y, vector)) <= 0:
                name = "positive" if side > 0 else "negative"
                issues.append(f"functional is not {name} on {text!r}")
        return issues
    if kind == "sign_assignment":
        _check_schema(doc, kind)
        words = tuple(_parse_word(w) for w in _require(doc, "words", list))
        path = []
        for item in _require(doc, "signs", list):
            if not isinstance(item, dict):
                raise CertificateFormatError("sign entries must be objects")
            pivot = _parse_word(_require(item, "pivot", str))
            path.append((pivot, _require(item, "sign", int)))
        # the witness must sign every pivot the search branches on
        if tuple(p for p, _ in path) != rightorder.sign_pivots(words):
            return ["pivots are not the representatives of cis(words)"]
        if any(s not in (1, -1) for _, s in path):
            return ["every sign must be 1 or -1"]
        signed = tuple(freegroup.signed(p, s) for p, s in path)
        found, _ = membership.contains_identity(words + signed)
        return ["signed generators reach the identity"] if found else []
    if kind == "refutation":
        _check_schema(doc, kind)
        flavor = _require(doc, "flavor", str)
        if flavor not in ("right_order", "order"):
            raise CertificateFormatError(f"unknown refutation flavor {flavor!r}")
        conjugate = flavor == "order"
        words = tuple(_parse_word(w) for w in _require(doc, "words", list))
        tree = freegroup.unwind(_node_to_tree(_require(doc, "tree", dict), conjugate))
        error = verify_refutation_tree(words, tree, conjugate=conjugate)
        return [error] if error else []
    if kind == "bounds_exhausted":
        _check_schema(doc, kind)
        return []
    raise CertificateFormatError(f"unknown witness kind {kind!r}")
