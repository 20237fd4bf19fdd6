"""Hypersequent proof objects, a per-rule instance checker, and extractors.

Sequents are identified modulo free reduction: a hypersequent is a set of
sequents keyed by canonical word, while every sequent keeps the raw
(possibly unreduced) literal sequence it was written with.  Rule
instances carry raw certificate sequences; the checker recomposes the
schema from the certificates and matches the active sequents against the
stored raws exactly, so any corrupted literal breaks some equation.
Context sequents are matched as canonical sets.

In the abelian calculus GA a sequent is a multiset of literals, as in the
paper, so GA has no exchange rule: its axiom ``id`` accepts a literal
sequence in which every literal pairs off with its inverse, i.e. each
generator occurs as often as its inverse.  That is sound, since a product
of literals that pair off is ``e`` in an abelian group.  It proves the same
theorems as an axiom ``delta delta'`` closed under exchange: exchanging
literals keeps the multiset, so every such exchange chain ends at a
sequence the new ``id`` accepts, and every sequence that pairs off is an
exchange of the sequence ``delta delta'`` of its positive literals.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import freegroup
from .freegroup import Pass, ReducedWord
from .witnesses import (
    ConjugateProduct,
    RefutationBranch,
    RefutationTree,
    verify_refutation_tree,
)

Raw = tuple[int, ...]


@dataclass(frozen=True)
class Sequent:
    """A literal sequence together with its canonical reduced word."""

    raw: Raw
    word: ReducedWord = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "raw", tuple(self.raw))
        object.__setattr__(self, "word", freegroup.reduce(self.raw))

    def __repr__(self) -> str:
        return f"Sequent({freegroup.word_to_text(self.raw)!r})"


def canonical_sequent(word: ReducedWord) -> Sequent:
    return Sequent(word.letters)


@dataclass(frozen=True)
class Hypersequent:
    """A finite set of sequents; canonical words are pairwise distinct."""

    sequents: tuple[Sequent, ...]
    words: frozenset[ReducedWord] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        seen = {s.word for s in self.sequents}
        if len(seen) != len(self.sequents):
            raise ValueError("hypersequent has duplicate canonical components")
        object.__setattr__(self, "words", frozenset(seen))

    @staticmethod
    def of(sequents: Iterable[Sequent]) -> "Hypersequent":
        """Build with set semantics; the first raw per canonical word wins."""
        chosen: dict[ReducedWord, Sequent] = {}
        for s in sequents:
            chosen.setdefault(s.word, s)
        return Hypersequent(tuple(chosen.values()))

    def has_raw(self, raw: Raw) -> Sequent | None:
        """The sequent written with exactly this raw, if there is one."""
        raw = tuple(raw)
        return next((s for s in self.sequents if s.raw == raw), None)

    def __len__(self) -> int:
        return len(self.sequents)


def hypersequent_of_words(words: Iterable[ReducedWord]) -> Hypersequent:
    return Hypersequent.of(canonical_sequent(w) for w in words)


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    certificates: tuple[tuple[str, Raw], ...]

    def cert(self, name: str) -> Raw:
        for key, value in self.certificates:
            if key == name:
                return value
        raise KeyError(name)

    def cert_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.certificates)


def rule_instance(rule: str, **certs: Iterable[int]) -> RuleInstance:
    return RuleInstance(
        rule, tuple(sorted((k, tuple(v)) for k, v in certs.items()))
    )


@dataclass(frozen=True)
class Derivation:
    conclusion: Hypersequent
    instance: RuleInstance
    premises: tuple["Derivation", ...] = ()


class CalculusId(Enum):
    GA = "GA"
    GLGSTAR = "GLGstar"
    GRGSTAR = "GRGstar"


# rule -> (certificate fields, premise count)
RULE_SHAPES: dict[str, tuple[tuple[str, ...], int]] = {
    "id": (("gamma",), 0),
    "split": (("gamma", "delta"), 1),
    "gv": (("gamma",), 0),
    "star": (("delta",), 2),
    "cycle": (("gamma", "delta"), 1),
}

CALCULUS_RULES: dict[CalculusId, frozenset[str]] = {
    CalculusId.GA: frozenset({"id", "split"}),
    CalculusId.GLGSTAR: frozenset({"gv", "split", "star"}),
    CalculusId.GRGSTAR: frozenset({"gv", "split", "star", "cycle"}),
}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    message: str = "accepted"

    def __bool__(self) -> bool:
        return self.ok


class DerivationError(Exception):
    """An extractor was fed evidence that does not verify."""


def _red(raw: Raw) -> ReducedWord:
    return freegroup.reduce(raw)


def _check_node(rules: frozenset[str], node: Derivation) -> str | None:
    inst = node.instance
    shape = RULE_SHAPES.get(inst.rule)
    if shape is None:
        return f"unknown rule {inst.rule!r}"
    if inst.rule not in rules:
        return f"rule {inst.rule!r} is not part of this calculus"
    fields, n_premises = shape
    if inst.cert_names() != frozenset(fields):
        return f"rule {inst.rule!r} expects certificates {sorted(fields)}"
    if len(node.premises) != n_premises:
        return (
            f"rule {inst.rule!r} expects {n_premises} premises, "
            f"got {len(node.premises)}"
        )

    cert = {name: inst.cert(name) for name in fields}
    concl_exact: list[Raw] = []
    prem_exact: list[list[Raw]] = [[] for _ in range(n_premises)]
    prem_canonical: list[list[ReducedWord]] = [[] for _ in range(n_premises)]

    if inst.rule == "id":
        if Counter(cert["gamma"]) != Counter(-c for c in cert["gamma"]):
            return (
                "side condition failed: certificate literals do not pair off "
                "with their inverses"
            )
        concl_exact = [cert["gamma"]]
    elif inst.rule == "split":
        concl_exact = [cert["gamma"], cert["delta"]]
        prem_exact[0] = [cert["gamma"] + cert["delta"]]
    elif inst.rule == "gv":
        if not _red(cert["gamma"]).is_identity:
            return "side condition failed: certificate sequent is not group valid"
        concl_exact = [cert["gamma"]]
    elif inst.rule == "star":
        pivot = _red(cert["delta"])
        if pivot.is_identity:
            return "side condition failed: discharged sequent is group valid"
        prem_canonical[0] = [pivot]
        prem_canonical[1] = [freegroup.inv(pivot)]
    else:  # cycle
        concl_exact = [cert["gamma"] + cert["delta"]]
        prem_exact[0] = [cert["delta"] + cert["gamma"]]

    # each matched sequent's stored word is the reduction of its raw
    active_c: set[ReducedWord] = set()
    for raw in concl_exact:
        matched = node.conclusion.has_raw(raw)
        if matched is None:
            return (
                "conclusion lacks active sequent "
                f"{freegroup.word_to_text(raw)!r}"
            )
        active_c.add(matched.word)
    active_p: list[set[ReducedWord]] = [set() for _ in range(n_premises)]
    for i, raws in enumerate(prem_exact):
        for raw in raws:
            matched = node.premises[i].conclusion.has_raw(raw)
            if matched is None:
                return (
                    f"premise {i} lacks active sequent "
                    f"{freegroup.word_to_text(raw)!r}"
                )
            active_p[i].add(matched.word)
    for i, words in enumerate(prem_canonical):
        for word in words:
            if word not in node.premises[i].conclusion.words:
                return (
                    f"premise {i} lacks component "
                    f"{freegroup.word_to_text(word)!r}"
                )
            active_p[i].add(word)

    context = node.conclusion.words - active_c
    for i in range(n_premises):
        context |= node.premises[i].conclusion.words - active_p[i]
    if node.conclusion.words != context | active_c:
        return "conclusion context does not match the rule schema"
    for i in range(n_premises):
        if node.premises[i].conclusion.words != context | active_p[i]:
            return f"premise {i} context does not match the rule schema"
    return None


def check(
    calculus: CalculusId, derivation: Derivation, goal: Hypersequent
) -> CheckResult:
    """Accept iff the root matches the goal and every node is a rule instance."""
    rules = CALCULUS_RULES[calculus]
    if derivation.conclusion.words != goal.words:
        return CheckResult(False, (), "root conclusion differs from the goal")
    stack: list[tuple[tuple[int, ...], Derivation]] = [((), derivation)]
    while stack:
        path, node = stack.pop()
        error = _check_node(rules, node)
        if error is not None:
            return CheckResult(False, path, error)
        stack.extend(
            (path + (i,), premise) for i, premise in enumerate(node.premises)
        )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# extractors


def _canonical_targets(words: Sequence[ReducedWord]) -> list[Sequent]:
    return [canonical_sequent(w) for w in freegroup.dedupe(words)]


def _axiom_chain(
    rule: str,
    blocks: Sequence[tuple[Raw, Raw]],
    base_context: Sequence[Sequent],
) -> Derivation:
    """The axiom ``rule`` on the concatenation of the factors ``q e q'``,
    with the factors then pulled apart, in order.

    ``blocks`` holds one ``(q, e)`` pair per factor.  Each factor is split
    off the remaining suffix, and a nontrivial conjugator is then cycled
    away, leaving ``e``.  Contexts are accumulated: a node carries only the
    base context plus the factors already split off, so every stored
    sequent is forced by a neighbouring node and nothing in the tree is
    dead weight.
    """
    raws = [q + e + freegroup.bar(q) for q, e in blocks]
    axiom_raw = tuple(itertools.chain.from_iterable(raws))
    node = Derivation(
        Hypersequent.of([Sequent(axiom_raw), *base_context]),
        rule_instance(rule, gamma=axiom_raw),
        (),
    )
    accumulated: list[Sequent] = list(base_context)
    for j, (q, e) in enumerate(blocks):
        pending: list[Sequent] = []
        if j < len(raws) - 1:
            suffix = tuple(itertools.chain.from_iterable(raws[j + 1 :]))
            pending = [Sequent(suffix)]
            node = Derivation(
                Hypersequent.of([Sequent(raws[j]), *pending, *accumulated]),
                rule_instance("split", gamma=raws[j], delta=suffix),
                (node,),
            )
        if q:
            gamma = e + freegroup.bar(q)
            node = Derivation(
                Hypersequent.of([Sequent(gamma + q), *pending, *accumulated]),
                rule_instance("cycle", gamma=gamma, delta=q),
                (node,),
            )
        accumulated.append(Sequent(e))
    return node


def _first_rotation(
    calculus: CalculusId,
    goal: Hypersequent,
    blocks: list[tuple[Raw, Raw]],
    build: Callable[[list[tuple[Raw, Raw]]], Derivation],
) -> Derivation:
    """The first derivation ``build(rotation)`` the calculus accepts, over
    the rotations of ``blocks``; rotations keep an identity product trivial.
    One whose splits collide always fails, because its split node loses the
    suffix's raw sequence."""
    last_error = "no candidate"
    for shift in range(len(blocks)):
        candidate = build(blocks[shift:] + blocks[:shift])
        result = check(calculus, candidate, goal)
        if result:
            return candidate
        last_error = result.message
    raise DerivationError(f"no rotation of the factors is accepted: {last_error}")


def derive_ga(words: Sequence[ReducedWord], multipliers: Sequence[int]) -> Derivation:
    """Abelian-calculus derivation from balancing multipliers: an ``id``
    axiom on the multiplier concatenation, split at factor boundaries, in
    the first rotation of the factors that GA accepts.  Multipliers that do
    not balance fail the axiom's side condition in every rotation."""
    words = tuple(words)
    multipliers = tuple(int(m) for m in multipliers)
    if len(words) != len(multipliers) or not words:
        raise DerivationError("multiplier count must match the joinand count")
    if any(m < 0 for m in multipliers) or not any(multipliers):
        raise DerivationError("multipliers must be nonnegative and not all zero")
    targets = _canonical_targets(words)
    factor_words = {w for w, m in zip(words, multipliers) if m}
    base_context = [s for s in targets if s.word not in factor_words]

    factors = [((), w.letters) for w, m in zip(words, multipliers) for _ in range(m)]
    return _first_rotation(
        CalculusId.GA,
        Hypersequent.of(targets),
        factors,
        lambda rotation: _axiom_chain("id", rotation, base_context),
    )


_Path = tuple[tuple[ReducedWord, int], ...]


def _leaf_blocks(
    witness: ConjugateProduct,
    words: tuple[ReducedWord, ...],
    path: _Path,
) -> list[tuple[Raw, Raw]]:
    """The ``(conjugator, factor)`` raw pairs of a leaf witness, in product
    order; its entries index the words and the signed pivots."""
    generators = words + tuple(freegroup.signed(p, s) for p, s in path)
    return [
        (e.conjugator.letters, generators[e.base].letters) for e in witness.entries
    ]


def _derive_star(
    words: Sequence[ReducedWord], tree: RefutationTree, calculus: CalculusId
) -> Derivation:
    """One star node per branch of the tree.  A leaf's factors are split
    off a ``gv`` axiom in the first rotation of their order that the
    calculus accepts."""
    words = freegroup.dedupe(words)
    if not words:
        raise DerivationError("at least one joinand is required")
    conjugate = calculus is CalculusId.GRGSTAR
    error = verify_refutation_tree(words, tree, conjugate=conjugate)
    if error is not None:
        raise DerivationError(f"refutation tree does not verify: {error}")
    targets = _canonical_targets(words)

    derivation = freegroup.unwind(_star_node(words, targets, calculus, tree, ()))
    result = check(calculus, derivation, Hypersequent.of(targets))
    if not result:
        raise AssertionError(f"extracted derivation failed: {result.message}")
    return derivation


def _star_node(
    words: tuple[ReducedWord, ...],
    targets: list[Sequent],
    calculus: CalculusId,
    node: RefutationTree,
    path: _Path,
) -> Pass:
    """The derivation of the subtree under node, reached along path; see
    _derive_star."""
    context = targets + [
        canonical_sequent(freegroup.signed(p, s)) for p, s in path
    ]
    if isinstance(node, RefutationBranch):
        positive = path + ((node.pivot, 1),)
        negative = path + ((node.pivot, -1),)
        premises = (
            (yield _star_node(words, targets, calculus, node.positive, positive)),
            (yield _star_node(words, targets, calculus, node.negative, negative)),
        )
        return Derivation(
            Hypersequent.of(context),
            rule_instance("star", delta=node.pivot.letters),
            premises,
        )
    blocks = _leaf_blocks(node.witness, words, path)
    exposed = {_red(e) for _, e in blocks}
    base_context = [s for s in context if s.word not in exposed]

    return _first_rotation(
        calculus,
        Hypersequent.of(context),
        blocks,
        lambda rotation: _axiom_chain("gv", rotation, base_context),
    )


def derive_glgstar(
    words: Sequence[ReducedWord], tree: RefutationTree
) -> Derivation:
    """Star-calculus derivation from a sign-branching refutation tree."""
    return _derive_star(words, tree, CalculusId.GLGSTAR)


def derive_grgstar(
    words: Sequence[ReducedWord], tree: RefutationTree
) -> Derivation:
    """Cycle-extended derivation from a refutation with conjugate-product leaves."""
    return _derive_star(words, tree, CalculusId.GRGSTAR)


def gv_axiom(words: Sequence[ReducedWord], calculus: CalculusId) -> Derivation:
    """Single-node derivation for a goal containing a group-valid component."""
    targets = _canonical_targets(words)
    identity_raws = [s.raw for s in targets if s.word.is_identity]
    if not identity_raws:
        raise DerivationError("no group-valid component in the goal")
    node = Derivation(
        Hypersequent.of(targets), rule_instance("gv", gamma=identity_raws[0]), ()
    )
    result = check(calculus, node, Hypersequent.of(targets))
    if not result:
        raise AssertionError(result.message)
    return node

