"""Hypersequent proof objects, a per-rule instance checker, and extractors.

Sequents are identified modulo free reduction: a hypersequent is a set of
sequents keyed by canonical word, while every sequent keeps the raw
(possibly unreduced) literal sequence it was written with.  Rule
instances carry raw certificate sequences; the checker recomposes the
schema from the certificates and matches the active sequents against the
stored raws exactly, so any corrupted literal breaks some equation.
Context sequents are matched as canonical sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from . import freegroup
from .freegroup import ReducedWord
from .witnesses import (
    ConjugateProduct,
    Factorization,
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

    def has_raw(self, raw: Raw) -> bool:
        return any(s.raw == tuple(raw) for s in self.sequents)

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
    "id": (("delta",), 0),
    "ex": (("pi", "gamma", "delta"), 1),
    "split": (("gamma", "delta"), 1),
    "gv": (("gamma",), 0),
    "star": (("delta",), 2),
    "cycle": (("gamma", "delta"), 1),
}

CALCULUS_RULES: dict[CalculusId, frozenset[str]] = {
    CalculusId.GA: frozenset({"id", "ex", "split"}),
    CalculusId.GLGSTAR: frozenset({"gv", "split", "star"}),
    CalculusId.GRGSTAR: frozenset({"gv", "split", "star", "cycle"}),
}


def group_valid(sequent: Sequent) -> bool:
    """True when the sequent's word reduces to the identity of F(k)."""
    return sequent.word.is_identity


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
        concl_exact = [cert["delta"] + freegroup.bar(cert["delta"])]
    elif inst.rule == "ex":
        concl_exact = [cert["pi"] + cert["gamma"] + cert["delta"]]
        prem_exact[0] = [cert["pi"] + cert["delta"] + cert["gamma"]]
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

    for raw in concl_exact:
        if not node.conclusion.has_raw(raw):
            return (
                "conclusion lacks active sequent "
                f"{freegroup.word_to_text(raw)!r}"
            )
    for i, raws in enumerate(prem_exact):
        for raw in raws:
            if not node.premises[i].conclusion.has_raw(raw):
                return (
                    f"premise {i} lacks active sequent "
                    f"{freegroup.word_to_text(raw)!r}"
                )
    for i, words in enumerate(prem_canonical):
        for word in words:
            if word not in node.premises[i].conclusion.words:
                return (
                    f"premise {i} lacks component "
                    f"{freegroup.word_to_text(word)!r}"
                )

    active_c = {_red(raw) for raw in concl_exact}
    active_p = [
        {_red(raw) for raw in prem_exact[i]} | set(prem_canonical[i])
        for i in range(n_premises)
    ]
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


def _ga_token_key(code: int) -> tuple[int, int]:
    return (0, code) if code > 0 else (1, code)


def _split_chain(
    start: Derivation,
    blocks: Sequence[tuple[Raw, Raw]],
    base_context: Sequence[Sequent],
) -> Derivation:
    """Pull the factors ``q e q'`` of the active sequent apart, in order.

    ``blocks`` holds one ``(q, e)`` pair per factor.  Each factor is split
    off the remaining suffix, and a nontrivial conjugator is then cycled
    away, leaving ``e``.  Contexts are accumulated: a node carries only the
    base context plus the factors already split off, so every stored
    sequent is forced by a neighbouring node and nothing in the tree is
    dead weight.
    """
    raws = [q + e + freegroup.bar(q) for q, e in blocks]
    node = start
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


def _plan_rotation(factors: list) -> list[list]:
    """Candidate factor orders; rotations keep an identity product trivial."""
    return [factors[shift:] + factors[:shift] for shift in range(len(factors))]


def _splits_collide(factor_raws: Sequence[Raw]) -> bool:
    # A collision merges the pending suffix with a just-split factor and
    # loses the raw sequence the next lookup needs.
    for j in range(len(factor_raws) - 1):
        suffix = tuple(itertools.chain.from_iterable(factor_raws[j + 1 :]))
        if factor_raws[j] != suffix and _red(factor_raws[j]) == _red(suffix):
            return True
    return False


def derive_ga(words: Sequence[ReducedWord], multipliers: Sequence[int]) -> Derivation:
    """Abelian-calculus derivation from balancing multipliers.

    An axiom instance on a sorted arrangement, exchange steps permuting it
    into the multiplier concatenation, then splits at factor boundaries.
    """
    words = tuple(words)
    multipliers = tuple(int(m) for m in multipliers)
    if len(words) != len(multipliers) or not words:
        raise DerivationError("multiplier count must match the joinand count")
    if any(m < 0 for m in multipliers) or not any(multipliers):
        raise DerivationError("multipliers must be nonnegative and not all zero")
    arity = max((w.max_generator() for w in words), default=0) or 1
    balance = [0] * arity
    for w, m in zip(words, multipliers):
        for d, c in enumerate(freegroup.abelianize(w, arity)):
            balance[d] += m * c
    if any(balance):
        raise DerivationError("multipliers do not balance the join")

    targets = _canonical_targets(words)
    factor_raws = [
        w.letters for w, m in zip(words, multipliers) for _ in range(m)
    ]
    for candidate in _plan_rotation(factor_raws):
        if not _splits_collide(candidate):
            factor_raws = candidate
            break
    else:
        raise DerivationError("no collision-free factor order exists")

    factor_words = {w for w, m in zip(words, multipliers) if m}
    base_context = [s for s in targets if s.word not in factor_words]

    concatenation = tuple(itertools.chain.from_iterable(factor_raws))
    positives = tuple(sorted(c for c in concatenation if c > 0))
    axiom_raw = positives + freegroup.bar(positives)

    node = Derivation(
        Hypersequent.of([Sequent(axiom_raw), *base_context]),
        rule_instance("id", delta=positives),
        (),
    )

    # Record the selection sort concatenation -> axiom_raw, then emit the
    # exchange steps from the axiom back down.
    snapshots: list[tuple[int, tuple[int, ...]]] = []
    current = list(concatenation)
    placed = 0
    for token in sorted(concatenation, key=_ga_token_key):
        region_end = len(current) - placed
        position = current.index(token, 0, region_end)
        if position != len(current) - 1:
            snapshots.append((position, tuple(current)))
            current = current[:position] + current[position + 1 :] + [token]
        placed += 1
    assert tuple(current) == axiom_raw

    for position, state in reversed(snapshots):
        node = Derivation(
            Hypersequent.of([Sequent(state), *base_context]),
            rule_instance(
                "ex",
                pi=state[:position],
                gamma=(state[position],),
                delta=state[position + 1 :],
            ),
            (node,),
        )

    node = _split_chain(node, [((), raw) for raw in factor_raws], base_context)
    goal = Hypersequent.of(targets)
    result = check(CalculusId.GA, node, goal)
    if not result:
        raise AssertionError(f"extracted GA derivation failed: {result.message}")
    return node


_Path = tuple[tuple[ReducedWord, int], ...]


def _leaf_blocks(
    witness: Factorization | ConjugateProduct,
    words: tuple[ReducedWord, ...],
    path: _Path,
) -> list[tuple[Raw, Raw]]:
    """The ``(conjugator, factor)`` raw pairs of a leaf witness, in product
    order.  A factorization indexes the words and the signed pivots; a
    conjugate product indexes the unsigned pivots and signs each entry."""
    if isinstance(witness, Factorization):
        generators = words + tuple(freegroup.signed(p, s) for p, s in path)
        return [((), generators[i].letters) for i in witness.factors]
    generators = words + tuple(p for p, _ in path)
    return [
        (
            entry.conjugator.letters,
            freegroup.signed(generators[entry.base], entry.sign).letters,
        )
        for entry in witness.entries
    ]


def _derive_star(
    words: Sequence[ReducedWord], tree: RefutationTree, calculus: CalculusId
) -> Derivation:
    """One star node per branch of the tree.  A leaf's factors are split
    off a ``gv`` axiom in each rotation of their order; the first rotation
    the calculus accepts is kept.  One whose splits collide always fails,
    because its split node loses the suffix's raw sequence."""
    words = freegroup.dedupe(words)
    if not words:
        raise DerivationError("at least one joinand is required")
    conjugate = calculus is CalculusId.GRGSTAR
    error = verify_refutation_tree(words, tree, conjugate=conjugate)
    if error is not None:
        raise DerivationError(f"refutation tree does not verify: {error}")
    targets = _canonical_targets(words)

    def build(node: RefutationTree, path: _Path) -> Derivation:
        context = targets + [
            canonical_sequent(freegroup.signed(p, s)) for p, s in path
        ]
        if isinstance(node, RefutationBranch):
            positive = build(node.positive, path + ((node.pivot, 1),))
            negative = build(node.negative, path + ((node.pivot, -1),))
            return Derivation(
                Hypersequent.of(context),
                rule_instance("star", delta=node.pivot.letters),
                (positive, negative),
            )
        blocks = _leaf_blocks(node.witness, words, path)
        exposed = {_red(e) for _, e in blocks}
        base_context = [s for s in context if s.word not in exposed]
        goal, last_error = Hypersequent.of(context), "no candidate"
        for rotation in _plan_rotation(blocks):
            raw = tuple(itertools.chain.from_iterable(
                q + e + freegroup.bar(q) for q, e in rotation
            ))
            axiom = Derivation(
                Hypersequent.of([Sequent(raw), *base_context]),
                rule_instance("gv", gamma=raw),
                (),
            )
            candidate = _split_chain(axiom, rotation, base_context)
            result = check(calculus, candidate, goal)
            if result:
                return candidate
            last_error = result.message
        raise DerivationError(f"leaf extraction failed: {last_error}")

    derivation = build(tree, ())
    result = check(calculus, derivation, Hypersequent.of(targets))
    if not result:
        raise AssertionError(f"extracted derivation failed: {result.message}")
    return derivation


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

