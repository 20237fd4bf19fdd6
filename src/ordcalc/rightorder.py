"""Order-extension engines for free groups and the decisions built on them.

One kernel branches on the signs of pivots, growing a closure of the
generators along each path and rolling it back; a branch whose closure
reaches the identity becomes a refutation leaf.  cs closes a cone under
the products within a length bound and signs the first short word it
leaves unsigned.  hm and rg sign a fixed pivot list over the exact
subsemigroup closure of the words (hm) or of their conjugates up to a
length bound (rg), once no bi-order settles the root: a separator's, else
the Magnus order or, for rg, the germ order at +inf of affine maps.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from . import abelian, biorder, calculus, freegroup, membership
from .calculus import CalculusId
from .freegroup import Pass, ReducedWord
from .verdicts import INVALID, UNKNOWN, VALID, Verdict
from .witnesses import (
    BoundsReport,
    ConjugateEntry,
    ConjugateProduct,
    RefutationBranch,
    RefutationLeaf,
    RefutationTree,
    SignAssignment,
    TruncatedRightOrder,
)
# cis and initial_subterms live with the witnesses; the benchmark tracer
# wraps them here by name, as it wraps close_truncated, which nothing else
# in src/ calls, so all three stay rightorder attributes
from .witnesses import cis, initial_subterms, sign_pivots  # noqa: F401

DEFAULT_CONJUGATOR_BOUND = 3

_Path = tuple[tuple[ReducedWord, int], ...]


def _joinands(words: Iterable[ReducedWord]) -> tuple[ReducedWord, ...]:
    words = freegroup.dedupe(words)
    if not words:
        raise ValueError("at least one joinand is required")
    return words


# ---------------------------------------------------------------------------
# truncated-cone closure


class _Cone:
    """A set of words, held as letter tuples, closed under the products
    within a length bound, grown and rolled back along the search as an
    IdentityClosure is."""

    def __init__(self, bound: int):
        self.elements: set[tuple[int, ...]] = set()
        self.index = freegroup.CancellationIndex(bound)
        self._marks: list[int] = []

    def holds(self, letters: tuple[int, ...]) -> bool:
        """Whether the word with these letters is an element."""
        return letters in self.elements

    def grow(self, words: Iterable[ReducedWord]) -> bool:
        """Add the words and close, in one grow that one rollback undoes;
        True when a product reaches the identity.  Each queued element w
        meets the elements present when it is taken, as w * v for the v
        that the index lists as right factors of w and then as v * w for
        its left factors, so only products that may stay within the bound
        are computed."""
        elems, index, splice = self.elements, self.index, freegroup.splice
        self._marks.append(len(index.words))
        queue: list[tuple[int, ...]] = []
        for w in words:
            if w.letters not in elems:
                elems.add(w.letters)
                index.add(w.letters)
                queue.append(w.letters)
        while queue:
            w = queue.pop()
            at = index.words
            products = [splice(w, at[i]) for i in index.right_factors(w)]
            products += [splice(at[i], w) for i in index.left_factors(w)]
            for p in products:
                if not p:
                    return True
                if len(p) <= index.level and p not in elems:
                    elems.add(p)
                    index.add(p)
                    queue.append(p)
        return False

    def rollback(self) -> None:
        """Undo the last grow."""
        size = self._marks.pop()
        self.elements.difference_update(self.index.words[size:])
        self.index.truncate(size)


def close_truncated(
    words: Iterable[ReducedWord], max_length: int
) -> frozenset[ReducedWord]:
    """Least superset closed under products that stay within the length
    bound.  When a product reaches the identity the closure stops there,
    and the elements reached so far are returned."""
    words = freegroup.dedupe(words)
    for w in words:
        if w.is_identity:
            raise ValueError("the identity cannot generate a truncated cone")
        if len(w) > max_length:
            raise ValueError("generator exceeds the length bound")
    cone = _Cone(max_length)
    cone.grow(words)
    return frozenset(map(ReducedWord, cone.elements))


def extend_right_order(
    words: Iterable[ReducedWord], arity: int
) -> Union[TruncatedRightOrder, RefutationTree]:
    """Either a truncated right order containing the words, or a refutation tree.

    The truncation level is the maximal input length, which is already
    decisive.  The search signs the first word of the shorter ball, in
    ShortLex order, that neither is nor inverts an element of the cone,
    positive sign first.  The order is given by the words and the signed
    pivots of the open path, whose closure within the level is the cone
    the search ends with; its elements are never listed.
    """
    words = freegroup.dedupe(words)
    if not words:
        raise ValueError("at least one word is required")
    for i, w in enumerate(words):
        if w.is_identity:
            entry = ConjugateEntry(freegroup.IDENTITY, i)
            return RefutationLeaf(ConjugateProduct((entry,)))
    top = max(w.max_generator() for w in words)
    if top > arity:
        raise ValueError(f"generator {top} exceeds arity {arity}")
    level = max(len(w) for w in words)
    ball = freegroup.ball(arity, level - 1)[1:]  # the identity leads the ball
    pivots = [(w, w.letters, freegroup.bar(w.letters)) for w in ball]
    cone = _Cone(level)

    def choose(path):
        for w, letters, inverse in pivots:
            if not cone.holds(letters) and not cone.holds(inverse):
                return w, 1
        return None

    tree = _sign_search(cone, words, choose, *_IDENTITY_ONLY)
    if isinstance(tree, tuple):  # the open path, whose closure is the cone
        signed = tuple(freegroup.signed(p, s) for p, s in tree)
        return TruncatedRightOrder(arity, level, words=words, generators=signed)
    return tree


# ---------------------------------------------------------------------------
# sign search over pivots, settled at the root when a bi-order can


def _root_order(words, arity: int) -> Callable[[ReducedWord], int] | None:
    """A function that gives each nonidentity word its sign in a bi-invariant
    order making every word positive, or None when neither certificate
    below finds such an order.

    The order ranks by the negation of a separator, an integer functional
    negative on every word, and breaks its kernel by the Magnus sign;
    without a separator, it is the Magnus order, or its reverse, when
    every word has one Magnus sign.  Its positive cone is closed under
    products and under conjugation, and it holds the words and every pivot
    signed as it says.  So no branch of the sign search closes along that
    path, for any petal made of conjugates: that path is the answer.
    """
    separator = abelian.find_separator(
        [freegroup.abelianize(w, arity) for w in words]
    )
    if separator is not None:

        def sign(pivot: ReducedWord) -> int:
            vector = freegroup.abelianize(pivot, arity)
            value = sum(a * b for a, b in zip(separator, vector))
            return (value < 0) - (value > 0) or biorder.magnus_sign(pivot)

        return sign
    side = biorder.uniform_sign(words)
    if side is None:
        return None
    return lambda pivot: side * biorder.magnus_sign(pivot)


class _Closed:
    """A search leaf whose generators, the words and the signed pivots on
    ``path`` (the tree's branches above it), reach the identity; its
    witness is built only if the search returns a tree and the branches
    above it keep its side.  A truncated cone lies inside the subsemigroup
    its generators make, so where the cone reaches the identity,
    ``contains_identity`` finds a factorization of it too."""

    __slots__ = ("path",)

    def __init__(self, path: _Path):
        self.path = path


_Choose = Callable[[_Path], Union[tuple[ReducedWord, int], None]]


def _sign_search(
    closure,
    words: tuple[ReducedWord, ...],
    choose: _Choose,
    petal: Callable[[ReducedWord, int], Iterable[ReducedWord]],
    leaf: Callable[[tuple[ReducedWord, ...]], object],
) -> Union[RefutationTree, _Path]:
    """Depth-first search over the signs of pivots.

    A node's generators are the words and the signed pivots on its path.
    The caller's empty closure, an IdentityClosure or a _Cone, takes the
    petals of the words at the root, and for each signed pivot below the
    words of ``petal(pivot, sign)`` it does not hold (see _grow_unheld).
    At a node that stays open, ``choose(path)`` gives the pivot to sign
    and the sign to try first, or None at an open leaf.  A sign whose
    whole petal the closure holds is forced: the other sign closes at
    once, so the search descends along it alone, and the tree has no
    branch for that pivot.  Returns a refutation tree, whose leaves carry
    ``leaf(generators)`` over the words and the signed pivots the tree
    branches on above them, with no branch whose pivot the leaves below
    one side do not use (see _extract), or the first open leaf's path,
    forced pivots included, with the closure left as it stands there.
    Callers settle the roots that a bi-order excludes without it.
    """
    if closure.grow(u for w in words for u in petal(w, 1)):
        result = _Closed(())
    else:
        result = freegroup.unwind(_sign_node(closure, words, choose, petal, (), ()))
        if isinstance(result, tuple):
            return result
    closure.rollback()
    return freegroup.unwind(_extract(words, leaf, result))[0]


def _sign_node(closure, words, choose, petal, path: _Path, branched: _Path) -> Pass:
    """The search below the open node that ``path`` reaches, whose petals
    the closure holds; ``branched`` is the part of ``path`` that the tree
    branches on.  See _sign_search."""
    choice = choose(path)
    if choice is None:
        return path
    pivot, first = choice
    subtrees = {}
    for sign in (first, -first):
        signed = ((pivot, sign),)
        added = _grow_unheld(closure, petal(pivot, sign))
        if added is None:  # closed: its leaf waits until the branch is kept
            continue
        forced = not added
        above = branched if forced else branched + signed
        subtree = yield _sign_node(closure, words, choose, petal, path + signed, above)
        if isinstance(subtree, tuple) or forced:  # forced: the other sign closes
            return subtree
        closure.rollback()
        subtrees[sign] = subtree
    positive, negative = (
        subtrees.get(sign) or _Closed(branched + ((pivot, sign),)) for sign in (1, -1)
    )
    return RefutationBranch(pivot, positive, negative)


def _grow_unheld(closure, petal: Iterable[ReducedWord]) -> list[ReducedWord] | None:
    """Grow the closure by the petal words it does not hold, if any, in one
    grow that one rollback undoes, and return them; None, with the closure
    as before, when the sign closes: the closure holds the inverse of a
    petal word, or the grow reaches the identity."""
    added = []
    for u in petal:
        if closure.holds(u.letters):
            continue
        if closure.holds(freegroup.bar(u.letters)):
            return None
        added.append(u)
    if added and closure.grow(added):
        closure.rollback()
        return None
    return added


def _in_order(pivots: Sequence[ReducedWord]) -> _Choose:
    """Sign the pivots in list order, each Magnus-positive sign first; this
    order fixes the certificates of hm and rg."""

    def choose(path):
        if len(path) == len(pivots):
            return None
        pivot = pivots[len(path)]
        return pivot, biorder.magnus_sign(pivot)

    return choose


def _extract(words, leaf, node, depth: int = 0) -> Pass:
    """The refutation tree of a searched tree whose branches lie at
    ``depth``, each closed leaf replaced by its witness, and the generator
    indexes its leaves use.

    A leaf's generators are the words and then the signed pivots of the
    branches above it, so the pivot of a branch at ``depth`` is generator
    ``len(words) + depth`` of every leaf below it.  When no leaf below a
    side uses that generator, the side alone refutes the path above the
    branch, as in conflict-directed backjumping (Prosser, *Hybrid
    algorithms for the constraint satisfaction problem*, Computational
    Intelligence, 1993): the branch becomes that side, with every leaf
    factor above the pivot's index lowered by one, and a later side is
    never factored.  The positive side is tried first.
    """
    if isinstance(node, _Closed):
        generators = words + tuple(freegroup.signed(p, s) for p, s in node.path)
        witness = leaf(generators)
        if witness is None:
            raise AssertionError("closed leaf has no witness")
        return RefutationLeaf(witness), {e.base for e in witness.entries}
    pivot_index = len(words) + depth
    sides = []
    for side in (node.positive, node.negative):
        tree, used = yield _extract(words, leaf, side, depth + 1)
        if pivot_index not in used:
            lowered = yield _lowered(tree, pivot_index)
            return lowered, {i - (i > pivot_index) for i in used}
        sides.append((tree, used))
    (positive, used), (negative, more) = sides
    return RefutationBranch(node.pivot, positive, negative), used | more


def _lowered(node: RefutationTree, index: int) -> Pass:
    """The tree with every leaf factor index above ``index`` lowered by one."""
    if isinstance(node, RefutationBranch):
        positive = yield _lowered(node.positive, index)
        negative = yield _lowered(node.negative, index)
        return RefutationBranch(node.pivot, positive, negative)
    return RefutationLeaf(ConjugateProduct(tuple(
        ConjugateEntry(e.conjugator, e.base - 1) if e.base > index else e
        for e in node.witness.entries
    )))


def _conjugating(conjugators: Sequence[ReducedWord]):
    """The petal and the leaf of a sign search whose generators are the
    conjugates of the words and the signed pivots by each conjugator, in
    that order.  A leaf factors the identity over each conjugate at its
    first occurrence, as a product of the fewest conjugates of the signed
    generators."""

    def petal(word: ReducedWord, sign: int) -> Iterable[ReducedWord]:
        effective = freegroup.signed(word, sign)
        return (freegroup.conjugate(q, effective) for q in conjugators)

    def leaf(generators: tuple[ReducedWord, ...]) -> ConjugateProduct | None:
        entries: dict[ReducedWord, ConjugateEntry] = {}
        for index, base in enumerate(generators):
            for q in conjugators:
                value = freegroup.conjugate(q, base)
                entries.setdefault(value, ConjugateEntry(q, index))
        factorization = membership.contains_identity(entries)[1]
        if factorization is None:
            return None
        firsts = tuple(entries.values())
        chosen = tuple(firsts[i] for i in factorization.factors)
        # conjugating the product by q' leaves it e, so factors that are
        # all conjugates by one q may be the words themselves
        if len({e.conjugator for e in chosen}) == 1:
            chosen = tuple(ConjugateEntry(freegroup.IDENTITY, e.base) for e in chosen)
        return ConjugateProduct(chosen)

    return petal, leaf


# cs and hm conjugate by e alone: each signed word adds itself
_IDENTITY_ONLY = _conjugating((freegroup.IDENTITY,))


# ---------------------------------------------------------------------------
# decision via truncated-cone branching


def decide_lg_cs(words: Iterable[ReducedWord], arity: int) -> Verdict:
    """l-group validity via right-order extension of the joinand set."""
    words = _joinands(words)
    if any(w.is_identity for w in words):
        return Verdict(VALID, calculus.gv_axiom(words, CalculusId.GLGSTAR))
    outcome = extend_right_order(words, arity)
    if isinstance(outcome, TruncatedRightOrder):
        return Verdict(INVALID, outcome)
    return Verdict(VALID, calculus.derive_glgstar(words, outcome))


# ---------------------------------------------------------------------------
# decision via initial-subterm sign branching


def decide_lg_hm(words: Iterable[ReducedWord], arity: int) -> Verdict:
    """l-group validity by sign branching over closed initial subterms.

    Every inverse pair of cis(words) contributes one pivot; a branch is
    closed as soon as the signed generators already reach the identity,
    and a full assignment that never does is the invalid-side witness.
    A bi-order that makes every word positive gives one at once.
    """
    words = _joinands(words)
    if any(w.is_identity for w in words):
        return Verdict(VALID, calculus.gv_axiom(words, CalculusId.GLGSTAR))
    pivots = sign_pivots(words)
    sign = _root_order(words, arity)
    if sign is not None:
        return Verdict(INVALID, SignAssignment(tuple((p, sign(p)) for p in pivots)))
    closure, choose = membership.IdentityClosure(), _in_order(pivots)
    result = _sign_search(closure, words, choose, *_IDENTITY_ONLY)
    if isinstance(result, tuple):
        return Verdict(INVALID, SignAssignment(result))
    return Verdict(VALID, calculus.derive_glgstar(words, result))


# ---------------------------------------------------------------------------
# bounded refutation for the representable case


def rg_refute_bounded(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
) -> RefutationTree | None:
    """Sign-branching refutation over conjugate-closed generator sets.

    A returned tree proves validity in the representable variety; None
    proves nothing beyond the bounds being exhausted.  A bi-order that
    makes every word positive ends the search before it starts, with no
    closure built: the Magnus order or its reverse, else the germ order at
    +inf of the affine maps ``biorder.affine_germ_order`` finds, with its
    kernel ordered by the Magnus sign.  The germ order settles every root
    that an integer functional positive on every word settles.
    """
    if conjugator_bound < 0:
        raise ValueError("conjugator bound must be >= 0")
    words = _joinands(words)
    if biorder.uniform_sign(words) is not None:
        return None
    if biorder.affine_germ_order(words, arity) is not None:
        return None
    petal, leaf = _conjugating(freegroup.ball(arity, conjugator_bound))
    choose = _in_order(sign_pivots(words))
    result = _sign_search(membership.IdentityClosure(), words, choose, petal, leaf)
    return None if isinstance(result, tuple) else result


def extend_order(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
) -> Union[RefutationTree, abelian.Separator, BoundsReport]:
    """A functional negative on every word (its negation orders them all
    positive), else a refutation tree (no order makes every word
    positive), else the bounds the search exhausted."""
    words = _joinands(words)
    separator = abelian.find_separator(
        [freegroup.abelianize(w, arity) for w in words]
    )
    if separator is not None:
        return abelian.Separator(separator)
    tree = rg_refute_bounded(words, arity, conjugator_bound)
    if tree is not None:
        return tree
    return BoundsReport(conjugator_bound)


def decide_rg(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
) -> Verdict:
    """Three-valued verdict for the representable variety."""
    words = _joinands(words)
    if any(w.is_identity for w in words):
        return Verdict(VALID, calculus.gv_axiom(words, CalculusId.GRGSTAR))
    outcome = extend_order(words, arity, conjugator_bound)
    if isinstance(outcome, abelian.Separator):
        return Verdict(INVALID, outcome)
    if isinstance(outcome, BoundsReport):
        return Verdict(UNKNOWN, outcome)
    return Verdict(VALID, calculus.derive_grgstar(words, outcome))
