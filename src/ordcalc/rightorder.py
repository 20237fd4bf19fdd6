"""Order-extension engines for free groups and the decisions built on them.

Three procedures share the witness vocabulary: truncated-cone branching
(close under bounded products, then case-split on the sign of each
undetermined short element), pivot branching over closed initial
subterms with exact subsemigroup membership at every node, and a bounded
variant for total orders that closes the generators under conjugation up
to a conjugator length bound before testing membership.  The two pivot
searches run only where no bi-order of the Magnus or abelian kind makes
every word positive: such an order settles the root outright.
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
    Factorization,
    RefutationBranch,
    RefutationLeaf,
    RefutationTree,
    SignAssignment,
    TruncatedRightOrder,
)

DEFAULT_CONJUGATOR_BOUND = 3

_Path = tuple[tuple[ReducedWord, int], ...]
_UNSOLVED = object()  # a root functional not computed yet


def _joinands(words: Iterable[ReducedWord]) -> tuple[ReducedWord, ...]:
    words = freegroup.dedupe(words)
    if not words:
        raise ValueError("at least one joinand is required")
    return words


def initial_subterms(words: Iterable[ReducedWord]) -> frozenset[ReducedWord]:
    """All prefixes of the input words, the empty prefix included."""
    out = {freegroup.IDENTITY}
    for w in words:
        out.update(w.prefix(i) for i in range(1, len(w) + 1))
    return frozenset(out)


def _ranks(word: ReducedWord) -> tuple[int, ...]:
    """The literal ranks of a word: two rank tuples of one length compare as
    the words do in ShortLex order, and inverting a literal flips bit 0."""
    return tuple(map(freegroup.literal_rank, word.letters))


def _unrank(ranks: tuple[int, ...]) -> ReducedWord:
    """The word with these literal ranks; undoes _ranks."""
    return ReducedWord(tuple(-(r // 2 + 1) if r % 2 else r // 2 + 1 for r in ranks))


def _inverse_pairs(words: Iterable[ReducedWord]):
    """Rank tuples of s' * t and of its inverse t' * s, once for each pair of
    distinct initial subterms s and t: together, all of cis(words)."""
    prefixes = [_ranks(p) for p in initial_subterms(words)]
    inverses = [tuple(r ^ 1 for r in reversed(p)) for p in prefixes]
    for i, s in enumerate(prefixes):
        for j in range(i + 1, len(prefixes)):
            t = prefixes[j]
            # past the common stem s' * t is reduced as written
            k = 0
            while k < len(s) and k < len(t) and s[k] == t[k]:
                k += 1
            yield inverses[i][: len(s) - k] + t[k:], inverses[j][: len(t) - k] + s[k:]


def cis(words: Iterable[ReducedWord]) -> frozenset[ReducedWord]:
    """Nonidentity quotients s' * t of initial subterms; closed under inversion."""
    return frozenset(_unrank(r) for pair in _inverse_pairs(words) for r in pair)


def sign_pivots(
    words: Iterable[ReducedWord], pivots: Iterable[ReducedWord] | None = None
) -> tuple[ReducedWord, ...]:
    """One representative per inverse pair of cis(words), or of the given
    pivot words: the ShortLex smaller one, in ShortLex order."""
    if pivots is None:
        pairs = _inverse_pairs(words)
    else:
        pairs = ((_ranks(w), _ranks(freegroup.inv(w))) for w in pivots)
    reps = {min(pair) for pair in pairs}
    return tuple(_unrank(r) for r in sorted(reps, key=lambda r: (len(r), r)))


# ---------------------------------------------------------------------------
# truncated-cone closure


class _Cone:
    """A set of words closed under the products that stay within a length
    bound, grown and rolled back along the search."""

    def __init__(self, bound: int):
        self.elements: set[ReducedWord] = set()
        self.index = freegroup.CancellationIndex(bound)

    def close(self, words: Iterable[ReducedWord]) -> bool:
        """Add the words and close; True when a product reaches the
        identity.  Each queued element w meets the elements present when it
        is taken, in insertion order, as w * v and then v * w; only the v
        whose product with w may stay within the bound are visited."""
        elems, index = self.elements, self.index
        queue: list[ReducedWord] = []
        for w in words:
            if w not in elems:
                elems.add(w)
                index.add(w)
                queue.append(w)
        while queue:
            w = queue.pop()
            candidates = set(index.right_factors(w)).union(index.left_factors(w))
            for position in sorted(candidates):
                v = index.words[position]
                for a, b in ((w, v), (v, w)):
                    p = freegroup.mul(a, b)
                    if p.is_identity:
                        return True
                    if len(p) <= index.level and p not in elems:
                        elems.add(p)
                        index.add(p)
                        queue.append(p)
        return False

    def rollback(self, size: int) -> None:
        """Drop every element added after the first ``size``."""
        self.elements.difference_update(self.index.words[size:])
        self.index.truncate(size)

    def search(self, pivots: Sequence[ReducedWord], arity: int, path: _Path) -> Pass:
        """The search below the node that ``path`` reaches, once the cone
        takes in the path's last signed pivot: a TruncatedRightOrder, or a
        tree whose dead branches are _Closed leaves.  It signs the first
        pivot that neither is nor inverts an element, positive sign first,
        and rolls the cone back after each sign."""
        if path and self.close([freegroup.signed(*path[-1])]):
            return _Closed(path)
        elems = self.elements
        pivot = next(
            (w for w in pivots if w not in elems and freegroup.inv(w) not in elems),
            None,
        )
        if pivot is None:
            return TruncatedRightOrder(arity, self.index.level, frozenset(elems))
        size = len(elems)
        subtrees = {}
        for sign in (1, -1):
            subtrees[sign] = yield self.search(pivots, arity, path + ((pivot, sign),))
            self.rollback(size)
            if isinstance(subtrees[sign], TruncatedRightOrder):
                return subtrees[sign]
        return RefutationBranch(pivot, subtrees[1], subtrees[-1])


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
    cone.close(words)
    return frozenset(cone.elements)


def extend_right_order(
    words: Iterable[ReducedWord], arity: int, level: int | None = None
) -> Union[TruncatedRightOrder, RefutationTree]:
    """Either a truncated right order containing the words, or a refutation tree.

    The truncation level defaults to the maximal input length, which is
    already decisive; a deeper level may be requested for diagnostics and
    never changes the verdict.  Pivots run over the shorter ball in
    ShortLex order, positive sign first.
    """
    words = freegroup.dedupe(words)
    if not words:
        raise ValueError("at least one word is required")
    for i, w in enumerate(words):
        if w.is_identity:
            return RefutationLeaf(Factorization((i,)))
    natural = max(len(w) for w in words)
    if level is None:
        level = natural
    elif level < natural:
        raise ValueError("truncation level is below the longest input word")
    pivots = [w for w in freegroup.ball(arity, level - 1) if not w.is_identity]
    cone = _Cone(level)
    if cone.close(words):
        tree = _Closed(())
    else:
        tree = freegroup.unwind(cone.search(pivots, arity, ()))
    if isinstance(tree, TruncatedRightOrder):
        return tree
    return freegroup.unwind(_extract(words, _identity_leaf, tree))


# ---------------------------------------------------------------------------
# sign search over pivots, settled at the root when a bi-order can


def _root_functional(words, arity: int) -> tuple[int, ...] | None:
    """Integer functional strictly positive on all words, when one exists."""
    separator = abelian.find_separator(
        [freegroup.abelianize(w, arity) for w in words]
    )
    if separator is None:
        return None
    return tuple(-c for c in separator)


def _root_order(
    words, arity: int, functional: tuple[int, ...] | None | object = _UNSOLVED
) -> Callable[[ReducedWord], int] | None:
    """A function that gives each nonidentity word its sign in a bi-invariant
    order making every word positive, or None when neither certificate
    below finds such an order.

    The order ranks by an integer functional positive on every word and
    breaks the functional's kernel by the Magnus sign; without such a
    functional, it is the Magnus order, or its reverse, when every word has
    one Magnus sign.  Its positive cone is closed under products and under
    conjugation, and it holds the words and every pivot signed as it says.
    So no branch of the sign search closes along that path, for any petal
    made of conjugates, and the path is the search's answer.  A caller
    that has solved ``_root_functional(words, arity)`` passes its answer.
    """
    if functional is _UNSOLVED:
        functional = _root_functional(words, arity)
    if functional is not None:

        def sign(pivot: ReducedWord) -> int:
            vector = freegroup.abelianize(pivot, arity)
            value = sum(a * b for a, b in zip(functional, vector))
            return (value > 0) - (value < 0) or biorder.magnus_sign(pivot)

        return sign
    side = biorder.uniform_sign(words)
    if side is None:
        return None
    return lambda pivot: side * biorder.magnus_sign(pivot)


class _Closed:
    """A search leaf whose generators reach the identity; its witness is
    built only if the search returns a tree.  A truncated cone lies inside
    the subsemigroup its generators make, so where the cone reaches the
    identity, ``contains_identity`` finds a factorization of it too."""

    __slots__ = ("path",)

    def __init__(self, path: _Path):
        self.path = path


def _sign_search(
    words: tuple[ReducedWord, ...],
    pivots: tuple[ReducedWord, ...],
    petal: Callable[[ReducedWord, int], Iterable[ReducedWord]],
    leaf: Callable[[_Path, tuple[ReducedWord, ...]], object],
) -> Union[RefutationTree, _Path]:
    """Depth-first search over the signs of the pivots, in order.

    A node's generators are the words and the signed pivots on its path.
    A branch closes when the subsemigroup generated by the petals of the
    words and of the signed pivots, ``petal(word, sign)`` each, reaches
    the identity; one closure is grown and rolled back along the search.
    Each pivot's Magnus-positive sign is tried first.  Returns a refutation
    tree, whose leaves carry ``leaf(path, generators)``, or the first path
    that signs every pivot and stays open.  Callers settle without it the
    roots that ``_root_order`` excludes.
    """
    closure = membership.IdentityClosure()
    result = freegroup.unwind(_sign_node(closure, words, pivots, petal, ()))
    if isinstance(result, tuple):
        return result
    return freegroup.unwind(_extract(words, leaf, result))


def _sign_node(closure, words, pivots, petal, path: _Path) -> Pass:
    """The search below the node that ``path`` reaches; see _sign_search."""
    # the closure holds the petals of the words and of the path above this
    # node; one grow adds this node's own
    if path:
        closure.grow(petal(*path[-1]))
    else:
        closure.grow(u for w in words for u in petal(w, 1))
    if closure.reached:
        closure.rollback()
        return _Closed(path)
    depth = len(path)
    if depth == len(pivots):
        return path
    pivot = pivots[depth]
    # the Magnus-positive sign first; this order fixes the certificates
    first = biorder.magnus_sign(pivot)
    subtrees = {}
    for sign in (first, -first):
        below = path + ((pivot, sign),)
        subtrees[sign] = yield _sign_node(closure, words, pivots, petal, below)
        if isinstance(subtrees[sign], tuple):
            return subtrees[sign]
    closure.rollback()
    return RefutationBranch(pivot, subtrees[1], subtrees[-1])


def _extract(words, leaf, node) -> Pass:
    """The refutation tree of a searched tree, each closed leaf replaced by
    its witness."""
    if isinstance(node, _Closed):
        generators = words + tuple(freegroup.signed(p, s) for p, s in node.path)
        witness = leaf(node.path, generators)
        if witness is None:
            raise AssertionError("closed leaf has no witness")
        return RefutationLeaf(witness)
    positive = yield _extract(words, leaf, node.positive)
    negative = yield _extract(words, leaf, node.negative)
    return RefutationBranch(node.pivot, positive, negative)


def _identity_leaf(path: _Path, generators: tuple[ReducedWord, ...]):
    """A factorization of the identity over a closed leaf's generators."""
    return membership.contains_identity(generators)[1]


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

    def petal(pivot, sign):
        return (freegroup.signed(pivot, sign),)

    result = _sign_search(words, pivots, petal, _identity_leaf)
    if isinstance(result, tuple):
        return Verdict(INVALID, SignAssignment(result))
    return Verdict(VALID, calculus.derive_glgstar(words, result))


# ---------------------------------------------------------------------------
# bounded refutation for the representable case


def _conjugate_generators(
    base: Sequence[tuple[ReducedWord, int]], arity: int, bound: int
):
    conjugators = freegroup.ball(arity, bound)
    generators: list[ReducedWord] = []
    meta: list[tuple[ReducedWord, int, int]] = []
    seen: set[ReducedWord] = set()
    for index, (word, sign) in enumerate(base):
        effective = freegroup.signed(word, sign)
        for q in conjugators:
            value = freegroup.conjugate(q, effective)
            if value in seen:
                continue
            seen.add(value)
            generators.append(value)
            meta.append((q, index, sign))
    return tuple(generators), meta


def rg_refute_bounded(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
    pivots: Sequence[ReducedWord] | None = None,
    *,
    functional: tuple[int, ...] | None | object = _UNSOLVED,
) -> RefutationTree | None:
    """Sign-branching refutation over conjugate-closed generator sets.

    A returned tree proves validity in the representable variety; None
    proves nothing beyond the bounds being exhausted.  A bi-order that
    makes every word positive ends the search before it starts.  A caller
    that has already solved ``_root_functional(words, arity)`` hands its
    answer in as ``functional``, so the system is solved once.
    """
    if conjugator_bound < 0:
        raise ValueError("conjugator bound must be >= 0")
    words = _joinands(words)
    for i, w in enumerate(words):
        if w.is_identity:
            entry = ConjugateEntry(freegroup.IDENTITY, i, 1)
            return RefutationLeaf(ConjugateProduct((entry,)))
    if pivots is not None and any(p.is_identity for p in pivots):
        raise ValueError("pivot words must be nonidentity")
    if _root_order(words, arity, functional) is not None:
        return None
    roots = tuple((w, 1) for w in words)
    conjugators = freegroup.ball(arity, conjugator_bound)

    def petal(word, sign):
        effective = freegroup.signed(word, sign)
        return (freegroup.conjugate(q, effective) for q in conjugators)

    def leaf(path, generators):
        conjugates, meta = _conjugate_generators(roots + path, arity, conjugator_bound)
        factorization = membership.contains_identity(conjugates)[1]
        if factorization is None:
            return None
        return ConjugateProduct(
            tuple(ConjugateEntry(*meta[i]) for i in factorization.factors)
        )

    result = _sign_search(words, sign_pivots(words, pivots), petal, leaf)
    return None if isinstance(result, tuple) else result


def extend_order(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
    pivots: Sequence[ReducedWord] | None = None,
) -> Union[RefutationTree, abelian.Separator, BoundsReport]:
    """A refutation tree (no order makes every word positive), else a
    functional negative on every word (its negation orders them all
    positive), else the bounds the search exhausted."""
    words = _joinands(words)
    # the separator is the root functional negated: one system per query
    functional = _root_functional(words, arity)
    tree = rg_refute_bounded(
        words, arity, conjugator_bound, pivots, functional=functional
    )
    if tree is not None:
        return tree
    if functional is not None:
        return abelian.Separator(tuple(-c for c in functional))
    return BoundsReport(conjugator_bound, sign_pivots(words, pivots))


def decide_rg(
    words: Iterable[ReducedWord],
    arity: int,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
    pivots: Sequence[ReducedWord] | None = None,
) -> Verdict:
    """Three-valued verdict for the representable variety."""
    words = _joinands(words)
    if any(w.is_identity for w in words):
        return Verdict(VALID, calculus.gv_axiom(words, CalculusId.GRGSTAR))
    outcome = extend_order(words, arity, conjugator_bound, pivots)
    if isinstance(outcome, abelian.Separator):
        return Verdict(INVALID, outcome)
    if isinstance(outcome, BoundsReport):
        return Verdict(UNKNOWN, outcome)
    return Verdict(VALID, calculus.derive_grgstar(words, outcome))
