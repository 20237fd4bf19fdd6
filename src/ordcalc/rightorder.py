"""Order-extension engines for free groups and the decisions built on them.

Three procedures share the witness vocabulary: truncated-cone branching
(close under bounded products, then case-split on the sign of each
undetermined short element), pivot branching over closed initial
subterms with exact subsemigroup membership at every node, and a bounded
variant for total orders that closes the generators under conjugation up
to a conjugator length bound before testing membership.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from . import abelian, biorder, calculus, freegroup, membership
from .calculus import CalculusId
from .freegroup import ReducedWord
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

_Prov = tuple
_Path = tuple[tuple[ReducedWord, int], ...]
_GEN, _PROD = "gen", "prod"


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


def _close(
    elements: dict[ReducedWord, _Prov],
    additions: Sequence[tuple[ReducedWord, _Prov]],
    bound: int,
):
    """Close under products of length <= bound.

    Returns ("ok", elems) or ("dead", (a, b), elems) where a * b reduces to
    the identity; elems maps each element to its provenance.
    """
    elems = dict(elements)
    queue: list[ReducedWord] = []
    for w, prov in additions:
        if w not in elems:
            elems[w] = prov
            queue.append(w)
    while queue:
        w = queue.pop()
        for v in list(elems):
            for a, b in ((w, v), (v, w)):
                p = freegroup.mul(a, b)
                if p.is_identity:
                    return ("dead", (a, b), elems)
                if len(p) <= bound and p not in elems:
                    elems[p] = (_PROD, a, b)
                    queue.append(p)
    return ("ok", elems)


def _death_factors(
    elems: dict[ReducedWord, _Prov], pair: tuple[ReducedWord, ReducedWord]
) -> Factorization:
    memo: dict[ReducedWord, tuple[int, ...]] = {}

    def flat(w: ReducedWord) -> tuple[int, ...]:
        if w not in memo:
            prov = elems[w]
            if prov[0] == _GEN:
                memo[w] = (prov[1],)
            else:
                memo[w] = flat(prov[1]) + flat(prov[2])
        return memo[w]

    return Factorization(flat(pair[0]) + flat(pair[1]))


def close_truncated(
    words: Iterable[ReducedWord], max_length: int
) -> frozenset[ReducedWord]:
    """Least superset closed under products that stay within the length bound."""
    words = freegroup.dedupe(words)
    for w in words:
        if w.is_identity:
            raise ValueError("the identity cannot generate a truncated cone")
        if len(w) > max_length:
            raise ValueError("generator exceeds the length bound")
    result = _close({}, [(w, (_GEN, i)) for i, w in enumerate(words)], max_length)
    return frozenset(result[1])


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
    pivot_space = [w for w in freegroup.ball(arity, level - 1) if not w.is_identity]

    outcome = _close({}, [(w, (_GEN, i)) for i, w in enumerate(words)], level)
    if outcome[0] == "dead":
        return RefutationLeaf(_death_factors(outcome[2], outcome[1]))

    def search(elems: dict[ReducedWord, _Prov], depth: int):
        pivot = next(
            (
                w
                for w in pivot_space
                if w not in elems and freegroup.inv(w) not in elems
            ),
            None,
        )
        if pivot is None:
            return TruncatedRightOrder(arity, level, frozenset(elems))
        subtrees = {}
        for sign in (1, -1):
            candidate = freegroup.signed(pivot, sign)
            result = _close(
                elems, [(candidate, (_GEN, len(words) + depth))], level
            )
            if result[0] == "dead":
                subtrees[sign] = RefutationLeaf(
                    _death_factors(result[2], result[1])
                )
                continue
            subtrees[sign] = search(result[1], depth + 1)
            if isinstance(subtrees[sign], TruncatedRightOrder):
                return subtrees[sign]
        return RefutationBranch(pivot, subtrees[1], subtrees[-1])

    return search(outcome[1], 0)


# ---------------------------------------------------------------------------
# membership with fast negative certificates


def _root_functional(words, arity: int) -> tuple[int, ...] | None:
    """Integer functional strictly positive on all words, when one exists."""
    separator = abelian.find_separator(
        [freegroup.abelianize(w, arity) for w in words]
    )
    if separator is None:
        return None
    return tuple(-c for c in separator)


def _refinement_positive(
    generators, arity: int, functional: tuple[int, ...], tie: int
) -> bool:
    """All generators strictly positive in the order that ranks by the
    functional first and breaks its kernel by the bi-order sign."""
    for w in generators:
        if w.is_identity:
            return False
        value = sum(
            a * b for a, b in zip(functional, freegroup.abelianize(w, arity))
        )
        if value < 0:
            return False
        if value == 0 and biorder.magnus_sign(w) != tie:
            return False
    return True


def _excludes_identity(
    generators, arity: int, functional: tuple[int, ...] | None
) -> bool:
    """Sound negative certificate: the set sits inside the cone of a
    bi-invariant order, so no nonempty product (of conjugates) reduces to e.

    Conjugation preserves the bi-order sign and the abelianization, so
    every certificate here transfers to the conjugate-closed set.
    """
    if biorder.uniform_sign(generators) is not None:
        return True
    if functional is not None:
        for tie in (1, -1):
            if _refinement_positive(generators, arity, functional, tie):
                return True
            flipped = tuple(-c for c in functional)
            if _refinement_positive(generators, arity, flipped, tie):
                return True
    # a separating functional for this very set also settles it
    vectors = [freegroup.abelianize(w, arity) for w in generators]
    return abelian.find_separator(vectors) is not None


def _guided_sign(
    pivot: ReducedWord,
    arity: int,
    functional: tuple[int, ...] | None,
    side: int,
) -> int:
    """Sign choice keeping the pivot on the words' side of the order."""
    if functional is not None:
        value = sum(
            a * b for a, b in zip(functional, freegroup.abelianize(pivot, arity))
        )
        if value:
            return 1 if value > 0 else -1
        return biorder.magnus_sign(pivot)
    return side * biorder.magnus_sign(pivot)


def _sign_search(
    words: tuple[ReducedWord, ...],
    arity: int,
    pivots: tuple[ReducedWord, ...],
    leaf: Callable[[_Path, tuple[ReducedWord, ...]], object],
) -> Union[RefutationTree, _Path]:
    """Depth-first search over the signs of the pivots, in order.

    A node's generators are the words and the signed pivots on its path;
    ``leaf(path, generators)`` returns a witness that they reach the
    identity, which closes the branch, or None.  It is skipped where a
    bi-order or abelian certificate already excludes the identity.
    Returns a refutation tree, or the first path that signs every pivot
    and stays open.  The search keeps its own stack, so any number of
    pivots fits.
    """
    side = biorder.uniform_sign(words) or 1
    functional = _root_functional(words, arity)
    # frames[k] is the branch node at depth k of the path: the sign it
    # explores first, then that branch's subtree once it is closed
    frames: list[list] = []
    path: _Path = ()
    while True:
        generators = words + tuple(freegroup.signed(p, s) for p, s in path)
        witness = None
        if not _excludes_identity(generators, arity, functional):
            witness = leaf(path, generators)
        if witness is None:
            if len(path) == len(pivots):
                return path
            pivot = pivots[len(path)]
            # explore the branch consistent with the words' side of the
            # order first: on invalid instances it is the failing one
            guided = _guided_sign(pivot, arity, functional, side)
            frames.append([guided, None])
            path += ((pivot, guided),)
            continue
        tree: RefutationTree = RefutationLeaf(witness)
        while frames and frames[-1][1] is not None:
            guided, first = frames.pop()
            positive, negative = (first, tree) if guided > 0 else (tree, first)
            tree = RefutationBranch(pivots[len(frames)], positive, negative)
        if not frames:
            return tree
        frames[-1][1] = tree
        depth = len(frames) - 1
        path = path[:depth] + ((pivots[depth], -frames[-1][0]),)


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
    """
    words = _joinands(words)
    if any(w.is_identity for w in words):
        return Verdict(VALID, calculus.gv_axiom(words, CalculusId.GLGSTAR))

    def leaf(path, generators):
        return membership.contains_identity(generators)[1]

    result = _sign_search(words, arity, sign_pivots(words), leaf)
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
) -> RefutationTree | None:
    """Sign-branching refutation over conjugate-closed generator sets.

    A returned tree proves validity in the representable variety; None
    proves nothing beyond the bounds being exhausted.
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
    roots = tuple((w, 1) for w in words)

    def leaf(path, generators):
        conjugates, meta = _conjugate_generators(roots + path, arity, conjugator_bound)
        factorization = membership.contains_identity(conjugates)[1]
        if factorization is None:
            return None
        return ConjugateProduct(
            tuple(ConjugateEntry(*meta[i]) for i in factorization.factors)
        )

    result = _sign_search(words, arity, sign_pivots(words, pivots), leaf)
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
    words = freegroup.dedupe(words)
    tree = rg_refute_bounded(words, arity, conjugator_bound, pivots)
    if tree is not None:
        return tree
    vectors = [freegroup.abelianize(w, arity) for w in words]
    separator = abelian.find_separator(vectors)
    if separator is not None:
        return abelian.Separator(separator)
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
