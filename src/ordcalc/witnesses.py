"""Witness objects exchanged between the decision procedures and the proof layer.

Everything here is a plain value with an explicit verifier, so emitted
certificates can be re-checked independently of the search that found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence, Union

from . import freegroup
from .freegroup import Pass, ReducedWord


@dataclass(frozen=True)
class Factorization:
    """Indices into a generator list whose ordered product reduces to e."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("factorization must be nonempty")

    def product(self, generators: tuple[ReducedWord, ...]) -> ReducedWord:
        return freegroup.product(generators[i] for i in self.factors)


@dataclass(frozen=True)
class ConjugateEntry:
    """The conjugate q * g * q' of the generator g at index ``base``."""

    conjugator: ReducedWord
    base: int


@dataclass(frozen=True)
class ConjugateProduct:
    """Conjugates of listed generators whose ordered product reduces to e."""

    entries: tuple[ConjugateEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("conjugate product must be nonempty")

    def product(self, generators: tuple[ReducedWord, ...]) -> ReducedWord:
        return freegroup.product(
            freegroup.conjugate(e.conjugator, generators[e.base]) for e in self.entries
        )


@dataclass(frozen=True)
class RefutationLeaf:
    witness: ConjugateProduct


@dataclass(frozen=True)
class RefutationBranch:
    pivot: ReducedWord
    positive: "RefutationTree"
    negative: "RefutationTree"


RefutationTree = Union[RefutationLeaf, RefutationBranch]


@dataclass(frozen=True)
class SignAssignment:
    """Signs chosen for pivot words; the failing evidence on the invalid side."""

    signs: tuple[tuple[ReducedWord, int], ...]


@dataclass(frozen=True)
class BoundsReport:
    """Search limits that were exhausted without a refutation."""

    conjugator_bound: int


# the pivots a sign search branches on, which a SignAssignment signs


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
    words: Iterable[ReducedWord], most: float = inf, budget: float = inf
) -> tuple[ReducedWord, ...]:
    """One representative per inverse pair of cis(words): the ShortLex
    smaller one, in ShortLex order.  The walk stops once it has found more
    than ``most`` of them, and raises BudgetExceeded once the initial
    subterms and the pairs it formed hold more than ``budget`` letters."""
    words = tuple(words)
    # the initial subterms are charged before they are built
    budget -= sum(len(w) * (len(w) + 1) // 2 for w in words)
    if budget < 0:
        raise BudgetExceeded
    reps: set[tuple[int, ...]] = set()
    for pair in _inverse_pairs(words):
        budget -= 2 * len(pair[0])
        if budget < 0:
            raise BudgetExceeded
        reps.add(min(pair))
        if len(reps) > most:
            break
    return tuple(_unrank(r) for r in sorted(reps, key=lambda r: (len(r), r)))


def _ball_exceeds(arity: int, radius: int, limit: int) -> bool:
    """Whether more than ``limit`` nonidentity reduced words have length at
    most ``radius``; 2k(2k-1)^(n-1) of them have length n >= 1."""
    if arity < 2:
        return 2 * arity * radius > limit
    total, layer = 0, 2 * arity
    for _ in range(radius):
        total += layer
        if total > limit:
            return True
        layer *= 2 * arity - 1
    return False


# the work close_within may do for a check, so that a short file cannot
# make it build a large ball: a product formed costs a unit per letter and
# one more, and a word kept KEEP_COST more, for the memory it holds.  The
# search's cones at level 8 over two generators cost some 4,300,000
CLOSURE_BUDGET = 1 << 23
KEEP_COST = 32

# the letters sign_pivots may form for a check, so that a short file cannot
# make it sign the many long pivots of a long word: each initial subterm
# and each inverse pair costs its letters.  The search's hm witnesses cost
# at most 973 on hard-search and 7,054 on seeded random sets of three to
# five words of length up to 8; one random word of 90 letters costs about
# 255,000
PIVOT_BUDGET = 1 << 18


class BudgetExceeded(Exception):
    """A check needs more work than its budget."""


def close_within(
    level: int, generators: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]] | None:
    """The least set of letter tuples that holds the generators, all within
    the level, and is closed under the products within it; None when a
    product reaches the identity.  Each word is indexed when it is taken
    from the queue and multiplied then, on either side, by itself and by
    every word taken before it, so each product is formed once.  Raises
    BudgetExceeded once the products formed and the words kept cost more
    than CLOSURE_BUDGET.  It shares no code with the search's cone."""
    budget = CLOSURE_BUDGET
    queue = list(dict.fromkeys(generators))
    present = set(queue)
    index = freegroup.CancellationIndex(level)
    taken, splice = index.words, freegroup.splice
    while queue:
        w = queue.pop()
        products = [splice(taken[i], w) for i in index.left_factors(w)]
        index.add(w)
        products += [splice(w, taken[i]) for i in index.right_factors(w)]
        budget -= len(products) + sum(map(len, products))
        for p in products:
            if not p:
                return None
            if len(p) <= level and p not in present:
                budget -= KEEP_COST
                present.add(p)
                queue.append(p)
        if budget < 0:
            raise BudgetExceeded
    return taken


@dataclass(frozen=True)
class TruncatedRightOrder:
    """Positive-cone fragment: product-closed within the ball and total below it.

    The cone is generated: the closure within the level of the ``words``
    it orders positive and of ``generators``, the signed pivots of the
    search's open path.
    """

    arity: int
    level: int
    words: tuple[ReducedWord, ...]
    generators: tuple[ReducedWord, ...]

    def violations(self) -> list[str]:
        issues = []
        for name, group in (("word", self.words), ("generator", self.generators)):
            for w in group:
                text = freegroup.word_to_text(w)
                if w.is_identity:
                    issues.append(f"{name} e is the identity")
                if len(w) > self.level:
                    issues.append(f"{name} {text} exceeds level")
                if w.max_generator() > self.arity:
                    issues.append(f"{name} {text} exceeds arity")
        # the search truncates at the longest word, and a higher level
        # would have the check close and count a larger ball than it did
        if self.level != max(map(len, self.words), default=0):
            issues.append("level is not the length of the longest word")
        if issues:
            return issues
        generators = self.words + self.generators
        try:
            cone = close_within(self.level, (w.letters for w in generators))
        except BudgetExceeded:
            return ["the cone costs more than the check's budget to close"]
        if cone is None:
            return ["the generators reach the identity within the level"]
        # a cone that misses e holds no word with its inverse, since their
        # product e is formed, so it signs every word below the level
        # exactly when it holds half of them
        below = sum(len(u) < self.level for u in cone)
        if _ball_exceeds(self.arity, self.level - 1, 2 * below):
            return ["the cone leaves words below the level unsigned"]
        return []

    def verify(self) -> bool:
        return not self.violations()


def _minimal_automaton(words: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    """The generators' prefix automaton with every two prefix states of the
    same right language merged, the minimal acyclic automaton of Revuz,
    *Minimisation of acyclic deterministic automata in linear time* (TCS,
    1992): per state, each letter's targets as a bitset, the base 0 first.

    The prefix automaton has one state [P] per distinct proper nonempty
    prefix P besides the base, and a generator ``a1…an`` runs ``0 -a1->
    [a1] -a2-> … -an-> 0``, so a walk that leaves the base and first
    returns to it reads one generator.  The right language of P is the set
    of suffixes S with PS a generator.  In the trie of the proper
    prefixes, a step from P by c returns to the base when Pc is a
    generator and continues to [Pc] when Pc is a proper prefix, both when
    it is both; so the steps out of P, with the merged state each
    continues to, determine P's right language, and one pass from the
    trie's leaves up registers each state by them.  Merged, the first
    returns still read exactly the generators, and the base is merged
    with nothing, since no finite language is its own right language
    under a nonempty prefix.
    """
    # per trie node, each letter's [continuing node or 0, returns to base];
    # a node is numbered after its parent
    steps: list[dict[int, list]] = [{}]
    for letters in words:
        node = 0
        for code in letters[:-1]:
            step = steps[node].setdefault(code, [0, False])
            if not step[0]:
                step[0] = len(steps)
                steps.append({})
            node = step[0]
        steps[node].setdefault(letters[-1], [0, False])[1] = True
    # children first, so each signature names merged states only
    state = [0] * len(steps)
    register: dict[frozenset, int] = {}
    for node in range(len(steps) - 1, 0, -1):
        signature = frozenset(
            (code, state[child], final) for code, (child, final) in steps[node].items()
        )
        state[node] = register.setdefault(signature, len(register) + 1)
    outs: list[dict[int, int]] = [{} for _ in range(len(register) + 1)]
    for node, table in enumerate(steps):
        out = outs[state[node]]
        if not out:
            for code, (child, final) in table.items():
                out[code] = (1 << state[child] if child else 0) | final
    return outs


def reaches_identity(words: Iterable[ReducedWord]) -> bool:
    """Decide e in the subsemigroup generated by ``words``, keeping no
    provenance: one pair closure, to fixpoint or to the pair (0, 0), of
    the generators' minimal automaton, whose base-to-base walks read
    exactly their products.  A pair (p, s) is added when a letter step, a
    stretch (empty, or a pair) and the inverse letter step connect p to
    s, and when pairs (p, q) and (q, s) meet, so each pair attests a
    nonempty freely-trivial walk.  It shares no code with the search's
    ``membership.IdentityClosure``, so a check through it trusts no search.
    """
    gens = [w.letters for w in words]
    if not all(gens):
        return True
    outs = _minimal_automaton(gens)
    n_states = len(outs)
    # ins[q] holds, per letter, the states with a transition by it into q
    ins: list[dict[int, int]] = [{} for _ in range(n_states)]
    for p, out in enumerate(outs):
        for code, targets in out.items():
            while targets:
                low = targets & -targets
                into = ins[low.bit_length() - 1]
                into[code] = into.get(code, 0) | 1 << p
                targets ^= low
    # ends[p] holds every s with a pair (p, s), starts[s] every such p
    ends = [0] * n_states
    starts = [0] * n_states
    # a pair (q, q) stands for the empty stretch at q: its WRAP step is
    # the DIRECT rule, and its CONCAT steps add nothing
    queue = [(q, q) for q in range(n_states)]

    def pairs_from(p: int, extra: int) -> None:
        """Add the pairs (p, s) for s in extra, none of them present."""
        ends[p] |= extra
        bit = 1 << p
        while extra:
            low = extra & -extra
            s = low.bit_length() - 1
            extra ^= low
            starts[s] |= bit
            queue.append((p, s))

    def pairs_into(extra: int, s: int) -> None:
        """Add the pairs (p, s) for p in extra, none of them present."""
        starts[s] |= extra
        bit = 1 << s
        while extra:
            low = extra & -extra
            p = low.bit_length() - 1
            extra ^= low
            ends[p] |= bit
            queue.append((p, s))

    while queue and not ends[0] & 1:
        q, r = queue.pop()
        # WRAP: p -c-> q, the stretch (q, r), then r -c'-> s
        out_r = outs[r]
        for code, sources in ins[q].items():
            targets = out_r.get(-code)
            if not targets:
                continue
            while sources:
                low = sources & -sources
                p = low.bit_length() - 1
                sources ^= low
                extra = targets & ~ends[p]
                if extra:
                    pairs_from(p, extra)
        # CONCAT: (q, r) then (r, s), and (p, q) then (q, r)
        extra = ends[r] & ~ends[q]
        if extra:
            pairs_from(q, extra)
        extra = starts[q] & ~starts[r]
        if extra:
            pairs_into(extra, r)
    return bool(ends[0] & 1)


def verify_sign_assignment(words: tuple[ReducedWord, ...], signs: str) -> str | None:
    """Check a failed right-order extension; None means it verifies: it
    holds one + or - for each pivot the search branches on,
    sign_pivots(words), in order, and the words with the signed pivots do
    not reach the identity.  The pivots are walked out within PIVOT_BUDGET,
    and no further than one past the signs."""
    if not set(signs) <= {"+", "-"}:
        return "every sign must be + or -"
    try:
        pivots = sign_pivots(words, len(signs), PIVOT_BUDGET)
    except BudgetExceeded:
        return "the pivots cost more than the check's budget to form"
    if len(pivots) != len(signs):
        return "there must be one sign for each pivot of cis(words)"
    signed = tuple(
        freegroup.signed(p, 1 if s == "+" else -1) for p, s in zip(pivots, signs)
    )
    found = reaches_identity(words + signed)
    return "signed generators reach the identity" if found else None


def verify_refutation_tree(
    words: tuple[ReducedWord, ...],
    tree: RefutationTree,
    conjugate: bool = False,
) -> str | None:
    """Check leaf products and pivot sanity; None means the tree verifies.

    ``words`` is the root generator list; leaf entries index it followed
    by the signed pivots along the path.  Only a tree for the total-order
    calculus (``conjugate``) may conjugate them by words other than e.
    """
    return freegroup.unwind(_walk(words, conjugate, tree, ()))


def _walk(
    words: tuple[ReducedWord, ...],
    conjugate: bool,
    node: RefutationTree,
    path: tuple[tuple[ReducedWord, int], ...],
) -> Pass:
    """The first fault below node, reached along path; see verify_refutation_tree."""
    if isinstance(node, RefutationBranch):
        if node.pivot.is_identity:
            return "branch pivot is the identity"
        positive = path + ((node.pivot, 1),)
        err = yield _walk(words, conjugate, node.positive, positive)
        if err is not None:
            return err
        negative = path + ((node.pivot, -1),)
        return (yield _walk(words, conjugate, node.negative, negative))
    generators = words + tuple(freegroup.signed(p, s) for p, s in path)
    entries = node.witness.entries
    if any(not 0 <= e.base < len(generators) for e in entries):
        return "factor index out of range"
    if not conjugate and any(not e.conjugator.is_identity for e in entries):
        return "right-order leaves take no conjugators"
    if not node.witness.product(generators).is_identity:
        return "leaf product does not reduce to the identity"
    return None
