"""Witness objects exchanged between the decision procedures and the proof layer.

Everything here is a plain value with an explicit verifier, so emitted
certificates can be re-checked independently of the search that found them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    pivots: tuple[ReducedWord, ...]


# the pivots a sign search branches on: a SignAssignment signs them, and a
# BoundsReport lists them


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


def sign_pivots(words: Iterable[ReducedWord]) -> tuple[ReducedWord, ...]:
    """One representative per inverse pair of cis(words): the ShortLex
    smaller one, in ShortLex order."""
    reps = {min(pair) for pair in _inverse_pairs(words)}
    return tuple(_unrank(r) for r in sorted(reps, key=lambda r: (len(r), r)))


def lists_sign_pivots(pivots: Iterable[ReducedWord], words) -> bool:
    """Whether ``pivots`` is exactly sign_pivots(words), found without
    building it: the list must be strictly ShortLex increasing, hold the
    representative of every inverse pair (the walk stops at the first it
    lacks) and hold no other word."""
    keys = [(len(r), r) for r in map(_ranks, pivots)]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    listed = {r for _, r in keys}
    found = set()
    for pair in _inverse_pairs(words):
        rep = min(pair)
        if rep not in listed:
            return False
        found.add(rep)
    return len(found) == len(listed)


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


@dataclass(frozen=True)
class TruncatedRightOrder:
    """Positive-cone fragment: product-closed within the ball and total below it."""

    arity: int
    level: int
    elements: frozenset[ReducedWord]

    def violations(self) -> list[str]:
        issues = []
        elems = self.elements
        if freegroup.IDENTITY in elems:
            issues.append("identity is in the cone")
        for w in elems:
            if len(w) > self.level:
                issues.append(f"element {freegroup.word_to_text(w)} exceeds level")
            if w.max_generator() > self.arity:
                issues.append(f"element {freegroup.word_to_text(w)} exceeds arity")
        # only the pairs the index finds can multiply to a word within the
        # level; they are visited in the order of the elements, as letters
        words = [w.letters for w in elems]
        present, index = set(words), freegroup.CancellationIndex(self.level, words)
        for s in words:
            for position in index.right_factors(s):
                t = words[position]
                st = freegroup.splice(s, t)
                if len(st) <= self.level and st not in present:
                    issues.append(
                        "closure gap: %s * %s"
                        % (freegroup.word_to_text(s), freegroup.word_to_text(t))
                    )
        # a genuine witness signs every nonidentity word of the ball below
        # the level, so it lists at least half of them; count before building
        if _ball_exceeds(self.arity, self.level - 1, 2 * len(elems)):
            issues.append("too few elements to sign every word below the level")
            return issues
        # the identity leads the ball and takes no sign
        for w in freegroup.ball(self.arity, self.level - 1)[1:]:
            if w.letters not in present and freegroup.bar(w.letters) not in present:
                issues.append(f"undetermined element {freegroup.word_to_text(w)}")
        return issues

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


def verify_sign_assignment(
    words: tuple[ReducedWord, ...], signs: Sequence[tuple[ReducedWord, int]]
) -> str | None:
    """Check a failed right-order extension; None means it verifies: it
    signs every pivot the search branches on, sign_pivots(words), and no
    other, in order, each by 1 or -1, and the words with the signed pivots
    do not reach the identity."""
    if not lists_sign_pivots((p for p, _ in signs), words):
        return "pivots are not the representatives of cis(words)"
    if any(s not in (1, -1) for _, s in signs):
        return "every sign must be 1 or -1"
    signed = tuple(freegroup.signed(p, s) for p, s in signs)
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
