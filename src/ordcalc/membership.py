"""Membership of the identity in finitely generated subsemigroups of F(k).

The generators are laid out on their prefixes: besides a base state there
is one state per distinct proper nonempty prefix, and a generator
``a1…an`` runs from the base through the states of its prefixes back to
the base, one literal-labelled transition per letter, shared with every
generator that takes the same step.  A walk that leaves the base and
first returns to it reads exactly one generator's letters, so the
base-to-base walks read exactly the products of the generators.
Saturation adds an epsilon pair (p, s) whenever a literal step, an
epsilon stretch, and the inverse literal step connect p to s; every pair
therefore attests a nonempty freely-trivial walk.  The identity lies in
the subsemigroup exactly when a pair connects the base state to itself.

Two engines read this layout, both for the searches; no certificate check
loads this module.  ``IdentityClosure``, the growable closure the sign
searches carry, only holds words and decides; which words it grows is the
search's choice.  ``WordAutomaton`` keeps the provenance of each pair,
whose replay yields an explicit factorization of a leaf.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from . import freegroup
from .freegroup import Pass, ReducedWord
from .witnesses import Factorization

_DIRECT, _WRAP, _CONCAT = 0, 1, 2


class WordAutomaton:
    """The generators' prefix automaton (see the module docstring), with
    epsilon-pair bookkeeping."""

    def __init__(self, words: Sequence[ReducedWord]):
        for i, w in enumerate(words):
            if w.is_identity:
                raise ValueError(f"generator {i} is the empty word")
        self.words = tuple(words)
        self.base = 0
        # the first generator with each letter tuple, the state of each
        # proper prefix by its parent and last letter, and the transitions
        # in the order they first appear
        self.first: dict[tuple[int, ...], int] = {}
        prefixes: dict[tuple[int, int], int] = {}
        transitions: dict[tuple[int, int, int], None] = {}
        for i, w in enumerate(self.words):
            if w.letters in self.first:
                continue
            self.first[w.letters] = i
            prev = self.base
            for code in w.letters[:-1]:
                nxt = prefixes.setdefault((prev, code), len(prefixes) + 1)
                transitions[prev, code, nxt] = None
                prev = nxt
            transitions[prev, w.letters[-1], self.base] = None
        n_states = self.n_states = len(prefixes) + 1
        self.sources = tuple(p for p, _, _ in transitions)
        self.letters = tuple(code for _, code, _ in transitions)
        self.targets = tuple(q for _, _, q in transitions)
        self.trans_in: list[list[int]] = [[] for _ in range(n_states)]
        self.out_by_letter: list[dict[int, list[int]]] = [dict() for _ in range(n_states)]
        for tid, (p, code, q) in enumerate(transitions):
            self.trans_in[q].append(tid)
            self.out_by_letter[p].setdefault(code, []).append(tid)
        # epsilon[(p, q)] = provenance; insertion order keeps replay well-founded
        self.epsilon: dict[tuple[int, int], tuple] = {}
        # the pairs by state, in order and as bitsets: succ[p] has q, pred[q] p
        self._by_first: list[list[int]] = [[] for _ in range(n_states)]
        self._by_second: list[list[int]] = [[] for _ in range(n_states)]
        self._succ = [0] * n_states
        self._pred = [0] * n_states

    def _add(self, pair: tuple[int, int], provenance: tuple, queue: deque) -> None:
        p, q = pair
        if self._succ[p] >> q & 1:
            return
        self._succ[p] |= 1 << q
        self._pred[q] |= 1 << p
        self.epsilon[pair] = provenance
        self._by_first[p].append(q)
        self._by_second[q].append(p)
        queue.append(pair)

    def saturate(self) -> "WordAutomaton":
        """Run the pair closure to fixpoint, or until (base, base) appears."""
        target = (self.base, self.base)
        queue: deque[tuple[int, int]] = deque()
        for q in range(self.n_states):
            for t1 in self.trans_in[q]:
                for t2 in self.out_by_letter[q].get(-self.letters[t1], ()):
                    self._add(
                        (self.sources[t1], self.targets[t2]), (_DIRECT, t1, t2), queue
                    )
        while queue:
            if target in self.epsilon:
                return self
            q, r = queue.popleft()
            for t1 in self.trans_in[q]:
                for t2 in self.out_by_letter[r].get(-self.letters[t1], ()):
                    self._add(
                        (self.sources[t1], self.targets[t2]),
                        (_WRAP, t1, (q, r), t2),
                        queue,
                    )
            # the pairs each CONCAT loop adds: none when q == r
            fresh = self._succ[r] & ~self._succ[q]
            if fresh:
                for u in self._by_first[r]:
                    if fresh >> u & 1:
                        self._add((q, u), (_CONCAT, (q, r), (r, u)), queue)
            fresh = self._pred[q] & ~self._pred[r]
            if fresh:
                for p in self._by_second[q]:
                    if fresh >> p & 1:
                        self._add((p, r), (_CONCAT, (p, q), (q, r)), queue)
        return self

    def expand_pair(self, pair: tuple[int, int]) -> list[int]:
        """Replay provenance records into the underlying transition walk."""
        return freegroup.unwind(self._expand(pair, {}))

    def _expand(self, current: tuple[int, int], memo: dict) -> Pass:
        """The transition walk of one pair; see expand_pair."""
        if current not in memo:
            prov = self.epsilon[current]
            if prov[0] == _DIRECT:
                memo[current] = [prov[1], prov[2]]
            elif prov[0] == _WRAP:
                memo[current] = [prov[1], *(yield self._expand(prov[2], memo)), prov[3]]
            else:
                first = yield self._expand(prov[1], memo)
                memo[current] = first + (yield self._expand(prov[2], memo))
        return memo[current]

    def walk_factors(self, walk: Sequence[int]) -> list[int]:
        """Read generator indices off a closed base walk: each stretch from
        the base back to it reads one generator's letters, and names the
        first generator with them."""
        state = self.base
        factors: list[int] = []
        read: list[int] = []
        for tid in walk:
            if self.sources[tid] != state:
                raise AssertionError("walk is not path-consistent")
            read.append(self.letters[tid])
            state = self.targets[tid]
            if state == self.base:
                factors.append(self.first[tuple(read)])
                read.clear()
        if state != self.base:
            raise AssertionError("walk does not return to the base state")
        return factors


class IdentityClosure:
    """Growable pair closure of the generators' prefix automaton that only
    decides whether the identity is reached; no provenance is kept.

    The layout is the module's over the words grown so far, base 0 and
    [P] the state of a prefix P, as in ``WordAutomaton``: a partial
    Stallings fold of the flower automaton (Stallings, *Topology of finite
    graphs*, 1983).  So the one state other than 0 past [P] by a letter c
    is [Pc], and [Pc] is entered from [P] alone.

    The pairs are per-state int bitsets: ``succ[q]`` holds every r with a
    pair (q, r) and ``pred[r]`` every such q, so CONCAT takes one mask per
    side, and WRAP reads the transitions per letter as bitsets of their
    sources (into a state) or targets (out of a state).  Per letter, one
    bitset holds the states that a transition by it leaves and one those
    that it enters.  ``grow`` adds the transitions of the new generators
    that are not already present and resumes the closure from those only:
    a new transition p -c-> q is either the first step of a walk that
    returns by a c' transition leaving {q} | succ[q], or the last step of
    a walk that starts by a c' transition entering {p} | pred[p], and the
    letter bitsets of c' pick those states out; every other new pair
    follows from new pairs.  Each rule is applied only where it adds a
    pair.  Between grows the closure is at fixpoint, or has reached the
    identity, the pair (0, 0), which the empty word sets; so ``holds``
    reads membership of a word off the pairs, and a sign search asks it
    which words to grow at all.  Each grow first pushes a snapshot: copies
    of the state lists and letter bitsets, which share the states'
    transition tables; so ``grow`` never edits a table in place but
    replaces it with an extended copy, and ``rollback`` restores the last
    snapshot whole.  This is Dyck (CFL) reachability, as in Reps, *Program
    analysis via graph reachability* (1998).  Certificate checks answer
    through ``witnesses.reaches_identity``, which shares no code with it.
    """

    def __init__(self) -> None:
        self._succ: list[int] = [0]
        self._pred: list[int] = [0]
        self._in: list[dict[int, int]] = [{}]
        self._out: list[dict[int, int]] = [{}]
        # per letter, the states a transition by it leaves and enters
        self._leaving: dict[int, int] = {}
        self._entering: dict[int, int] = {}
        # the state before each grow not rolled back
        self._marks: list[tuple] = []

    @property
    def reached(self) -> bool:
        """Whether the identity is reached: the pair (0, 0) is present."""
        return bool(self._succ[0] & 1)

    def holds(self, letters: Sequence[int]) -> bool:
        """Whether the nonempty reduced word with these letters is a product
        of the generators, exact while the identity is not reached: a walk
        reads it exactly when it is an epsilon stretch, its first letter, a
        stretch, and so on to its last letter and a stretch."""
        succ, outs, leaving = self._succ, self._out, self._leaving
        states = 1 | succ[0]
        for code in letters:
            stretch = states & leaving.get(code, 0)
            states = 0
            while stretch:
                low = stretch & -stretch
                states |= outs[low.bit_length() - 1][code]
                stretch ^= low
            # succ is transitive at fixpoint, so one pass closes the states
            stretch = states
            while stretch:
                low = stretch & -stretch
                states |= succ[low.bit_length() - 1]
                stretch ^= low
            if not states:
                return False
        return bool(states & 1)

    def grow(self, words: Iterable[ReducedWord]) -> bool:
        """Add the words as generators; True when the identity is reached."""
        succ, pred, ins, outs = self._succ, self._pred, self._in, self._out
        leaving, entering = self._leaving, self._entering
        # the snapshot shares each state's transition tables, so below a
        # table is replaced by an extended copy, never edited in place
        self._marks.append((list(succ), list(pred), list(ins), list(outs),
                            dict(leaving), dict(entering)))
        new: list[tuple[int, int, int]] = []
        for w in words:
            letters = w.letters
            if not letters:  # the empty word is the pair (0, 0)
                succ[0] |= 1
                pred[0] |= 1
            prev = 0
            for j, code in enumerate(letters, 1):
                # past prev by code lie at most the base and the one state
                # whose prefix extends prev's by code
                targets = outs[prev].get(code, 0)
                if j == len(letters):
                    nxt = 0
                elif not targets >> 1:
                    nxt = len(succ)
                    succ.append(0)
                    pred.append(0)
                    ins.append({})
                    outs.append({})
                else:
                    nxt = (targets >> 1).bit_length()
                if not targets >> nxt & 1:
                    outs[prev] = {**outs[prev], code: targets | 1 << nxt}
                    ins[nxt] = {**ins[nxt], code: ins[nxt].get(code, 0) | 1 << prev}
                    leaving[code] = leaving.get(code, 0) | 1 << prev
                    entering[code] = entering.get(code, 0) | 1 << nxt
                    new.append((prev, code, nxt))
                prev = nxt

        queue: list[tuple[int, int]] = []

        def link(p: int, fresh: int) -> None:
            """Add the pairs (p, u) for u in fresh, none of them present."""
            succ[p] |= fresh
            bit = 1 << p
            while fresh:
                low = fresh & -fresh
                u = low.bit_length() - 1
                fresh ^= low
                pred[u] |= bit
                queue.append((p, u))

        def link_back(fresh: int, r: int) -> None:
            """Add the pairs (p, r) for p in fresh, none of them present."""
            pred[r] |= fresh
            bit = 1 << r
            while fresh:
                low = fresh & -fresh
                p = low.bit_length() - 1
                fresh ^= low
                succ[p] |= bit
                queue.append((p, r))

        for p, code, q in new:
            # p -code-> q as the first step, back out of r by the inverse
            stretch = (1 << q | succ[q]) & leaving.get(-code, 0)
            while stretch:
                low = stretch & -stretch
                fresh = outs[low.bit_length() - 1][-code] & ~succ[p]
                if fresh:
                    link(p, fresh)
                stretch ^= low
            # p -code-> q as the last step, entered at r by the inverse
            stretch = (1 << p | pred[p]) & entering.get(-code, 0)
            while stretch:
                low = stretch & -stretch
                fresh = ins[low.bit_length() - 1][-code] & ~pred[q]
                if fresh:
                    link_back(fresh, q)
                stretch ^= low
        while queue and not succ[0] & 1:
            q, r = queue.pop()
            out_r = outs[r]
            for code, sources in ins[q].items():
                targets = out_r.get(-code)
                if targets:
                    while sources:
                        low = sources & -sources
                        p = low.bit_length() - 1
                        fresh = targets & ~succ[p]
                        if fresh:
                            link(p, fresh)
                        sources ^= low
            fresh = succ[r] & ~succ[q]
            if fresh:
                link(q, fresh)
            fresh = pred[q] & ~pred[r]
            if fresh:
                link_back(fresh, r)
        return self.reached

    def rollback(self) -> None:
        """Undo the last grow."""
        (self._succ, self._pred, self._in, self._out,
         self._leaving, self._entering) = self._marks.pop()


def contains_identity(
    words: Iterable[ReducedWord],
) -> tuple[bool, Factorization | None]:
    """Decide e in the subsemigroup generated by ``words`` (nonempty products).

    On success the factorization indexes the input list and multiplies to
    the identity exactly.
    """
    gens = tuple(words)
    for i, w in enumerate(gens):
        if w.is_identity:
            return True, Factorization((i,))
    automaton = WordAutomaton(gens).saturate()
    target = (automaton.base, automaton.base)
    if target not in automaton.epsilon:
        return False, None
    walk = automaton.expand_pair(target)
    factors = automaton.walk_factors(walk)
    witness = Factorization(tuple(factors))
    if not witness.product(gens).is_identity:
        raise AssertionError("extracted factorization does not cancel")
    return True, witness
