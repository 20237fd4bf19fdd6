"""Membership of the identity in finitely generated subsemigroups of F(k).

The generators are laid out as a flower automaton (one literal-labelled
cycle per generator through a shared base state).  Saturation adds an
epsilon pair (p, s) whenever a literal step, an epsilon stretch, and the
inverse literal step connect p to s; every pair therefore attests a
nonempty freely-trivial walk.  The identity lies in the subsemigroup
exactly when a pair connects the base state to itself, and replaying the
provenance of that pair yields an explicit factorization.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from . import freegroup
from .freegroup import Pass, ReducedWord
from .witnesses import Factorization

_DIRECT, _WRAP, _CONCAT = 0, 1, 2


class WordAutomaton:
    """Flower automaton over a generator list, with epsilon-pair bookkeeping."""

    def __init__(self, words: Sequence[ReducedWord]):
        for i, w in enumerate(words):
            if w.is_identity:
                raise ValueError(f"generator {i} is the empty word")
        self.words = tuple(words)
        self.base = 0
        sources: list[int] = []
        letters: list[int] = []
        targets: list[int] = []
        petal: list[tuple[int, int]] = []
        n_states = 1
        for i, w in enumerate(words):
            prev = self.base
            for j, code in enumerate(w.letters):
                nxt = self.base if j == len(w) - 1 else n_states
                if nxt != self.base:
                    n_states += 1
                sources.append(prev)
                letters.append(code)
                targets.append(nxt)
                petal.append((i, j))
                prev = nxt
        self.n_states = n_states
        self.sources = tuple(sources)
        self.letters = tuple(letters)
        self.targets = tuple(targets)
        self.petal = tuple(petal)
        self.trans_in: list[list[int]] = [[] for _ in range(n_states)]
        self.out_by_letter: list[dict[int, list[int]]] = [dict() for _ in range(n_states)]
        for tid in range(len(sources)):
            self.trans_in[targets[tid]].append(tid)
            self.out_by_letter[sources[tid]].setdefault(letters[tid], []).append(tid)
        # epsilon[(p, q)] = provenance; insertion order keeps replay well-founded
        self.epsilon: dict[tuple[int, int], tuple] = {}
        self._by_first: dict[int, list[int]] = {}
        self._by_second: dict[int, list[int]] = {}

    def epsilon_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.epsilon)

    def _add(self, pair: tuple[int, int], provenance: tuple, queue: deque) -> None:
        if pair in self.epsilon:
            return
        self.epsilon[pair] = provenance
        self._by_first.setdefault(pair[0], []).append(pair[1])
        self._by_second.setdefault(pair[1], []).append(pair[0])
        queue.append(pair)

    def saturate(self, stop_pair: tuple[int, int] | None = None) -> "WordAutomaton":
        """Run the pair closure to fixpoint (or until stop_pair appears)."""
        queue: deque[tuple[int, int]] = deque()
        for q in range(self.n_states):
            for t1 in self.trans_in[q]:
                for t2 in self.out_by_letter[q].get(-self.letters[t1], ()):
                    self._add(
                        (self.sources[t1], self.targets[t2]), (_DIRECT, t1, t2), queue
                    )
        while queue:
            if stop_pair is not None and stop_pair in self.epsilon:
                return self
            q, r = queue.popleft()
            for t1 in self.trans_in[q]:
                for t2 in self.out_by_letter[r].get(-self.letters[t1], ()):
                    self._add(
                        (self.sources[t1], self.targets[t2]),
                        (_WRAP, t1, (q, r), t2),
                        queue,
                    )
            for u in tuple(self._by_first.get(r, ())):
                self._add((q, u), (_CONCAT, (q, r), (r, u)), queue)
            for p in tuple(self._by_second.get(q, ())):
                self._add((p, r), (_CONCAT, (p, q), (q, r)), queue)
        return self

    def expand_pair(self, pair: tuple[int, int]) -> list[int]:
        """Replay provenance records into the underlying transition walk."""
        memo: dict[tuple[int, int], list[int]] = {}

        def expand(current: tuple[int, int]) -> Pass:
            if current not in memo:
                prov = self.epsilon[current]
                if prov[0] == _DIRECT:
                    memo[current] = [prov[1], prov[2]]
                elif prov[0] == _WRAP:
                    memo[current] = [prov[1], *(yield expand(prov[2])), prov[3]]
                else:
                    memo[current] = (yield expand(prov[1])) + (yield expand(prov[2]))
            return memo[current]

        return freegroup.unwind(expand(pair))

    def walk_factors(self, walk: Sequence[int]) -> list[int]:
        """Read generator indices off a closed base walk (one per full cycle)."""
        state = self.base
        factors: list[int] = []
        for tid in walk:
            if self.sources[tid] != state:
                raise AssertionError("walk is not path-consistent")
            word_index, position = self.petal[tid]
            if position == 0:
                factors.append(word_index)
            state = self.targets[tid]
        if state != self.base:
            raise AssertionError("walk does not return to the base state")
        return factors


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
    if not gens:
        return False, None
    automaton = WordAutomaton(gens)
    target = (automaton.base, automaton.base)
    automaton.saturate(stop_pair=target)
    if target not in automaton.epsilon:
        return False, None
    walk = automaton.expand_pair(target)
    factors = automaton.walk_factors(walk)
    witness = Factorization(tuple(factors))
    if not witness.product(gens).is_identity:
        raise AssertionError("extracted factorization does not cancel")
    return True, witness


def identity_products_upto(
    words: Sequence[ReducedWord], max_factors: int
) -> Factorization | None:
    """Bounded brute-force reference: search products of at most max_factors."""
    gens = tuple(words)
    frontier: list[tuple[ReducedWord, tuple[int, ...]]] = [(freegroup.IDENTITY, ())]
    for _ in range(max_factors):
        nxt = []
        for value, path in frontier:
            for i, w in enumerate(gens):
                prod = freegroup.mul(value, w)
                if prod.is_identity:
                    return Factorization(path + (i,))
                nxt.append((prod, path + (i,)))
        frontier = nxt
    return None
