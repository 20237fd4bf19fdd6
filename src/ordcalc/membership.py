"""Membership of the identity in finitely generated subsemigroups of F(k).

Both engines here lay the generators out as an automaton with a base
state, in which a walk that leaves the base and first returns to it
reads exactly one generator's letters, so the base-to-base walks read
exactly the products of the generators.  Saturation adds an epsilon pair
(p, s) whenever a literal step, an epsilon stretch, and the inverse
literal step connect p to s, or two pairs meet; every pair therefore
attests a nonempty freely-trivial walk.  The identity lies in the
subsemigroup exactly when a pair connects the base state to itself.

Two engines, both for the searches; no certificate check loads this
module.  ``IdentityClosure``, the growable closure the sign searches
carry, lays the generators out on their prefixes, only holds words and
decides; which words it grows is the search's choice.  ``WordAutomaton``
factors a refutation leaf: it saturates the generators' minimal
automaton cheapest first and keeps the provenance of each pair, whose
replay yields a factorization of the identity with the fewest factors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import freegroup
from .freegroup import Pass, ReducedWord
from .witnesses import Factorization, _minimal_automaton

_DIRECT, _WRAP, _CONCAT = 0, 1, 2


def _bits(mask: int):
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WordAutomaton:
    """The generators' minimal automaton (``witnesses._minimal_automaton``),
    saturated cheapest first.

    A pair's cost is the number of base returns on its walk, so the cost
    of (base, base) is the number of factors its walk reads, and every
    rule adds the returns of its steps to the costs of its pairs: Knuth's
    generalization of Dijkstra's algorithm (*A generalization of
    Dijkstra's algorithm*, IPL, 1977) finds each pair at its least cost
    when the pairs are taken cheapest first and a rule fires only on pairs
    taken.  Here the costs are taken level by level, on per-state bitsets.
    A WRAP or DIRECT step adds 0, 1 or 2 returns to its stretch's, so it
    files its pairs at that level, or takes them at the current one;
    CONCAT joins two pairs of a and b returns at level a + b, when that
    level starts if both are positive, and as the pairs are taken
    otherwise.  A pair is taken once, at its least cost, and its
    provenance is the step that took it, which refers to pairs taken
    before, so its replay is well-founded and reads a walk with the fewest
    returns.  Among walks of one cost, short ones come first: each filed
    pair keeps the fewest letters filed for it, and a level takes its
    filed pairs by their letters before any other.  The states are
    numbered in the order the generators first reach them, so that ties
    go to the earlier generators.
    """

    def __init__(self, words: Sequence[ReducedWord]):
        for i, w in enumerate(words):
            if w.is_identity:
                raise ValueError(f"generator {i} is the empty word")
        self.words = tuple(words)
        self.base = 0
        # the first generator with each letter tuple, whose index names it
        self.first: dict[tuple[int, ...], int] = {}
        for i, w in enumerate(self.words):
            self.first.setdefault(w.letters, i)
        merged = _minimal_automaton(self.first)
        # a merged state's transitions by a letter reach the base, one
        # other state, or both
        number = {0: 0}
        for letters in self.first:
            state = 0
            for code in letters[:-1]:
                state = (merged[state][code] >> 1).bit_length()
                number.setdefault(state, len(number))
        n_states = self.n_states = len(merged)
        self._outs: list[dict[int, int]] = [{} for _ in range(n_states)]
        for state, out in enumerate(merged):
            self._outs[number[state]] = {
                code: targets & 1 | (1 << number[(targets >> 1).bit_length()] if targets >> 1 else 0)
                for code, targets in out.items()
            }
        # per state and letter, the sources of its transitions in by it
        self._ins: list[dict[int, int]] = [{} for _ in range(n_states)]
        steps = [
            (p, code, q)
            for p, out in enumerate(self._outs)
            for code, targets in out.items()
            for q in _bits(targets)
        ]
        for p, code, q in steps:
            into = self._ins[q]
            into[code] = into.get(code, 0) | 1 << p
        self._transition = {step: tid for tid, step in enumerate(steps)}
        self.sources = tuple(p for p, _, _ in steps)
        self.letters = tuple(code for _, code, _ in steps)
        self.targets = tuple(q for _, _, q in steps)
        # epsilon[(p, q)]: the provenance of each pair taken
        self.epsilon: dict[tuple[int, int], tuple] = {}

    def saturate(self) -> "WordAutomaton":
        """Take the pairs cheapest first, to fixpoint or until (base, base)
        is taken."""
        n, base, epsilon = self.n_states, self.base, self.epsilon
        ins, outs = self._ins, self._outs
        # the pairs taken, by first state and by second, and by returns:
        # rows and columns per level, and each level's pairs in order;
        # size[p * n + q]: the letters of the walk of a pair (p, q) taken
        taken, taken_col = [0] * n, [0] * n
        rows: list[list[int]] = []
        cols: list[list[int]] = []
        taken_at: list[list[tuple[int, int]]] = []
        size: dict[int, int] = {}
        # filed[level]: the letters and provenance of the shortest walk
        # filed at that level for each pair; a pair filed at two levels is
        # taken at the lower one and passed over at the other
        filed: dict[int, dict[tuple[int, int], tuple]] = {}

        def file(level: int, sources: int, s: int, letters: int, provenance: tuple) -> None:
            """File the pairs (p, s), p in sources, not taken yet."""
            fresh = sources & ~taken_col[s]
            if fresh:
                offers = filed.setdefault(level, {})
                for p in _bits(fresh):
                    known = offers.get((p, s))
                    if known is None or letters < known[0]:
                        offers[p, s] = (letters, provenance)

        def take(p: int, s: int, letters: int, provenance: tuple) -> None:
            """Take the pair (p, s) at the current level, whose row, column
            and pairs the loop below sets."""
            taken[p] |= 1 << s
            taken_col[s] |= 1 << p
            row[p] |= 1 << s
            col[s] |= 1 << p
            pairs.append((p, s))
            size[p * n + s] = letters
            epsilon[p, s] = provenance

        for q in range(n):
            for code, sources in ins[q].items():
                for s in _bits(outs[q].get(-code, 0)):
                    file((q == base) + (s == base), sources, s, 2, (_DIRECT, code, q))
        level = top = 0  # top: the most returns of a pair taken
        while filed or level <= 2 * top:
            row, col, pairs = [0] * n, [0] * n, []
            rows.append(row)
            cols.append(col)
            taken_at.append(pairs)
            offers = filed.pop(level, {})
            for p, s in sorted(offers, key=lambda pair: (offers[pair][0], pair[1], pair[0])):
                if not taken[p] >> s & 1:
                    take(p, s, *offers[p, s])
            # CONCAT of pairs of a and level - a > 0 returns, read off the
            # fewer of the two
            for a in range(1, level):
                if taken[base] & 1:
                    return self
                b = level - a
                if len(taken_at[a]) <= len(taken_at[b]):
                    right = rows[b]
                    for p, q in taken_at[a]:
                        fresh = right[q] & ~taken[p]
                        if fresh:
                            head, at = size[p * n + q], q * n
                            for r in _bits(fresh):
                                take(p, r, head + size[at + r], (_CONCAT, q))
                else:
                    left = cols[a]
                    for q, r in taken_at[b]:
                        fresh = left[q] & ~taken_col[r]
                        if fresh:
                            tail = size[q * n + r]
                            for p in _bits(fresh):
                                take(p, r, size[p * n + q] + tail, (_CONCAT, q))
            for q, r in pairs:  # the list grows as pairs are taken
                if taken[base] & 1:
                    return self
                letters = size[q * n + r]
                # WRAP: a step into q, the stretch (q, r), the inverse step
                # out of r, to the base or to one other state
                out_r = outs[r]
                for code, sources in ins[q].items():
                    ends = out_r.get(-code)
                    if not ends:
                        continue
                    wrap = (_WRAP, code, q, r)
                    if ends & 1:
                        file(level + (q == base) + 1, sources, base, letters + 2, wrap)
                    s = (ends >> 1).bit_length()
                    if not s:
                        continue
                    if q == base:
                        file(level + 1, sources, s, letters + 2, wrap)
                        continue
                    fresh = sources & ~taken_col[s]
                    if fresh:
                        for p in _bits(fresh):
                            take(p, s, letters + 2, wrap)
                # CONCAT with the pairs of no returns
                fresh = cols[0][q] & ~taken_col[r]
                if fresh:
                    for p in _bits(fresh):
                        take(p, r, size[p * n + q] + letters, (_CONCAT, q))
                fresh = rows[0][r] & ~taken[q]
                if fresh:
                    for u in _bits(fresh):
                        take(q, u, letters + size[r * n + u], (_CONCAT, r))
            if pairs:
                top = level
            level += 1
        return self

    def expand_pair(self, pair: tuple[int, int]) -> list[int]:
        """Replay provenance records into the underlying transition walk."""
        return freegroup.unwind(self._expand(pair, {}))

    def _expand(self, current: tuple[int, int], memo: dict) -> Pass:
        """The transition walk of one pair; see expand_pair."""
        if current not in memo:
            p, s = current
            record = self.epsilon[current]
            if record[0] == _CONCAT:
                q = record[1]
                walk = yield self._expand((p, q), memo)
                walk = walk + (yield self._expand((q, s), memo))
            else:
                code, q = record[1], record[2]
                r = q if record[0] == _DIRECT else record[3]
                inner = [] if record[0] == _DIRECT else (yield self._expand((q, r), memo))
                walk = [self._transition[p, code, q], *inner, self._transition[r, -code, s]]
            memo[current] = walk
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

    The layout is the prefix automaton of the words grown so far: base 0,
    one state [P] per distinct proper nonempty prefix P, and a generator
    ``a1…an`` runs ``0 -a1-> [a1] -a2-> … -an-> 0``, one transition per
    distinct step; a partial Stallings fold of the flower automaton
    (Stallings, *Topology of finite graphs*, 1983).  So the one state
    other than 0 past [P] by a letter c is [Pc], and [Pc] is entered from
    [P] alone.

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

    On success the factorization indexes the input list, names the first
    generator with each factor's letters, has the fewest factors of any,
    and multiplies to the identity exactly.
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
