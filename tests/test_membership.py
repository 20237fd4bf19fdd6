import itertools

import pytest

from conftest import random_reduced_word, w, words
from ordcalc import freegroup as fg
from ordcalc import membership as mb
from ordcalc import rightorder as ro
from ordcalc import witnesses
from ordcalc.witnesses import Factorization


def identity_products_upto(gens, max_factors: int) -> Factorization | None:
    """Bounded brute-force reference: search products of at most max_factors."""
    gens = tuple(gens)
    frontier = [(fg.IDENTITY, ())]
    for _ in range(max_factors):
        nxt = []
        for value, path in frontier:
            for i, u in enumerate(gens):
                prod = fg.mul(value, u)
                if prod.is_identity:
                    return Factorization(path + (i,))
                nxt.append((prod, path + (i,)))
        frontier = nxt
    return None


def test_flower_shapes():
    # the flower folded on shared prefixes: one state per distinct proper
    # nonempty prefix besides the base, one transition per distinct step
    single = mb.WordAutomaton(words("x"))
    assert single.n_states == 1
    assert len(single.sources) == 1

    two = mb.WordAutomaton(words("xy", "y'"))
    # one interior state for the length-2 cycle, base shared
    assert two.n_states == 2
    assert len(two.sources) == 3

    # xy and xyx' share the state [x] and the step into it; [xy] is the
    # one state more, and the duplicate xy adds nothing
    shared = mb.WordAutomaton(words("xy", "xyx'", "xy"))
    assert shared.n_states == 3
    steps = set(zip(shared.sources, shared.letters, shared.targets))
    assert len(steps) == len(shared.sources) == 4
    x, y = w("x").letters[0], w("y").letters[0]
    assert (0, x, 1) in steps and (1, y, 0) in steps and (1, y, 2) in steps

    empty = mb.WordAutomaton([])
    assert empty.n_states == 1
    assert mb.contains_identity([]) == (False, None)


def test_flower_rejects_identity_generator():
    with pytest.raises(ValueError):
        mb.WordAutomaton(words("x", "e"))


def test_saturate_examples():
    auto = mb.WordAutomaton(words("x", "x'")).saturate()
    assert (auto.base, auto.base) in auto.epsilon

    auto = mb.WordAutomaton(words("x")).saturate()
    assert not auto.epsilon

    auto = mb.WordAutomaton(words("xxy", "y'x'", "x'")).saturate()
    assert (auto.base, auto.base) in auto.epsilon
    # cross-check: a bounded product search also reaches the identity
    assert identity_products_upto(words("xxy", "y'x'", "x'"), 4) is not None


def test_saturate_is_a_fixpoint():
    auto = mb.WordAutomaton(words("xy", "y'x'", "xx")).saturate()
    pairs = frozenset(auto.epsilon)
    assert frozenset(auto.saturate().epsilon) == pairs


def test_contains_identity_examples():
    found, factorization = mb.contains_identity(words("xy", "y'x'"))
    assert found
    assert factorization.product((w("xy"), w("y'x'"))).is_identity

    assert mb.contains_identity(words("x")) == (False, None)

    # the six-element closed set plus a sign choice reaches the identity
    generators = words("xx", "yy", "x'y'", "xy'", "x'y", "xy", "x'")
    found, factorization = mb.contains_identity(generators)
    assert found
    assert factorization.product(tuple(generators)).is_identity


def test_contains_identity_containing_empty_word():
    found, factorization = mb.contains_identity([w("x"), fg.IDENTITY])
    assert found and factorization.factors == (1,)


def _corpus_subsets(max_size=3):
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    for size in range(1, max_size + 1):
        yield from itertools.combinations(pool, size)


def test_agreement_with_bounded_product_oracle():
    checked = 0
    for subset in _corpus_subsets():
        subset = list(subset)
        oracle = identity_products_upto(subset, 6)
        found, factorization = mb.contains_identity(subset)
        if oracle is not None:
            assert found, subset
            assert oracle.product(tuple(subset)).is_identity
        if found:
            assert factorization.product(tuple(subset)).is_identity
        checked += 1
    assert checked == 696


def test_monotonicity_under_superset(rng):
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    for _ in range(200):
        small = rng.sample(pool, rng.randint(1, 2))
        big = small + rng.sample(pool, rng.randint(1, 3))
        if mb.contains_identity(small)[0]:
            assert mb.contains_identity(big)[0]


def _check_leaf(gens) -> bool:
    """contains_identity on gens against the closure, with its factors
    multiplying to e, each the first generator with its letters."""
    found, factorization = mb.contains_identity(gens)
    assert found == mb.IdentityClosure().grow(gens), gens
    if found:
        assert factorization.product(tuple(gens)).is_identity, gens
        first = {}
        for i, u in enumerate(gens):
            first.setdefault(u.letters, i)
        assert all(first[gens[i].letters] == i for i in factorization.factors), gens
    return found


def test_prefix_automaton_factors_on_first_generators(rng):
    # x is a proper prefix of xy and xy of xyx'; x and xy appear twice.
    # Then random lists that extend two stems, some with a duplicate, the
    # inverse of a product of two generators, or a proper prefix of the
    # longest generator, in shuffled order
    assert _check_leaf(words("xyx'", "x", "xy", "x", "xy", "y'x'"))
    assert _check_leaf(words("xy", "xyx'", "x", "x", "x'"))
    found = 0
    for _ in range(400):
        stems = [_extension(rng, fg.IDENTITY, 3) for _ in range(2)]
        gens = [_extension(rng, rng.choice(stems), 3) for _ in range(rng.randint(1, 5))]
        gens = [u for u in gens if not u.is_identity]
        if not gens:
            continue
        if rng.random() < 0.5:
            gens.append(rng.choice(gens))
        if rng.random() < 0.3:
            product = fg.mul(rng.choice(gens), rng.choice(gens))
            if not product.is_identity:
                gens.append(fg.inv(product))
        longest = max(gens, key=len)
        if len(longest) > 1 and rng.random() < 0.5:
            cut = rng.randint(1, len(longest) - 1)
            gens.append(fg.ReducedWord(longest.letters[:cut]))
        rng.shuffle(gens)
        found += _check_leaf(gens)
    assert 80 < found < 300, found


def test_walk_factors_rejects_garbage():
    auto = mb.WordAutomaton(words("xy", "y'x'"))
    with pytest.raises(AssertionError):
        auto.walk_factors([0])  # stops mid-cycle, not at the base state


def _closure_state(closure: mb.IdentityClosure) -> tuple:
    """A copy of everything a grow may change, down to the tables."""
    return (
        list(closure._succ),
        list(closure._pred),
        [dict(table) for table in closure._in],
        [dict(table) for table in closure._out],
        dict(closure._leaving),
        dict(closure._entering),
        closure.reached,
    )


def test_identity_closure_agrees_through_grow_and_rollback(rng):
    # after each rollback the closure is exactly as before the matching
    # grow, also when that grow reached the identity
    steps = undone_reaching = 0
    for _ in range(150):
        closure = mb.IdentityClosure()
        batches, states = [], []
        for _ in range(14):
            if batches and rng.random() < 0.35:
                undone_reaching += closure.reached and not states[-1][-1]
                closure.rollback()
                batches.pop()
                assert _closure_state(closure) == states.pop(), batches
            else:
                batch = [random_reduced_word(rng, 2, 4) for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.9:
                    batch = [u for u in batch if not u.is_identity]
                states.append(_closure_state(closure))
                assert closure.grow(batch) == closure.reached
                batches.append(batch)
            assert len(closure._marks) == len(batches)
            present = [u for batch in batches for u in batch]
            assert closure.reached == mb.contains_identity(present)[0], batches
            steps += 1
    assert steps == 150 * 14
    assert undone_reaching > 40, undone_reaching


def _random_word(rng, length: int) -> fg.ReducedWord:
    """A random reduced word over two generators with this many letters."""
    letters: list[int] = []
    while len(letters) < length:
        letters.append(rng.choice([c for c in (1, -1, 2, -2) if [-c] != letters[-1:]]))
    return fg.ReducedWord(tuple(letters))


def test_identity_closure_agrees_with_contains_identity_on_many_lists(rng):
    # a closure that drops the base state from its forward CONCAT rule
    # misses the identity in both pinned lists and, at each seed tried, in
    # 1 to 4 of these 20,000 random lists of 1 to 5 words of length 1 to 5;
    # reaches_identity must answer as contains_identity does too, and with
    # the same fault it misses the first pinned list and 5 to 12 of these
    pinned = ("y'y'xy' | yx'x'x' | xxy'xy | xx | yx", "x'y'y'x'y' | yx' | xxyxy'")
    for text in pinned:
        generators = words(*text.split(" | "))
        assert mb.contains_identity(generators)[0], text
        assert mb.IdentityClosure().grow(generators), text
        assert witnesses.reaches_identity(generators), text
    found = 0
    for _ in range(20_000):
        generators = [_random_word(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
        expected = mb.contains_identity(generators)[0]
        assert mb.IdentityClosure().grow(generators) == expected, generators
        assert witnesses.reaches_identity(generators) == expected, generators
        found += expected
    assert 3_000 < found < 5_000, found
    # lists over up to three generators in which some words are proper
    # prefixes of others, so that minimal states both return to the base
    # and continue, and merge across words
    found = prefixed = 0
    for _ in range(10_000):
        arity = rng.randint(1, 3)
        stems = [random_reduced_word(rng, arity, 5) for _ in range(rng.randint(1, 4))]
        generators = [u for u in stems if not u.is_identity]
        prefixes = [
            fg.ReducedWord(u.letters[: rng.randint(1, len(u) - 1)])
            for u in generators
            if len(u) > 1 and rng.random() < 0.5
        ]
        generators += prefixes
        prefixed += bool(prefixes)
        expected = mb.contains_identity(generators)[0]
        assert mb.IdentityClosure().grow(generators) == expected, generators
        assert witnesses.reaches_identity(generators) == expected, generators
        found += expected
    assert prefixed > 5_000, prefixed
    assert 2_000 < found < 8_000, found


def test_identity_closure_shares_prefixes():
    # one state per distinct proper nonempty prefix besides the base: xy is
    # a prefix of the other two words, so x and xy are the only states
    generators = words("xy", "xyx'", "xyy")
    closure = mb.IdentityClosure()
    assert not closure.grow(generators)
    prefixes = {u.letters[:j] for u in generators for j in range(1, len(u))}
    assert len(closure._succ) == 1 + len(prefixes) == 3


def test_minimal_automaton_merges_equal_right_languages():
    # [x] and [y] of xy | yy have the right language {y}: one state
    assert len(witnesses._minimal_automaton([u.letters for u in words("xy", "yy")])) == 2
    x, y = w("x").letters[0], w("y").letters[0]
    # xy returns from [x] to the base and continues to [xy]; yy only
    # continues, so [x] and [y] stay apart though [xy] and [yy] merge
    outs = witnesses._minimal_automaton([u.letters for u in words("xyx", "xy", "yyx")])
    assert len(outs) == 4
    assert outs[0][x] != outs[0][y]
    assert outs[outs[0][x].bit_length() - 1][y] & 1
    assert not outs[outs[0][y].bit_length() - 1][y] & 1
    # merging [x] and [y] there would read yy as a generator
    assert witnesses.reaches_identity(words("xyx", "xy", "y'x'"))
    assert not witnesses.reaches_identity(words("xyx", "xy", "yyx", "y'y'"))


def _extension(rng, stem: fg.ReducedWord, extra: int) -> fg.ReducedWord:
    """stem followed by up to extra random letters, reduced as written."""
    letters = list(stem.letters)
    for _ in range(rng.randint(0, extra)):
        letters.append(rng.choice([c for c in (1, -1, 2, -2) if [-c] != letters[-1:]]))
    return fg.ReducedWord(tuple(letters))


def _transitions(closure: mb.IdentityClosure) -> set:
    """The closure's transitions, each state named by the prefix that leads
    to it from the base."""
    name = {0: ()}
    found = set()
    for p, table in enumerate(closure._out):
        for code, targets in table.items():
            for q in range(len(closure._out)):
                if targets >> q & 1:
                    name.setdefault(q, name[p] + (code,))
                    found.add((name[p], code, name[q]))
    return found


def _expected_transitions(present) -> set:
    """Each word's run from the base through its prefixes back to the base."""
    return {
        (u.letters[: j - 1], code, u.letters[:j] if j < len(u) else ())
        for u in present
        for j, code in enumerate(u.letters, 1)
    }


def _letter_bitsets(closure: mb.IdentityClosure) -> tuple:
    """The closure's per-letter bitsets of the states that transitions
    leave and enter, without empty ones."""
    return tuple(
        {code: bits for code, bits in table.items() if bits}
        for table in (closure._leaving, closure._entering)
    )


def _recomputed_letter_bitsets(closure: mb.IdentityClosure) -> tuple:
    """The same bitsets, read off the transition tables."""
    bitsets = ({}, {})
    for side, tables in zip(bitsets, (closure._out, closure._in)):
        for state, table in enumerate(tables):
            for code, states in table.items():
                if states:
                    side[code] = side.get(code, 0) | 1 << state
    return bitsets


def test_identity_closure_agrees_with_shared_stems(rng):
    # words that extend a few shared stems, up to length 8, so that grows
    # add transitions out of old prefix states and rollbacks remove them;
    # after each grow and rollback the per-letter bitsets must match the
    # transition tables, and a grow adds exactly the words the closure did
    # not hold before it, each skipped word held by the words kept
    out_of_old = skips = 0
    for _ in range(120):
        stems = [_extension(rng, fg.IDENTITY, 4) for _ in range(2)]
        closure = mb.IdentityClosure()
        batches, kept = [], []
        for _ in range(12):
            before = _expected_transitions(u for batch in kept for u in batch)
            if batches and rng.random() < 0.35:
                closure.rollback()
                batches.pop()
                kept.pop()
            else:
                batch = [_extension(rng, rng.choice(stems), 4) for _ in range(3)]
                batch = [u for u in batch if not u.is_identity]
                if closure.reached:  # a closure at the identity keeps nothing
                    held = [True] * len(batch)
                else:
                    held = [closure.holds(u.letters) for u in batch]
                    generators = [u for words_kept in kept for u in words_kept]
                    for u, h in zip(batch, held):
                        if h:
                            assert mb.contains_identity(generators + [fg.inv(u)])[0], u
                    skips += sum(held)
                batches.append(batch)
                kept.append([u for u, h in zip(batch, held) if not h])
                closure.grow(batch)
            assert _letter_bitsets(closure) == _recomputed_letter_bitsets(closure)
            present = [u for batch in batches for u in batch]
            assert closure.reached == mb.contains_identity(present)[0], batches
            expected = _expected_transitions(u for batch in kept for u in batch)
            old_states = {p for p, _, _ in before}
            out_of_old += any(p in old_states for p, _, _ in expected - before if p)
            if not closure.reached:
                # every grow on the stack added the words it kept
                assert _transitions(closure) == expected, batches
                assert len(closure._succ) == 1 + len({q for _, _, q in expected if q})
    assert out_of_old > 100, out_of_old
    assert skips > 200, skips


# the 29 hm rows of the hard-search benchmark table: three words over two
# generators whose sign search is long
HARD_HM_SETS = (
    "x'x'yxx | xy'y'y'y' | yx'x'",
    "yx'x'y'x' | xyx'y'x' | xy'xxy",
    "y'y'xy | y'x'y | xyx'",
    "xxy'x'y' | x'x'yy | xxy'",
    "x'x'x' | xy'x'y | xxy'x",
    "y'xy | y'x'y'x | yxyx'",
    "y'xyx | xyx | yx'y'x'",
    "x'y'xy' | yyxxx | yyx'",
    "y'x'y | yyyx | xy'x'",
    "xy'y' | y'xx | x'yx'y",
    "xyx'y' | x'yyyx' | xyy",
    "xy'x | yyx | y'x'x'yy",
    "xyyx'y | x'x'y | xy'y'x",
    "xxy'y' | y'xyyx | y'x'yy",
    "x'y'x | y'xy' | xyyyx'",
    "y'xy | x'x'y'x' | y'x'yx'",
    "xxy' | xyyx'y | y'x'y'y'",
    "yyyx | y'y'y'x'y | y'y'xxx",
    "yx'yx | xy'x' | xyyy",
    "yx'x'x' | y'y'xx | yxy'x",
    "y'y'x | yx'x' | yxy'xy'",
    "yx'y'y' | yxxx | x'yy",
    "xyyx | y'x'x'y' | xy'xy'",
    "yx'yxy | x'y'x | x'y'y'",
    "yx'yxy | y'y'x | yx'y'x'",
    "y'xy'x | y'x'yy | xxyxy'",
    "y'y'x | y'x'yx'x' | yxxy'",
    "x'y'y' | x'y'x' | xxyyx'",
    "yxxy'y' | yyx | x'yx'x'",
)


def test_identity_closure_agrees_on_hard_sign_assignments():
    # the search decides with the closure and the sign_assignment check
    # with reaches_identity; on each hard witness, and on it with one
    # signed pivot flipped, both must answer as the provenance-keeping
    # automaton does; merging the prefix states of the same right language
    # leaves 597 of the witnesses' 1,359 states
    answers = {True: 0, False: 0}
    states = merged = 0
    for text in HARD_HM_SETS:
        joins = tuple(words(*text.split(" | ")))
        verdict = ro.decide_lg_hm(joins, 2)
        assert verdict.status == "INVALID", text
        signed = [fg.signed(p, s) for p, s in verdict.certificate.signs]
        variants = [signed] + [
            signed[:i] + [fg.inv(signed[i])] + signed[i + 1 :]
            for i in range(len(signed))
        ]
        for i, variant in enumerate(variants):
            generators = joins + tuple(variant)
            found = mb.IdentityClosure().grow(generators)
            assert found == mb.contains_identity(generators)[0], (text, i)
            assert witnesses.reaches_identity(generators) == found, (text, i)
            assert not (found and i == 0), text  # the witness itself holds
            answers[found] += 1
        generators = joins + tuple(signed)
        states += mb.WordAutomaton(generators).n_states
        merged += len(witnesses._minimal_automaton([u.letters for u in generators]))
    assert min(answers.values()) > 100, answers
    assert (merged, states) == (597, 1_359)


def _transition_count(closure: mb.IdentityClosure) -> int:
    return sum(bin(t).count("1") for table in closure._out for t in table.values())


def test_most_pivot_grows_of_hard_searches_add_no_transition(monkeypatch):
    # along the hm searches, most signed pivots are already products of the
    # generators above them, or their inverses are, and such a grow adds
    # no transition: 1,399 of the 1,624 pivot grows over these rows; a
    # test that reads no epsilon stretch between letters finds 1,248
    grows = unchanged = 0

    class Counting(mb.IdentityClosure):
        def grow(self, words):
            nonlocal grows, unchanged
            root, before = not self._marks, _transition_count(self)
            reached = super().grow(words)
            if not root:
                grows += 1
                unchanged += _transition_count(self) == before
            return reached

    monkeypatch.setattr(mb, "IdentityClosure", Counting)
    for text in HARD_HM_SETS:
        verdict = ro.decide_lg_hm(tuple(words(*text.split(" | "))), 2)
        assert verdict.status == "INVALID", text
    assert grows > 1_000, grows
    assert 5 * unchanged >= 4 * grows, (unchanged, grows)
