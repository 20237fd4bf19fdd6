import gc
import hashlib
import itertools
import os
import signal
import weakref

import pytest

from conftest import random_reduced_word, w, words
from ordcalc import calculus as ca
from ordcalc import biorder, certio, cli
from ordcalc import freegroup as fg
from ordcalc import membership
from ordcalc import rightorder as ro
from ordcalc.witnesses import (
    ConjugateEntry,
    RefutationBranch,
    RefutationLeaf,
    TruncatedRightOrder,
    verify_refutation_tree,
)

S_WORDS = ("xx", "yy", "x'y'")
T_WORDS = ("xx", "xy", "yx'")


def test_close_truncated_matches_worked_sets():
    closed = ro.close_truncated(words(*S_WORDS), 2)
    assert closed == frozenset(words("xx", "yy", "x'y'", "xy'", "x'y", "xy"))

    closed = ro.close_truncated(words(*T_WORDS), 2)
    assert closed == frozenset(words("xx", "xy", "yx'", "yx", "yy"))

    assert ro.close_truncated(words("x"), 1) == frozenset(words("x"))


def test_close_truncated_validates_input():
    with pytest.raises(ValueError):
        ro.close_truncated([fg.IDENTITY], 2)
    with pytest.raises(ValueError):
        ro.close_truncated(words("xxx"), 2)


def test_extend_right_order_refutes_first_set():
    outcome = ro.extend_right_order(words(*S_WORDS), 2)
    assert isinstance(outcome, (RefutationLeaf, RefutationBranch))
    assert verify_refutation_tree(tuple(words(*S_WORDS)), outcome) is None


def test_extend_right_order_witnesses_second_set():
    outcome = ro.extend_right_order(words(*T_WORDS), 2)
    assert isinstance(outcome, TruncatedRightOrder)
    assert outcome.level == 2
    expected = frozenset(words("xx", "xy", "yx'", "yx", "yy", "x", "y"))
    assert expected <= outcome.elements
    assert outcome.elements == expected
    assert outcome.verify()
    # no element together with its inverse
    assert not any(fg.inv(u) in outcome.elements for u in outcome.elements)


def test_extend_right_order_trivial_and_identity_cases():
    outcome = ro.extend_right_order(words("x"), 2)
    assert isinstance(outcome, TruncatedRightOrder)
    assert outcome.level == 1 and outcome.elements == frozenset(words("x"))

    outcome = ro.extend_right_order([fg.IDENTITY, w("x")], 2)
    assert isinstance(outcome, RefutationLeaf)
    assert outcome.witness.entries == (ConjugateEntry(fg.IDENTITY, 0),)


def test_initial_subterms_and_cis():
    prefixes = ro.initial_subterms(words("xx"))
    assert prefixes == frozenset([fg.IDENTITY, w("x"), w("xx")])
    assert ro.cis(words("xx")) == frozenset(words("x", "x'", "xx", "x'x'"))
    assert ro.cis(words("x")) == frozenset(words("x", "x'"))


def test_cis_is_closed_under_inversion(rng):
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    for _ in range(50):
        sample = rng.sample(pool, rng.randint(1, 3))
        closed = ro.cis(sample)
        assert closed == frozenset(fg.inv(u) for u in closed)
        assert fg.IDENTITY not in closed


def test_decide_lg_cs_on_worked_examples():
    verdict = ro.decide_lg_cs(words(*S_WORDS), 2)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words(*S_WORDS))
    assert ca.check(ca.CalculusId.GLGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_lg_cs(words(*T_WORDS), 2)
    assert verdict.status == "INVALID"
    assert verdict.certificate.verify()


def test_single_words_are_never_valid():
    for u in fg.ball(2, 3):
        if u.is_identity:
            continue
        assert ro.decide_lg_cs([u], 2).status == "INVALID"


def test_decide_lg_hm_on_worked_examples():
    verdict = ro.decide_lg_hm(words(*S_WORDS), 2)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words(*S_WORDS))
    assert ca.check(ca.CalculusId.GLGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_lg_hm(words(*T_WORDS), 2)
    assert verdict.status == "INVALID"
    assignment = dict(verdict.certificate.signs)
    assert assignment[w("x")] == 1 and assignment[w("y")] == 1

    # a joinand e is valid at once, in every procedure, with a one-node
    # gv proof
    goal = ca.hypersequent_of_words([fg.IDENTITY])
    for decide, calculus in (
        (ro.decide_lg_hm, ca.CalculusId.GLGSTAR),
        (ro.decide_lg_cs, ca.CalculusId.GLGSTAR),
        (ro.decide_rg, ca.CalculusId.GRGSTAR),
    ):
        verdict = decide([fg.IDENTITY], 2)
        assert verdict.status == "VALID"
        proof = verdict.certificate
        assert proof.instance.rule == "gv" and proof.premises == ()
        assert ca.check(calculus, proof, goal).ok


def test_procedures_agree_on_short_sets():
    pool = [u for u in fg.ball(2, 1) if not u.is_identity]
    for size in (1, 2):
        for subset in itertools.combinations(pool, size):
            sub = list(subset)
            cs = ro.decide_lg_cs(sub, 2)
            hm = ro.decide_lg_hm(sub, 2)
            extends = isinstance(
                ro.extend_right_order(sub, 2), TruncatedRightOrder
            )
            assert cs.status == hm.status
            assert extends == (cs.status == "INVALID")


def test_rg_refute_bounded_examples():
    tree = ro.rg_refute_bounded(words("x", "x'"), 1, 0)
    assert isinstance(tree, RefutationLeaf)
    entries = tree.witness.entries
    assert [(e.conjugator, e.base) for e in entries] == [
        (fg.IDENTITY, 0),
        (fg.IDENTITY, 1),
    ]

    degenerate = ro.rg_refute_bounded([fg.reduce([1, 2, -2, -1])], 2, 0)
    assert isinstance(degenerate, RefutationLeaf)

    tree = ro.rg_refute_bounded(words("x y x'", "y'"), 2, 1)
    assert isinstance(tree, RefutationLeaf)
    assert tree.witness.product(tuple(words("x y x'", "y'"))).is_identity
    assert any(e.conjugator == w("x'") for e in tree.witness.entries)


def test_decide_rg_three_outcomes():
    verdict = ro.decide_rg(words("x", "x'"), 1, conjugator_bound=0)
    assert verdict.status == "VALID"
    goal = ca.hypersequent_of_words(words("x", "x'"))
    assert ca.check(ca.CalculusId.GRGSTAR, verdict.certificate, goal).ok

    verdict = ro.decide_rg(words("x"), 1)
    assert verdict.status == "INVALID"
    assert verdict.certificate.functional == (-1,)

    verdict = ro.decide_rg(words("x' y' x y"), 2)
    assert verdict.status == "UNKNOWN"
    assert verdict.certificate.conjugator_bound == ro.DEFAULT_CONJUGATOR_BOUND


def test_sign_search_runs_deeper_than_the_recursion_limit():
    # below an open root, one search level per pivot: 1,200 levels, none of
    # which adds a generator, so the first path that signs every pivot is
    # the answer
    joins = tuple(words("yx'yxy", "x'y'x", "x'y'y'"))
    assert ro._root_order(joins, 2) is None
    pivots = tuple(fg.ReducedWord((1,) * k) for k in range(1, 1201))

    def petal(word, sign):
        return (word,) if word in joins else ()

    def leaf(path, generators):
        raise AssertionError("no branch closes")

    closure = membership.IdentityClosure()
    path = ro._sign_search(closure, joins, ro._in_order(pivots), petal, leaf)
    assert path == tuple((p, 1) for p in pivots)


def test_truncated_order_violations_detected():
    bad = TruncatedRightOrder(2, 2, frozenset(words("x", "x'")))
    assert bad.violations()
    good = TruncatedRightOrder(2, 1, frozenset(words("x", "y")))
    assert good.verify()


def test_cs_rejects_generators_beyond_the_arity():
    # y is generator 2: at arity 1 the pivots of the smaller ball never
    # sign it, so the search once answered INVALID for a valid set
    joins = words("x'y'xy'", "yxyyx", "x'y'x'x'")
    assert ro.decide_lg_cs(joins, 2).status == "VALID"
    for decide in (ro.decide_lg_cs, ro.decide_lg_hm, ro.decide_rg):
        with pytest.raises(ValueError, match="generator 2 exceeds arity 1"):
            decide(joins, 1)
    with pytest.raises(ValueError, match="generator 2 exceeds arity 1"):
        ro.extend_right_order(joins, 1)
    # a cone over a generator beyond its arity is no witness, in memory
    # or as a file
    beyond = TruncatedRightOrder(1, 1, frozenset(words("y")))
    assert any("exceeds arity" in issue for issue in beyond.violations())
    doc = certio.truncated_order_doc(beyond, words("y"))
    with pytest.raises(certio.CertificateFormatError):
        certio.verify_witness_doc(doc)


def test_hm_invalid_search_makes_no_membership_call(monkeypatch):
    # a hard-search row whose root no bi-order excludes: the search closes
    # its branches through the grown closure and extracts nothing
    calls = []
    contains_identity = membership.contains_identity

    def counted(generators):
        calls.append(generators)
        return contains_identity(generators)

    monkeypatch.setattr(membership, "contains_identity", counted)
    joins = words("yx'yxy", "x'y'x", "x'y'y'")
    assert ro._root_order(joins, 2) is None
    verdict = ro.decide_lg_hm(joins, 2)
    assert verdict.status == "INVALID"
    assert calls == []


def test_exclusion_never_holds_above_an_open_set(rng, monkeypatch):
    # a bi-order that makes a set positive makes its subsets positive, so
    # one test at the root settles every node below it
    pool = [u for u in fg.ball(2, 3) if not u.is_identity]
    opened = 0
    for _ in range(400):
        small = rng.sample(pool, rng.randint(2, 4))
        if ro._root_order(small, 2) is not None:
            continue
        opened += 1
        big = small + rng.sample(pool, rng.randint(1, 4))
        assert ro._root_order(big, 2) is None, (small, big)
    assert opened > 100
    # so a search below an open root asks once
    calls = []
    root_order = ro._root_order

    def counted(*args):
        calls.append(args)
        return root_order(*args)

    monkeypatch.setattr(ro, "_root_order", counted)
    assert ro.decide_lg_hm(words("yx'yxy", "x'y'x", "x'y'y'"), 2).status == "INVALID"
    assert len(calls) == 1


def test_excluded_roots_build_no_closure(monkeypatch):
    # a functional positive on every word, then one Magnus sign without one,
    # then a word of the second derived subgroup: Aff+(Q) is metabelian, so
    # its germ is the identity's, and only the Magnus order settles it
    by_functional = words("xx", "xy", "yx'")
    by_magnus = words("x'y'xy")
    by_magnus_only = words("x y x' y' x y' x' y y x y' x' y' x y x'")
    assert biorder.affine_germ_order(by_magnus_only, 2) is None

    class Forbidden:
        def __init__(self):
            raise AssertionError("an excluded root built an identity closure")

    # the search is forbidden a closure; the independent check of its
    # witness builds one of its own
    for joins in (by_functional, by_magnus, by_magnus_only):
        assert ro._root_order(joins, 2) is not None
        with monkeypatch.context() as search:
            search.setattr(membership, "IdentityClosure", Forbidden)
            assert ro.rg_refute_bounded(joins, 2, 1) is None
            verdict = ro.decide_lg_hm(joins, 2)
        assert verdict.status == "INVALID"
        doc = certio.sign_assignment_doc(joins, 2, verdict.certificate)
        assert certio.verify_witness_doc(doc) == []
    with monkeypatch.context() as search:
        search.setattr(membership, "IdentityClosure", Forbidden)
        assert ro.decide_rg(by_functional, 2, 1).status == "INVALID"
        assert ro.decide_rg(by_magnus, 2, 1).status == "UNKNOWN"
        assert ro.decide_rg(by_magnus_only, 2, 1).status == "UNKNOWN"
    # a hard-search row that neither settles, but the germs of affine maps
    # at +inf do: rg ends UNKNOWN with no closure, and its bounds_exhausted
    # file is the one the search wrote when it ended open
    by_germ = words("y", "xxyy", "yxy'x'")
    assert ro._root_order(by_germ, 2) is None
    with monkeypatch.context() as search:
        search.setattr(membership, "IdentityClosure", Forbidden)
        assert ro.rg_refute_bounded(by_germ, 2, 1) is None
        verdict = ro.decide_rg(by_germ, 2, 1)
    assert verdict.status == "UNKNOWN"
    doc = certio.bounds_doc(by_germ, 2, verdict.certificate)
    assert certio.verify_witness_doc(doc) == []
    assert hashlib.sha256(certio.dumps(doc).encode()).hexdigest() == (
        "4920f8563bfe6408e2d4f9d0a6de9fba3ad10bf647180b5cd33b70ba9f98a3bd"
    )


def test_hm_invalid_assignments_are_pinned():
    # the sign-assignment files of every hm INVALID set of the crosscheck
    # corpus, hashed in corpus order; the digest was recorded before the
    # root settlement replaced the per-node pre-filter
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    digest = hashlib.sha256()
    count = 0
    for size in (1, 2, 3):
        for subset in itertools.combinations(pool, size):
            verdict = ro.decide_lg_hm(subset, 2)
            if verdict.status == "INVALID":
                doc = certio.sign_assignment_doc(subset, 2, verdict.certificate)
                digest.update(certio.dumps(doc).encode())
                count += 1
    assert count == 460
    assert digest.hexdigest() == (
        "ba6dd39734ab2de2ab0a3d4634bf5198d5946a90e8cd9fb3d9bd9d4d738cc3c1"
    )


def test_decide_rg_settles_a_formerly_cut_row():
    # a from-scratch saturation at every node took more than 15 s here;
    # the alarm turns a return of that cost into a failure
    def too_slow(signum, frame):
        raise TimeoutError("decide_rg did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        verdict = ro.decide_rg(words("x'x'y'x'y", "xy'x'x'", "x'y'xy"), 2, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict.status == "UNKNOWN"


def test_cs_witnesses_and_refutations_are_pinned():
    # the truncated_right_order and right_order refutation files of every
    # set of the crosscheck corpus, hashed by kind in corpus order.  The
    # truncated_right_order digest was recorded before the cone closure
    # visited only candidate pairs, and again before the cone dropped its
    # provenance; the refutation digest was recorded once leaf
    # factorizations came from the identity closure, and again once leaves
    # were factored on the generators' prefix states
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    kinds = {"truncated_right_order": 0, "refutation": 0}
    digests = {kind: hashlib.sha256() for kind in kinds}
    for size in (1, 2, 3):
        for subset in itertools.combinations(pool, size):
            outcome = ro.extend_right_order(subset, 2)
            if isinstance(outcome, TruncatedRightOrder):
                doc = certio.truncated_order_doc(outcome, subset)
            else:
                doc = certio.refutation_doc(subset, 2, outcome, "right_order")
            kinds[doc["kind"]] += 1
            digests[doc["kind"]].update(certio.dumps(doc).encode())
    assert kinds == {"truncated_right_order": 460, "refutation": 236}
    assert {kind: d.hexdigest() for kind, d in digests.items()} == {
        "truncated_right_order": (
            "7f9c3b9a5ddf70f93f7088d2e2488d776635e89c85f4f72512623bd767cd2b2a"
        ),
        "refutation": (
            "9029e872a6be25552cb361b18aecaa1f8fc64a3dd54c80f06c64bd0b9bb2d583"
        ),
    }


def test_hm_proofs_and_rg_refutations_are_pinned():
    # the proof files of every hm VALID set of the crosscheck corpus, and
    # the order refutation files of every tree rg finds at conjugator bound
    # 1, hashed by kind in corpus order; both digests were recorded before
    # cs moved onto the search kernel hm and rg run, and the refutation
    # digest again once leaf factors lost their sign and a factor
    # conjugated by e became its base index alone, with every tree
    # unchanged; both again once leaves were factored on the generators'
    # prefix states, with every tree unchanged
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    counts = {"proof": 0, "refutation": 0}
    digests = {kind: hashlib.sha256() for kind in counts}
    for size in (1, 2, 3):
        for subset in itertools.combinations(pool, size):
            docs = []
            verdict = ro.decide_lg_hm(subset, 2)
            if verdict.status == "VALID":
                goal = ca.hypersequent_of_words(subset)
                conjuncts = [(goal, verdict.certificate)]
                docs.append(certio.proof_doc(ca.CalculusId.GLGSTAR, conjuncts))
            tree = ro.rg_refute_bounded(subset, 2, 1)
            if tree is not None:
                docs.append(certio.refutation_doc(subset, 2, tree, "order"))
            for doc in docs:
                counts[doc["kind"]] += 1
                digests[doc["kind"]].update(certio.dumps(doc).encode())
    assert counts == {"proof": 236, "refutation": 288}
    assert {kind: d.hexdigest() for kind, d in digests.items()} == {
        "proof": "d012aca40d7f74aef6c7648046fdae692951172b9bbecdc6628c4aef6c7173f1",
        "refutation": (
            "14a9580f1e21b7c0cbb16096870511b2729c7bff6ac2f898a8c177833be5a9da"
        ),
    }


# the rg VALID rows of the hard-search benchmark table, posed at --bound-L 1
HARD_RG_VALID_SETS = (
    "yxyxx | xy'x | x'y'y'x'y",
    "x'y'y' | yyy | xxyx'y",
    "yyyy | x'y'y'x'y | x'yxxy'",
)


def _leaf_factor_counts(tree):
    """The number of factors of each leaf of a refutation tree."""
    counts, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, RefutationLeaf):
            counts.append(len(node.witness.entries))
        else:
            stack += [node.negative, node.positive]
    return counts


def test_hard_search_rg_proofs_are_pinned(tmp_path):
    # the search does not branch on a pivot whose sign the closure forces,
    # so these trees have 13 leaves of 67 factors in all, and the proofs
    # 10,734, 11,992 and 18,924 bytes; branching on every pivot made 36
    # leaves of 138 factors, and proofs of 27,625, 31,070 and 34,515 bytes
    factors, sizes = [], []
    for i, text in enumerate(HARD_RG_VALID_SETS):
        tree = ro.rg_refute_bounded(words(*text.split(" | ")), 2, 1)
        factors += _leaf_factor_counts(tree)
        path = str(tmp_path / f"proof{i}.json")
        argv = ["prove", "--variety", "representable", "--bound-L", "1", text]
        assert cli.main([*argv, "--proof", path]) == 0
        assert cli.main(["check", path]) == 0
        sizes.append(os.path.getsize(path))
    assert (len(factors), sum(factors)) == (13, 67)
    assert sizes == [10_734, 11_992, 18_924]


def _branching_node(closure, words, choose, petal, path):
    """The sign search's node as it was before forced signs: it branches on
    every pivot it signs, and a leaf is factored over every signed pivot
    above it.  Returns the node's searched tree and the tree's shape, cut
    down at each branch where the closure holds every petal word of one
    sign to the shape below that sign; or, for an open node, its path and
    None."""
    added = petal(*path[-1]) if path else (u for w in words for u in petal(w, 1))
    if closure.grow(added):
        closure.rollback()
        return ro._Closed(path), "leaf"
    choice = choose(path)
    if choice is None:
        return path, None
    pivot, first = choice
    held = [
        sign
        for sign in (first, -first)
        if all(closure.holds(u.letters) for u in petal(pivot, sign))
    ]
    subtrees, shapes = {}, {}
    for sign in (first, -first):
        below = path + ((pivot, sign),)
        subtrees[sign], shapes[sign] = yield _branching_node(
            closure, words, choose, petal, below
        )
        if shapes[sign] is None:
            return subtrees[sign], None
    closure.rollback()
    shape = shapes[held[0]] if held else (pivot, shapes[1], shapes[-1])
    return RefutationBranch(pivot, subtrees[1], subtrees[-1]), shape


def _branching_search(words, choose, petal, leaf):
    """A refutation tree and its cut shape, or an open path and None; see
    _branching_node."""
    closure = membership.IdentityClosure()
    found, shape = fg.unwind(_branching_node(closure, words, choose, petal, ()))
    if shape is None:
        return found, None
    return fg.unwind(ro._extract(words, leaf, found)), shape


def _shape(tree):
    """A refutation tree's pivots and where its leaves are."""
    if isinstance(tree, RefutationLeaf):
        return "leaf"
    return (tree.pivot, _shape(tree.positive), _shape(tree.negative))


def test_forced_signs_agree_with_branching_on_every_pivot(rng):
    # the kernel against the search that branches on every pivot, with the
    # pivots, petals and leaves of hm (conjugator bound 0, which rg's bound
    # 0 shares) and of rg at bound 1, over the hard-search rows and random
    # sets, their roots unsettled: the same open paths, which are the hm
    # sign assignments, and trees that verify, have no more leaves, and
    # branch exactly where no sign's petal is held already
    pool = [words(*text.split(" | ")) for text in HARD_RG_VALID_SETS]
    while len(pool) < 150:
        joins = fg.dedupe(random_reduced_word(rng, 2, 4) for _ in range(3))
        if len(joins) == 3 and min(map(len, joins)) >= 2:
            pool.append(joins)
    builders = {0: ro._IDENTITY_ONLY, 1: ro._conjugating(fg.ball(2, 1))}
    opened = {0: 0, 1: 0}
    leaves = {0: [0, 0], 1: [0, 0]}
    for joins in pool:
        joins = tuple(joins)
        choose = ro._in_order(ro.sign_pivots(joins))
        for bound, (petal, leaf) in builders.items():
            closure = membership.IdentityClosure()
            found = ro._sign_search(closure, joins, choose, petal, leaf)
            oracle, shape = _branching_search(joins, choose, petal, leaf)
            assert isinstance(found, tuple) == (shape is None), joins
            if shape is None:
                assert found == oracle, joins
                opened[bound] += 1
                continue
            assert verify_refutation_tree(joins, found, bound > 0) is None, joins
            assert _shape(found) == shape, joins
            ours = len(_leaf_factor_counts(found))
            theirs = len(_leaf_factor_counts(oracle))
            assert ours <= theirs, joins
            leaves[bound][0] += ours
            leaves[bound][1] += theirs
    assert min(opened.values()) > 20, opened
    # the table rows alone drop 23 leaves at bound 1
    assert leaves[1][1] - leaves[1][0] >= 23, leaves
    assert leaves[0][0] >= 10, leaves


def _naive_cone(words, level):
    """The least set of words holding ``words`` and closed under products
    within the level, computed over ReducedWord and fg.mul, one round of
    new elements at a time; None when a product reaches the identity."""
    elements, frontier = set(words), set(words)
    while frontier:
        products = {fg.mul(a, b) for a in frontier for b in elements}
        products |= {fg.mul(b, a) for a in frontier for b in elements}
        if fg.IDENTITY in products:
            return None
        frontier = {p for p in products if len(p) <= level} - elements
        elements |= frontier
    return frozenset(elements)


def test_cone_agrees_through_grow_and_rollback(rng):
    # the protocol the sign search drives: nested grows, each undone by
    # one rollback, and a grow that reaches the identity undone at once;
    # the cone and close_truncated, which runs it, against a fixpoint that
    # shares no code with them
    reached = 0
    for _ in range(150):
        cone = ro._Cone(3)
        batches = []
        for _ in range(14):
            if batches and rng.random() < 0.35:
                cone.rollback()
                batches.pop()
            else:
                batch = [random_reduced_word(rng, 2, 3) for _ in range(rng.randint(0, 3))]
                batch = [u for u in batch if not u.is_identity]
                before = set(cone.elements)
                present = [u for b in batches for u in b] + batch
                if cone.grow(batch):
                    assert _naive_cone(present, 3) is None, batches
                    # the cone lies inside the subsemigroup its words make
                    assert membership.contains_identity(present)[0], batches
                    cone.rollback()
                    assert cone.elements == before
                    reached += 1
                    continue
                batches.append(batch)
            present = [u for b in batches for u in b]
            expected = _naive_cone(present, 3)
            assert frozenset(map(fg.ReducedWord, cone.elements)) == expected, batches
            assert ro.close_truncated(present, 3) == expected, batches
            assert len(cone.index.words) == len(cone.elements)
            assert set(cone.index.words) == cone.elements
            assert not any(fg.bar(u) in cone.elements for u in cone.elements)
    assert reached > 100


def test_representable_queries_solve_one_system(monkeypatch, tmp_path):
    # the separator is solved first and returned before any search, which
    # settles the other roots without it, so neither decide_rg nor
    # order-extend --kind total solves the system twice
    calls = []
    find_separator = ro.abelian.find_separator

    def counted(vectors):
        calls.append(vectors)
        return find_separator(vectors)

    monkeypatch.setattr(ro.abelian, "find_separator", counted)
    # two separators, a root the Magnus order settles without a functional,
    # and a root the affine germ order settles, which solves its systems
    # through fourier_motzkin and not through find_separator
    cases = {
        "xx | xy": "INVALID",
        "x'y'xy": "UNKNOWN",
        "xx | xy | yx'": "INVALID",
        "yx'y | yx'y'x | yxxy'": "UNKNOWN",
    }
    for text, status in cases.items():
        joins = [w(t) for t in text.split("|")]
        calls.clear()
        assert ro.decide_rg(joins, 2, 1).status == status
        assert len(calls) == 1, text
        calls.clear()
        outcome = ro.extend_order(joins, 2, 1)
        assert len(calls) == 1, text
        assert isinstance(outcome, ro.abelian.Separator) == (status == "INVALID")
        if status == "INVALID":
            assert outcome.functional == find_separator(calls[0])
    path = str(tmp_path / "order.json")
    calls.clear()
    argv = ["order-extend", "--kind", "total", "--witness", path, "xx, xy"]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_search_state_dies_with_its_query(monkeypatch):
    # a pass that names itself keeps its enclosing scope in a reference
    # cycle until a gen-2 collection; with the collector off, every search
    # structure must be freed by the time its decider returns
    alive = []

    def tracked(owner, name):
        original = getattr(owner, name)

        class Tracked(original):
            def __init__(self, *args):
                super().__init__(*args)
                alive.append((name, weakref.ref(self)))

        monkeypatch.setattr(owner, name, Tracked)

    def tracked_products(*args):
        product = mul(*args)
        alive.append(("mul", weakref.ref(product)))
        return product

    tracked(membership, "IdentityClosure")
    tracked(membership, "WordAutomaton")
    tracked(ro, "_Cone")
    tracked(fg, "CancellationIndex")
    mul = fg.mul
    monkeypatch.setattr(fg, "mul", tracked_products)
    queries = (
        # an hm search below an open root, an rg search that refutes its
        # root and extracts its leaves, an rg search that exhausts its
        # bounds below a root no producer settles, a successful membership
        # test, a cone dead at its root, and two cs searches that branch
        # below an open root: a hard-search row and the set of the
        # branch_example_valid golden
        lambda: ro.decide_lg_hm(words("yx'yxy", "x'y'x", "x'y'y'"), 2).status,
        lambda: ro.decide_rg(words("yxyxx", "xy'x", "x'y'y'x'y"), 2, 1).status,
        lambda: ro.decide_rg(words("yyxy'x", "yy", "y'x'x'"), 2, 1).status,
        lambda: membership.contains_identity(words("xy", "y'x'"))[0],
        lambda: type(ro.extend_right_order(words("x", "x'y", "y'y'"), 2)).__name__,
        lambda: ro.decide_lg_cs(words("x'x'yxx", "xy'y'y'y'", "yx'x'"), 2).status,
        lambda: ro.decide_lg_cs(words(*S_WORDS), 2).status,
    )
    answers = (
        "INVALID", "VALID", "UNKNOWN", True, "RefutationLeaf", "INVALID", "VALID"
    )
    # the cs queries multiply letter tuples, so their cone and its index
    # are what they leave to free
    cone = {"_Cone", "CancellationIndex"}
    searched = {"IdentityClosure", "WordAutomaton"}
    built = (
        {"IdentityClosure"},
        searched,
        {"IdentityClosure"},
        {"WordAutomaton"},
        cone,
        cone,
        cone,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for query, answer, names in zip(queries, answers, built):
            alive.clear()
            assert query() == answer
            assert names <= {name for name, _ in alive}, answer
            assert all(ref() is None for _, ref in alive), answer
    finally:
        if enabled:
            gc.enable()
