"""Witness files that are forged or mutated are rejected cleanly: with a
list of issues or a CertificateFormatError, never another exception, and
within a fixed address-space cap.  Targeted mutants of genuine files are
accepted exactly when brute-force oracles find their claim still true."""

import itertools
import json
import os
import pathlib
import random
import resource
import subprocess
import sys

from conftest import SEED, random_reduced_word, words
from ordcalc import abelian, certio, cli, witnesses
from ordcalc import calculus as ca
from ordcalc import freegroup as fg
from ordcalc import rightorder as ro
from ordcalc.witnesses import BoundsReport, TruncatedRightOrder

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ADDRESS_CAP = 512 << 20
FUZZ_SEED = 20000
FUZZ_MUTANTS = 20000


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under ADDRESS_CAP of address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))

    path = [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=cap,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_tiny_witness_with_a_deep_level_is_rejected_under_a_cap():
    doc = {
        "schema_version": certio.SCHEMA_VERSION,
        "kind": "truncated_right_order",
        "arity": 2,
        "level": 40,
        "elements": ["x"],
        "words": ["x"],
    }
    code = (
        "import json\n"
        "from ordcalc import certio\n"
        f"print(json.dumps(certio.verify_witness_doc({doc!r})))\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    issues = json.loads(result.stdout)
    assert any("below the level" in issue for issue in issues)


def genuine_documents() -> list[dict]:
    """One genuine document of every witness kind."""
    s_words, t_words = words("xx", "yy", "x'y'"), words("xx", "xy", "yx'")
    conj = words("x y x'", "y'")
    return [
        certio.truncated_order_doc(ro.decide_lg_cs(t_words, 2).certificate, t_words),
        certio.separator_doc(words("x", "xy"), 2, (-1, -1)),
        certio.abelian_order_doc(words("x", "xy"), 2, (1, 1)),
        certio.sign_assignment_doc(
            t_words, 2, ro.decide_lg_hm(t_words, 2).certificate
        ),
        certio.refutation_doc(
            s_words, 2, ro.extend_right_order(s_words, 2), "right_order"
        ),
        certio.refutation_doc(conj, 2, ro.rg_refute_bounded(conj, 2, 1), "order"),
        certio.bounds_doc(t_words, 2, BoundsReport(1, ro.sign_pivots(t_words))),
    ]


_WORD_TEXTS = ("x", "x'", "y", "xy", "y'x'", "xxy'", "z", "xzy'", "", "q", "x''")
_INTEGERS = (0, 1, -1, 2, 3, 40, -7, 10**6, -(10**6))


def _random_value(rng: random.Random):
    choice = rng.randrange(7)
    if choice == 0:
        return rng.choice(_INTEGERS)
    if choice == 1:
        return rng.choice(_WORD_TEXTS)
    if choice == 2:
        return [rng.choice(_WORD_TEXTS) for _ in range(rng.randint(0, 3))]
    if choice == 3:
        return [rng.choice(_INTEGERS) for _ in range(rng.randint(0, 3))]
    return rng.choice((None, True, {}, {"kind": "leaf"}))


def _containers(value, out):
    """Every dict and list inside value, value included."""
    if isinstance(value, (dict, list)):
        out.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of doc with one to three fields replaced, removed or added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(_containers(doc, []))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if keys and rng.random() < 0.15:
            del target[rng.choice(keys)]
        elif keys:
            target[rng.choice(keys)] = _random_value(rng)
        elif isinstance(target, list):
            target.append(_random_value(rng))
    return doc


def fuzz(seed: int, count: int) -> list[str]:
    """Verify ``count`` mutants of the genuine documents; the faults found."""
    rng = random.Random(seed)
    genuine = genuine_documents()
    faults = []
    for _ in range(count):
        doc = mutate(rng.choice(genuine), rng)
        try:
            issues = certio.verify_witness_doc(doc)
        except certio.CertificateFormatError:
            continue
        except Exception as exc:  # any other class is a fault
            faults.append(f"{type(exc).__name__}: {exc} on {json.dumps(doc)}")
            continue
        if not isinstance(issues, list):
            faults.append(f"returned {issues!r} on {json.dumps(doc)}")
    return faults


def test_genuine_documents_verify():
    for doc in genuine_documents():
        assert certio.verify_witness_doc(doc) == [], doc["kind"]


def _emptied(doc: dict) -> dict:
    """The document with no words, and no signs or pivots where it lists
    them, so that nothing but the missing words is wrong with it."""
    cleared = {key: [] for key in ("words", "signs", "pivots") if key in doc}
    return {**doc, **cleared}


def test_witnesses_of_no_words_are_malformed(tmp_path):
    # no query has zero joinands, so a file with no words proves nothing
    kinds = set()
    for doc in genuine_documents():
        forged = _emptied(doc)
        try:
            certio.verify_witness_doc(forged)
        except certio.CertificateFormatError as error:
            assert "at least one word" in str(error), doc["kind"]
        else:
            raise AssertionError(f"{doc['kind']} file with no words accepted")
        path = tmp_path / f"{doc['kind']}.json"
        path.write_text(certio.dumps(forged))
        assert cli.main(["check", str(path)]) == 3, doc["kind"]
        kinds.add(doc["kind"])
    assert kinds == {
        "truncated_right_order",
        "separator",
        "abelian_order_witness",
        "sign_assignment",
        "refutation",
        "bounds_exhausted",
    }


# the search, query parsing, verdicts and the command line: no check needs them
SEARCH_MODULES = (
    "membership",
    "rightorder",
    "abelian",
    "biorder",
    "fourier_motzkin",
    "term",
    "verdicts",
    "cli",
)
TRUSTED_BASE = ("calculus", "certio", "freegroup", "witnesses")


def test_checking_loads_only_the_trusted_base(tmp_path):
    joins = words("xx", "yy", "x'y'")
    goal = ca.hypersequent_of_words(joins)
    proof = certio.proof_doc(
        ca.CalculusId.GLGSTAR, [(goal, ro.decide_lg_cs(joins, 2).certificate)]
    )
    documents = [proof] + genuine_documents()
    files = [str(tmp_path / f"{i}.json") for i in range(len(documents))]
    for name, doc in zip(files, documents):
        pathlib.Path(name).write_text(certio.dumps(doc))
    library = (
        "from ordcalc import calculus, certio\n"
        "proof, *witnesses = [\n"
        f"    certio.loads(pathlib.Path(f).read_text()) for f in {files!r}\n"
        "]\n"
        "declared, conjuncts = certio.load_proof(proof)\n"
        "assert all(calculus.check(declared, d, g) for g, d in conjuncts)\n"
        "assert all(certio.verify_witness_doc(doc) == [] for doc in witnesses)\n"
    )
    # ordcalc check FILE: the command line adds itself and its exit codes
    command = (
        "import contextlib, io\n"
        "from ordcalc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert all(cli.main(['check', f]) == 0 for f in {files!r})\n"
    )
    for check, front in ((library, set()), (command, {"cli", "verdicts"})):
        code = (
            "import json, pathlib, sys\n"
            + check
            + "print(json.dumps([m for m in sys.modules if m.startswith('ordcalc')]))\n"
        )
        result = _run_capped(code)
        assert result.returncode == 0, result.stderr[-2000:]
        loaded = {name.removeprefix("ordcalc.") for name in json.loads(result.stdout)}
        assert not loaded & (set(SEARCH_MODULES) - front)
        assert loaded == {"ordcalc", *TRUSTED_BASE, *front}


def test_mutated_witness_documents_fail_only_as_format_errors():
    code = (
        "import json, test_witness_robustness as t\n"
        f"print(json.dumps(t.fuzz({FUZZ_SEED}, {FUZZ_MUTANTS})))\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    faults = json.loads(result.stdout)
    assert faults == [], "\n".join(sorted(set(faults))[:20])


# ---------------------------------------------------------------------------
# targeted mutants of genuine witnesses, judged by brute-force oracles


def _reduce(letters) -> tuple:
    out: list[int] = []
    for code in letters:
        if out and out[-1] == -code:
            out.pop()
        else:
            out.append(code)
    return tuple(out)


def _cone_holds(arity: int, level: int, elements) -> bool:
    """Whether the elements are a positive cone truncated at the level: no
    identity, nothing longer than the level, closed under products within
    it, and a sign for every nonidentity word shorter than it."""
    cone = {_reduce(e) for e in elements}
    if () in cone or any(len(p) > level for p in cone):
        return False
    for s, t in itertools.product(cone, repeat=2):
        st = _reduce(s + t)
        if len(st) <= level and st not in cone:
            return False
    alphabet = [c for g in range(1, arity + 1) for c in (g, -g)]
    for length in range(1, level):
        for w in itertools.product(alphabet, repeat=length):
            inverse = tuple(-c for c in reversed(w))
            if _reduce(w) == w and w not in cone and inverse not in cone:
                return False
    return True


def _functional_holds(side: int, arity: int, functional, words_) -> bool:
    """Whether the functional on Z^arity has the side's sign on every word."""
    if len(functional) != arity:
        return False
    for word in words_:
        value = sum(functional[abs(c) - 1] * (1 if c > 0 else -1) for c in word)
        if side * value <= 0:
            return False
    return True


def _claim_holds(doc: dict) -> bool:
    if doc["kind"] == "truncated_right_order":
        elements = [fg.scan_literals(t) for t in doc["elements"]]
        # the cone holds the words it is written for
        cone = {_reduce(e) for e in elements}
        if any(_reduce(fg.scan_literals(t)) not in cone for t in doc["words"]):
            return False
        return _cone_holds(doc["arity"], doc["level"], elements)
    side = -1 if doc["kind"] == "separator" else 1
    word_list = [fg.scan_literals(t) for t in doc["words"]]
    return _functional_holds(side, doc["arity"], doc["functional"], word_list)


def _witness_mutants(doc: dict):
    """Each element dropped, each functional coefficient negated, each
    integer raised by one, and each word literal flipped to the next
    literal of the alphabet."""
    lists = [k for k in ("elements", "words", "functional") if k in doc]
    integers = [k for k in ("arity", "level") if k in doc]
    alphabet = [c for g in range(1, doc["arity"] + 1) for c in (g, -g)]

    def clone():
        return json.loads(json.dumps(doc))

    for key in lists:
        for i in range(len(doc[key])):
            mutant = clone()
            del mutant[key][i]
            yield mutant
    for i, c in enumerate(doc.get("functional", ())):
        for value in (-c, c + 1):
            mutant = clone()
            mutant["functional"][i] = value
            yield mutant
    for key in integers:
        mutant = clone()
        mutant[key] += 1
        yield mutant
    for key in ("elements", "words"):
        for i, text in enumerate(doc.get(key, ())):
            raw = fg.scan_literals(text)
            for j, code in enumerate(raw):
                flipped = alphabet[(alphabet.index(code) + 1) % len(alphabet)]
                mutant = clone()
                mutant[key][i] = fg.word_to_text(raw[:j] + (flipped,) + raw[j + 1 :])
                yield mutant


def _corpus_witnesses(per_kind: int) -> list[dict]:
    """Genuine witnesses of the first corpus instances, in a seeded order,
    that yield one: all sets of one to three nonidentity words of length at
    most two over two generators."""
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    random.Random(SEED).shuffle(corpus)
    found: dict[str, list[dict]] = {
        "truncated_right_order": [], "separator": [], "abelian_order_witness": []
    }
    for subset in corpus:
        cone = ro.extend_right_order(subset, 2)
        if isinstance(cone, TruncatedRightOrder):
            doc = certio.truncated_order_doc(cone, subset)
            found["truncated_right_order"].append(doc)
        verdict = abelian.validity_abelian(subset, 2)
        if isinstance(verdict.certificate, abelian.Separator):
            functional = verdict.certificate.functional
            found["separator"].append(certio.separator_doc(subset, 2, functional))
            positive = tuple(-c for c in functional)
            found["abelian_order_witness"].append(
                certio.abelian_order_doc(subset, 2, positive)
            )
        if min(map(len, found.values())) >= per_kind:
            break
    return [doc for docs in found.values() for doc in docs[:per_kind]]


def test_witness_mutants_are_judged_as_the_oracles_judge_them():
    judged = {True: 0, False: 0}
    for doc in _corpus_witnesses(per_kind=12):
        assert _claim_holds(doc), doc
        for mutant in _witness_mutants(doc):
            try:
                accepted = certio.verify_witness_doc(mutant) == []
            except certio.CertificateFormatError:
                accepted = False
            holds = _claim_holds(mutant)
            assert accepted == holds, (holds, mutant)
            judged[holds] += 1
    # both directions are exercised
    assert min(judged.values()) > 50, judged


def _all_pairs_violations(order: TruncatedRightOrder) -> list[str]:
    """TruncatedRightOrder.violations as it was before the cancellation
    index: every ordered pair of elements is multiplied, in the order of
    the elements."""
    issues = []
    elems = order.elements
    if fg.IDENTITY in elems:
        issues.append("identity is in the cone")
    for w in elems:
        if len(w) > order.level:
            issues.append(f"element {fg.word_to_text(w)} exceeds level")
    for s in elems:
        for t in elems:
            st = fg.mul(s, t)
            if len(st) <= order.level and st not in elems:
                issues.append(
                    "closure gap: %s * %s" % (fg.word_to_text(s), fg.word_to_text(t))
                )
    if witnesses._ball_exceeds(order.arity, order.level - 1, 2 * len(elems)):
        issues.append("too few elements to sign every word below the level")
        return issues
    for w in fg.ball(order.arity, order.level - 1):
        if not w.is_identity and w not in elems and fg.inv(w) not in elems:
            issues.append(f"undetermined element {fg.word_to_text(w)}")
    return issues


# the six cs rows of the hard-search benchmark table, whose cones hold
# about 230 elements at level 5
HARD_CS_SETS = (
    "x'x'yxx | xy'y'y'y' | yx'x'",
    "xy'x'y' | yx'y'y'x | x'x'y",
    "xyxyy | y'x'x' | yyxy'",
    "y'x'y'xy' | xxxx | y'xy'y'",
    "yyxy' | y'xyx'x' | x'yy",
    "yxy'x | x'x'yx | x'x'yyy",
)


def _cone_mutants(doc: dict):
    """The mutants of a cone file that change its elements or its level."""
    for mutant in _witness_mutants(doc):
        if (mutant["elements"], mutant["level"]) != (doc["elements"], doc["level"]):
            yield mutant


def test_cone_closure_issues_match_the_all_pairs_oracle():
    # the index visits only the pairs whose product can stay within the
    # level, in the old order, so every issue list is the same, in order
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    docs = []
    for subset in corpus:
        cone = ro.extend_right_order(subset, 2)
        if isinstance(cone, TruncatedRightOrder):
            docs.append(certio.truncated_order_doc(cone, subset))
    assert len(docs) == 460
    rng = random.Random(SEED)
    hard = []
    for text in HARD_CS_SETS:
        joins = words(*text.split(" | "))
        doc = certio.truncated_order_doc(ro.decide_lg_cs(joins, 2).certificate, joins)
        mutants = list(_cone_mutants(doc))
        raised = [m for m in mutants if m["level"] != doc["level"]]
        others = [m for m in mutants if m["level"] == doc["level"]]
        # the raised level, and a sample of the rest: each costs the oracle
        # some 50,000 products
        hard += [doc, *raised, *rng.sample(others, 4)]
    compared = {True: 0, False: 0}
    for doc in docs + [m for d in docs for m in _cone_mutants(d)] + hard:
        arity, level = doc["arity"], doc["level"]
        elements = frozenset(fg.word_from_text(t, arity) for t in doc["elements"])
        order = TruncatedRightOrder(arity, level, elements)
        issues = order.violations()
        assert issues == _all_pairs_violations(order), doc
        compared[not issues] += 1
    assert min(compared.values()) > 400, compared


def _reduced_word_violations(order: TruncatedRightOrder) -> list[str]:
    """TruncatedRightOrder.violations as it was over ReducedWord: products
    by fg.mul, looked up among the elements, and the ball's words inverted
    by fg.inv.  The cancellation index, which holds letter tuples, lists
    the factors of each element's letters."""
    issues = []
    elems = order.elements
    if fg.IDENTITY in elems:
        issues.append("identity is in the cone")
    for w in elems:
        if len(w) > order.level:
            issues.append(f"element {fg.word_to_text(w)} exceeds level")
        if w.max_generator() > order.arity:
            issues.append(f"element {fg.word_to_text(w)} exceeds arity")
    listed = list(elems)
    index = fg.CancellationIndex(order.level, [u.letters for u in listed])
    for s in listed:
        for position in index.right_factors(s.letters):
            t = listed[position]
            st = fg.mul(s, t)
            if len(st) <= order.level and st not in elems:
                issues.append(
                    "closure gap: %s * %s" % (fg.word_to_text(s), fg.word_to_text(t))
                )
    if witnesses._ball_exceeds(order.arity, order.level - 1, 2 * len(elems)):
        issues.append("too few elements to sign every word below the level")
        return issues
    for w in fg.ball(order.arity, order.level - 1):
        if w.is_identity:
            continue
        if w not in elems and fg.inv(w) not in elems:
            issues.append(f"undetermined element {fg.word_to_text(w)}")
    return issues


def _order_mutants(order: TruncatedRightOrder, rng: random.Random):
    """The order with an element dropped, with an element inverted, and
    with a word added that may exceed the level or the arity; three of
    each, chosen by rng."""
    elements = order.elements
    for u in rng.sample(sorted(elements), min(3, len(elements))):
        yield elements - {u}
        yield elements - {u} | {fg.inv(u)}
    for _ in range(3):
        u = random_reduced_word(rng, order.arity + 1, order.level + 1)
        while u.is_identity or u in elements:
            u = random_reduced_word(rng, order.arity + 1, order.level + 1)
        yield elements | {u}


def test_cone_issues_match_the_reduced_word_oracle():
    # the check runs on letter tuples and must list the same issues, in
    # the same order, as it did over ReducedWord
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    corpus += [words(*text.split(" | ")) for text in HARD_CS_SETS]
    genuine = [ro.extend_right_order(subset, 2) for subset in corpus]
    genuine = [order for order in genuine if isinstance(order, TruncatedRightOrder)]
    assert len(genuine) == 460 + len(HARD_CS_SETS)
    rng = random.Random(SEED)
    rejected = 0
    for order in genuine:
        assert order.violations() == _reduced_word_violations(order) == [], order
        for elements in _order_mutants(order, rng):
            mutant = TruncatedRightOrder(order.arity, order.level, elements)
            issues = mutant.violations()
            assert issues == _reduced_word_violations(mutant), mutant
            rejected += bool(issues)
    # of the up to nine mutants of each order, most are rejected
    assert rejected > 7 * len(genuine), rejected
