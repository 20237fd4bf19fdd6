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

from conftest import SEED, words
from test_membership import HARD_HM_SETS
from ordcalc import abelian, certio, cli, membership, witnesses
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
    # a file that lists its cone as elements, in place of the generators
    # of the search's open path, is malformed before any ball is built
    doc = {
        "schema_version": certio.SCHEMA_VERSION,
        "kind": "truncated_right_order",
        "arity": 2,
        "level": 40,
        "elements": ["x"],
        "words": ["x"],
    }
    code = (
        "from ordcalc import certio, freegroup\n"
        "def refuse(*args):\n"
        "    raise AssertionError('the check built a ball')\n"
        "freegroup.ball = refuse\n"
        "try:\n"
        f"    certio.verify_witness_doc({doc!r})\n"
        "except certio.CertificateFormatError as error:\n"
        "    print(error)\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == "unknown field 'elements'\n"


def genuine_documents() -> list[dict]:
    """One genuine document of every witness kind."""
    s_words, t_words = words("xx", "yy", "x'y'"), words("xx", "xy", "yx'")
    conj = words("x y x'", "y'")
    cone = ro.decide_lg_cs(t_words, 2).certificate
    return [
        certio.truncated_order_doc(cone),
        certio.separator_doc(words("x", "xy"), 2, (-1, -1)),
        certio.abelian_order_doc(words("x", "xy"), 2, (1, 1)),
        certio.sign_assignment_doc(
            t_words, 2, ro.decide_lg_hm(t_words, 2).certificate
        ),
        certio.refutation_doc(
            s_words, 2, ro.extend_right_order(s_words, 2), "right_order"
        ),
        certio.refutation_doc(conj, 2, ro.rg_refute_bounded(conj, 2, 1), "order"),
        certio.bounds_doc(t_words, 2, BoundsReport(1)),
    ]


_WORD_TEXTS = ("x", "x'", "y", "xy", "y'x'", "xxy'", "z", "xzy'", "", "q", "x''", "+-")
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
    """The document with no words, and no signs where it has them, so that
    nothing but the missing words is wrong with it."""
    cleared = {"words": [], "signs": ""}
    return {**doc, **{key: value for key, value in cleared.items() if key in doc}}


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


def test_fields_no_check_reads_are_malformed(tmp_path):
    # each witness kind has one exact field set, so a file carries no
    # claim that nothing checks: a bounds report with the pivot list files
    # once had, a sign assignment with fields of other kinds, a cone with
    # stray fields, and a cone listed as elements, as files once were
    t_words = words("xx", "xy", "yx'")
    bounds = certio.bounds_doc(t_words, 2, BoundsReport(1))
    signs = certio.sign_assignment_doc(
        t_words, 2, ro.decide_lg_hm(t_words, 2).certificate
    )
    cone = certio.truncated_order_doc(ro.decide_lg_cs(t_words, 2).certificate)
    listed = {k: v for k, v in cone.items() if k != "generators"}
    generated = ro.close_truncated(t_words + words(*cone["generators"]), 2)
    listed["elements"] = sorted(map(fg.word_to_text, generated))
    forged = [
        ({**bounds, "pivots": ["z", "banana"]}, "pivots"),
        ({**signs, "pivots": 7, "level": "x"}, "level"),
        ({**cone, "junk": 1, "functional": [9]}, "functional"),
        (listed, "elements"),
    ]
    forged += [({**doc, "junk": 1}, "junk") for doc in genuine_documents()]
    for i, (doc, field) in enumerate(forged):
        try:
            certio.verify_witness_doc(doc)
        except certio.CertificateFormatError as error:
            assert str(error) == f"unknown field {field!r}", doc
        else:
            raise AssertionError(f"{doc['kind']} file with a {field} field accepted")
        path = tmp_path / f"{i}.json"
        path.write_text(certio.dumps(doc))
        assert cli.main(["check", str(path)]) == 3, doc


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


def _signs_below(arity: int, level: int, cone) -> bool:
    """Whether the cone holds every nonidentity reduced word shorter than
    the level, or its inverse."""
    alphabet = [c for g in range(1, arity + 1) for c in (g, -g)]
    for length in range(1, level):
        for w in itertools.product(alphabet, repeat=length):
            inverse = tuple(-c for c in reversed(w))
            if _reduce(w) == w and w not in cone and inverse not in cone:
                return False
    return True


def _naive_closure(level: int, generators):
    """The least set of letter tuples holding the generators and closed
    under products within the level, one round of new words at a time;
    None when a product is the identity."""

    def product(a, b):
        k = 0
        while k < len(a) and k < len(b) and a[-1 - k] == -b[k]:
            k += 1
        return a[: len(a) - k] + b[k:]

    cone, frontier = set(generators), set(generators)
    while frontier:
        products = set()
        for a in frontier:
            for b in cone:
                # factors longer together than the level must cancel
                short = len(a) + len(b) <= level
                if short or a[-1] == -b[0]:
                    products.add(product(a, b))
                if short or b[-1] == -a[0]:
                    products.add(product(b, a))
        if () in products:
            return None
        frontier = {p for p in products if len(p) <= level} - cone
        cone |= frontier
    return cone


def _generated_cone_holds(arity: int, level: int, words_, generators) -> bool:
    """Whether the words and generators, nonidentity words within the arity
    and the level, whose longest word sets the level, generate a positive
    cone truncated at the level.  The files it judges close far within
    the check's budget."""
    words_ = [_reduce(u) for u in words_]
    generators = words_ + [_reduce(u) for u in generators]
    for u in generators:
        if not u or len(u) > level or max(map(abs, u)) > arity:
            return False
    if level != max(map(len, words_)):
        return False
    cone = _naive_closure(level, generators)
    return cone is not None and _signs_below(arity, level, cone)


def _functional_holds(side: int, arity: int, functional, words_) -> bool:
    """Whether the functional on Z^arity has the side's sign on every word."""
    if len(functional) != arity:
        return False
    for word in words_:
        value = sum(functional[abs(c) - 1] * (1 if c > 0 else -1) for c in word)
        if side * value <= 0:
            return False
    return True


def _signs_hold(arity: int, word_texts, signs) -> bool:
    """Whether the signs, one + or - for each pivot, generate with the
    words, nonempty and within the arity, a semigroup that misses e.  The
    pivots are found from their definition: of each inverse pair of
    nonidentity quotients s' * t of prefixes of the words, the ShortLex
    smaller, in ShortLex order.  e is looked for by the search's
    membership.contains_identity, which shares no code with the check."""
    word_list = [_reduce(fg.scan_literals(t)) for t in word_texts]
    if not word_list or any(abs(c) > arity for u in word_list for c in u):
        return False
    prefixes = {u[:i] for u in word_list for i in range(len(u) + 1)}
    quotients = {_reduce(_inverse(s) + t) for s in prefixes for t in prefixes}

    def shortlex(u):
        return len(u), [fg.literal_rank(c) for c in u]

    pivots = {min(u, _inverse(u), key=shortlex) for u in quotients if u}
    pivots = sorted(pivots, key=shortlex)
    if len(pivots) != len(signs) or set(signs) - {"+", "-"}:
        return False
    signed = [p if c == "+" else _inverse(p) for p, c in zip(pivots, signs)]
    generators = [fg.ReducedWord(u) for u in word_list + signed]
    return not membership.contains_identity(generators)[0]


def _inverse(letters) -> tuple:
    return tuple(-c for c in reversed(letters))


def _claim_holds(doc: dict) -> bool:
    if doc["kind"] == "sign_assignment":
        return _signs_hold(doc["arity"], doc["words"], doc["signs"])
    if doc["kind"] == "truncated_right_order":
        word_list = [fg.scan_literals(t) for t in doc["words"]]
        generators = [fg.scan_literals(t) for t in doc["generators"]]
        return _generated_cone_holds(doc["arity"], doc["level"], word_list, generators)
    side = -1 if doc["kind"] == "separator" else 1
    word_list = [fg.scan_literals(t) for t in doc["words"]]
    return _functional_holds(side, doc["arity"], doc["functional"], word_list)


def _clone(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _path_mutants(doc: dict):
    """A generated cone file with each generator dropped, each generator's
    sign flipped, and its level moved by one either way."""
    for i, text in enumerate(doc["generators"]):
        flipped = fg.word_to_text(fg.bar(fg.scan_literals(text)))
        for replacement in ([], [flipped]):
            mutant = _clone(doc)
            mutant["generators"][i : i + 1] = replacement
            yield mutant
    for delta in (1, -1):
        mutant = _clone(doc)
        mutant["level"] += delta
        yield mutant


def _sign_mutants(doc: dict):
    """A sign assignment with each sign flipped, its last sign dropped, and
    a sign appended."""
    signs = doc["signs"]
    for i, c in enumerate(signs):
        yield {**doc, "signs": signs[:i] + {"+": "-", "-": "+"}[c] + signs[i + 1 :]}
    for changed in (signs[:-1], signs + "+"):
        yield {**doc, "signs": changed}


def _witness_mutants(doc: dict):
    """Each word dropped, each functional coefficient negated, each
    integer raised by one, each word literal flipped to the next literal
    of the alphabet, a cone's path mutants and a sign assignment's sign
    mutants."""
    lists = [k for k in ("words", "functional") if k in doc]
    integers = [k for k in ("arity", "level") if k in doc]
    alphabet = [c for g in range(1, doc["arity"] + 1) for c in (g, -g)]

    for key in lists:
        for i in range(len(doc[key])):
            mutant = _clone(doc)
            del mutant[key][i]
            yield mutant
    for i, c in enumerate(doc.get("functional", ())):
        for value in (-c, c + 1):
            mutant = _clone(doc)
            mutant["functional"][i] = value
            yield mutant
    for key in integers:
        mutant = _clone(doc)
        mutant[key] += 1
        yield mutant
    for key in ("words", "generators"):
        for i, text in enumerate(doc.get(key, ())):
            raw = fg.scan_literals(text)
            for j, code in enumerate(raw):
                flipped = alphabet[(alphabet.index(code) + 1) % len(alphabet)]
                mutant = _clone(doc)
                mutant[key][i] = fg.word_to_text(raw[:j] + (flipped,) + raw[j + 1 :])
                yield mutant
    if "generators" in doc:
        yield from _path_mutants(doc)
    if "signs" in doc:
        yield from _sign_mutants(doc)


def _corpus_witnesses(per_kind: int) -> list[dict]:
    """Genuine witnesses of the first corpus instances, in a seeded order,
    that yield one: all sets of one to three nonidentity words of length at
    most two over two generators; sign assignments come from hm."""
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    random.Random(SEED).shuffle(corpus)
    found: dict[str, list[dict]] = {
        "truncated_right_order": [],
        "separator": [],
        "abelian_order_witness": [],
        "sign_assignment": [],
    }
    for subset in corpus:
        cone = ro.extend_right_order(subset, 2)
        if isinstance(cone, TruncatedRightOrder):
            found["truncated_right_order"].append(certio.truncated_order_doc(cone))
        verdict = abelian.validity_abelian(subset, 2)
        if isinstance(verdict.certificate, abelian.Separator):
            functional = verdict.certificate.functional
            found["separator"].append(certio.separator_doc(subset, 2, functional))
            positive = tuple(-c for c in functional)
            found["abelian_order_witness"].append(
                certio.abelian_order_doc(subset, 2, positive)
            )
        verdict = ro.decide_lg_hm(subset, 2)
        if verdict.status == "INVALID":
            doc = certio.sign_assignment_doc(subset, 2, verdict.certificate)
            found["sign_assignment"].append(doc)
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


def test_sign_flips_are_judged_as_the_oracle_judges_them():
    # every hm INVALID witness of the corpus and of hard-search is
    # accepted, and each with one sign flipped exactly when the words and
    # the flipped signed pivots miss e
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    corpus += [words(*text.split(" | ")) for text in HARD_HM_SETS]
    judged, witnessed = {True: 0, False: 0}, 0
    for subset in corpus:
        verdict = ro.decide_lg_hm(subset, 2)
        if verdict.status != "INVALID":
            continue
        witnessed += 1
        doc = certio.sign_assignment_doc(subset, 2, verdict.certificate)
        assert certio.verify_witness_doc(doc) == [], doc
        assert _claim_holds(doc), doc
        for mutant in _sign_mutants(doc):
            accepted = certio.verify_witness_doc(mutant) == []
            holds = _claim_holds(mutant)
            assert accepted == holds, (holds, mutant)
            judged[holds] += 1
    assert witnessed == 460 + len(HARD_HM_SETS)
    # about one mutant in six still misses e
    assert min(judged.values()) > 900, judged


def test_a_long_word_signed_in_full_is_rejected_within_the_budget_under_a_cap():
    # one random 200-letter word has about 19,000 pivots of some 1.3
    # million letters, which a file of about 20 KB signs in full: walking
    # them out stops at the budget, before any generator is signed or the
    # identity is looked for
    code = (
        "import json, random\n"
        "from ordcalc import certio, freegroup, witnesses\n"
        "def refuse(*args):\n"
        "    raise AssertionError('the check looked for the identity')\n"
        "witnesses.reaches_identity = refuse\n"
        f"rng = random.Random({SEED})\n"
        "letters = []\n"
        "while len(letters) < 200:\n"
        "    code = rng.choice((1, -1, 2, -2))\n"
        "    if not letters or letters[-1] != -code:\n"
        "        letters.append(code)\n"
        "word = freegroup.ReducedWord(tuple(letters))\n"
        "n = len(witnesses.sign_pivots([word]))\n"
        "doc = {'schema_version': 2, 'kind': 'sign_assignment', 'arity': 2,\n"
        "       'words': [freegroup.word_to_text(word)], 'signs': '+' * n}\n"
        "print(json.dumps([n, certio.verify_witness_doc(doc)]))\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    n, issues = json.loads(result.stdout)
    assert n > 15_000, n
    assert issues == ["the pivots cost more than the check's budget to form"]


def test_pivot_walk_stops_at_its_budget():
    # xx | xy | yx' cost 73 letters to walk: 9 for their initial subterms
    # and 64 for the pairs they form
    joins = words("xx", "xy", "yx'")
    assert len(witnesses.sign_pivots(joins, budget=73)) == 11
    for budget in (72, 8):
        try:
            witnesses.sign_pivots(joins, budget=budget)
        except witnesses.BudgetExceeded:
            pass
        else:
            raise AssertionError(f"the walk ran past its budget {budget}")


def _generated_documents() -> list[dict]:
    """The cone files cs writes on the corpus and on the hard rows."""
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    corpus = [s for k in (1, 2, 3) for s in itertools.combinations(pool, k)]
    corpus += [words(*text.split(" | ")) for text in HARD_CS_SETS]
    docs = []
    for subset in corpus:
        verdict = ro.decide_lg_cs(subset, 2)
        if verdict.status == "INVALID":
            docs.append(certio.truncated_order_doc(verdict.certificate))
    assert len(docs) == 460 + len(HARD_CS_SETS)
    return docs


def test_path_mutants_are_judged_as_the_oracle_judges_them():
    # each generator dropped, each sign flipped and the level moved: the
    # check re-closes each file and must agree with a naive fixpoint.  A
    # flipped sign need not be rejected: on xy'x'y' | yx'y'y'x | x'x'y,
    # flipping either of the last two of its eight signs gives another cone
    judged = {True: 0, False: 0}
    for doc in _generated_documents():
        assert _claim_holds(doc), doc
        assert certio.verify_witness_doc(doc) == [], doc
        for mutant in _path_mutants(doc):
            try:
                accepted = certio.verify_witness_doc(mutant) == []
            except certio.CertificateFormatError:
                accepted = False
            holds = _claim_holds(mutant)
            assert accepted == holds, (holds, mutant)
            judged[holds] += 1
    assert min(judged.values()) > 50, judged


def _generated(arity: int, level: int, word_texts, generator_texts) -> dict:
    return {
        "schema_version": certio.SCHEMA_VERSION,
        "kind": "truncated_right_order",
        "arity": arity,
        "level": level,
        "words": list(word_texts),
        "generators": list(generator_texts),
    }


def test_a_forged_level_is_rejected_before_any_ball_or_cone(monkeypatch):
    # the level must be the longest word's, so a file cannot make the
    # check close or count a ball larger than its query's
    def refuse(*args, **kwargs):
        raise AssertionError("the check built a ball or a cone")

    monkeypatch.setattr(fg, "ball", refuse)
    monkeypatch.setattr(fg, "CancellationIndex", refuse)
    doc = _generated(2, 40, ["x"], ["x", "y"])
    assert certio.verify_witness_doc(doc) == [
        "level is not the length of the longest word"
    ]


def test_deep_generated_files_are_rejected_within_the_budget_under_a_cap():
    # one long word sets the level, and x and y close to every positive
    # word within it: 2^23 - 2 of them at level 22.  The closure stops at
    # its budget, and no ball is built
    code = (
        "import json\n"
        "from ordcalc import certio, freegroup\n"
        "def refuse(*args):\n"
        "    raise AssertionError('the check built a ball')\n"
        "freegroup.ball = refuse\n"
        "docs = [{**%r, 'level': n, 'words': ['x' * n]} for n in (22, 40)]\n"
        "print(json.dumps([certio.verify_witness_doc(doc) for doc in docs]))\n"
    ) % _generated(2, 1, ["x"], ["x", "y"])
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    budget = ["the cone costs more than the check's budget to close"]
    assert json.loads(result.stdout) == [budget, budget]


def test_closure_stops_at_its_budget(monkeypatch):
    # x^10, x and y close to the 2,046 positive words within level 10
    generators = [(1,) * 10, (1,), (2,)]
    assert len(witnesses.close_within(10, generators)) == 2046
    monkeypatch.setattr(witnesses, "CLOSURE_BUDGET", 1000)
    try:
        witnesses.close_within(10, generators)
    except witnesses.BudgetExceeded:
        pass
    else:
        raise AssertionError("the closure ran past its budget")


def test_level_eight_cones_close_within_the_budget():
    # the budget leaves room for the cones the search writes at level 8
    joins = words("x y x y x' y y x", "x' y' y' x' y y x", "x y' y' x y' x y")
    verdict = ro.decide_lg_cs(joins, 2)
    assert verdict.status == "INVALID"
    doc = certio.truncated_order_doc(verdict.certificate)
    assert doc["level"] == 8
    assert certio.verify_witness_doc(doc) == []


def test_generated_cone_bounds_its_generators():
    # at level 1 nothing lies below the level, so x alone is a cone
    assert certio.verify_witness_doc(_generated(2, 1, ["x"], [])) == []
    for generators, issue in (
        (["y x"], "generator y x exceeds level"),
        (["e"], "generator e is the identity"),
        (["y y'"], "generator e is the identity"),
    ):
        doc = _generated(2, 1, ["x"], generators)
        assert certio.verify_witness_doc(doc) == [issue], generators
        assert not _claim_holds(doc)
    doc = _generated(2, 2, ["x", "y"], ["x x"])
    assert certio.verify_witness_doc(doc) == [
        "level is not the length of the longest word"
    ]


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
