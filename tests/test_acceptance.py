"""Acceptance suite: one test per criterion, each printing a pass line.

Budgets are asserted with time.monotonic around the relevant work; the
randomized parts are seeded (ORDCALC_SEED) so reruns are reproducible.
"""

import itertools
import json
import pathlib
import random
import time

import numpy as np
import pytest

from conftest import SEED, words
from schema1 import convert
from ordcalc import abelian as ab
from ordcalc import calculus as ca
from ordcalc import certio, cli
from ordcalc import freegroup as fg
from ordcalc import rightorder as ro
from ordcalc.calculus import CalculusId
from ordcalc.witnesses import TruncatedRightOrder

S_INPUT = "xx | yy | x'y'"
T_INPUT = "xx | xy | yx'"


def _report(name: str, detail: str) -> None:
    print(f"criterion {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def corpus():
    """Exhaustive criterion-3 corpus with both procedures and certificates."""
    pool = [u for u in fg.ball(2, 2) if not u.is_identity]
    instances = []
    for size in (1, 2, 3):
        instances.extend(itertools.combinations(pool, size))
    assert len(pool) == 16 and len(instances) == 696

    start = time.monotonic()
    records = []
    for subset in instances:
        subset = list(subset)
        cs = ro.decide_lg_cs(subset, 2)
        hm = ro.decide_lg_hm(subset, 2)
        dichotomy_extends = isinstance(
            ro.extend_right_order(subset, 2), TruncatedRightOrder
        )
        records.append((subset, cs, hm, dichotomy_extends))
    elapsed = time.monotonic() - start
    return {"records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def balanced_goals():
    """Balanced literal sequences of length <= 8 over two generators."""
    alphabet = (1, -1, 2, -2)
    sequences = []
    for length in range(0, 9):
        for seq in itertools.product(alphabet, repeat=length):
            if sum(1 for c in seq if c == 1) != sum(1 for c in seq if c == -1):
                continue
            if sum(1 for c in seq if c == 2) != sum(1 for c in seq if c == -2):
                continue
            sequences.append(seq)
    assert len(sequences) == 5341
    return sequences


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_branching_example_valid(tmp_path, capsys):
    proof_path = tmp_path / "s.proof.json"
    start = time.monotonic()

    closure = ro.close_truncated(words("xx", "yy", "x'y'"), 2)
    assert closure == frozenset(words("xx", "yy", "x'y'", "xy'", "x'y", "xy"))

    code = cli.main(
        ["decide", "--variety", "lgroup", S_INPUT, "--proof", str(proof_path)]
    )
    assert code == 0
    assert cli.main(["check-proof", str(proof_path)]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    capsys.readouterr()
    _report("1", f"closure is the six-element set, proof accepted, {elapsed:.2f}s")


def test_criterion_2_branching_example_invalid(tmp_path, capsys):
    witness_path = tmp_path / "t.witness.json"
    start = time.monotonic()
    code = cli.main(
        [
            "decide", "--variety", "lgroup", T_INPUT,
            "--witness", str(witness_path),
        ]
    )
    assert code == 1
    assert cli.main(["check", str(witness_path)]) == 0
    doc = json.loads(witness_path.read_text())
    assert doc["kind"] == "truncated_right_order" and doc["level"] == 2
    elements = frozenset(fg.word_from_text(t) for t in doc["elements"])
    assert elements == frozenset(words("xx", "xy", "yx'", "yx", "yy", "x", "y"))
    witness = TruncatedRightOrder(doc["arity"], doc["level"], elements)
    assert witness.verify()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    capsys.readouterr()
    _report("2", f"2-truncated witness with all invariants, {elapsed:.2f}s")


def test_criterion_3_cross_procedure_agreement(corpus):
    disagreements = 0
    rejected = 0
    n_valid = 0
    start = time.monotonic()
    for subset, cs, hm, dichotomy_extends in corpus["records"]:
        if cs.status != hm.status:
            disagreements += 1
            continue
        if dichotomy_extends != (cs.status == "INVALID"):
            disagreements += 1
            continue
        if cs.status == "VALID":
            n_valid += 1
            goal = ca.hypersequent_of_words(subset)
            if not ca.check(CalculusId.GLGSTAR, cs.certificate, goal).ok:
                rejected += 1
            if not ca.check(CalculusId.GLGSTAR, hm.certificate, goal).ok:
                rejected += 1
    elapsed = corpus["elapsed"] + (time.monotonic() - start)
    assert disagreements == 0
    assert rejected == 0
    assert elapsed < 300
    _report(
        "3",
        f"696 instances agree, {n_valid} valid derivations accepted, {elapsed:.1f}s",
    )


_GRID_CACHE = {}


def _grid(m: int, bound: int) -> np.ndarray:
    key = (m, bound)
    if key not in _GRID_CACHE:
        if m == 0:
            _GRID_CACHE[key] = np.zeros((1, 0), dtype=np.int64)
        else:
            side = np.arange(bound + 1, dtype=np.int64)
            mesh = np.meshgrid(*([side] * m), indexing="ij")
            _GRID_CACHE[key] = np.stack(mesh, axis=-1).reshape(-1, m)
    return _GRID_CACHE[key]


def _oracle_combination(vectors, bound=20):
    """Meet-in-the-middle search for lam in [0..bound]^n, lam != 0, sum lam v = 0."""
    n, k = len(vectors), len(vectors[0])
    split = n // 2
    matrix = np.array(vectors, dtype=np.int64)
    grid_left, grid_right = _grid(split, bound), _grid(n - split, bound)
    sums_left = grid_left @ matrix[:split]
    sums_right = grid_right @ matrix[split:]
    radix = 1024 ** np.arange(k, dtype=np.int64)
    keys_left = (sums_left + 512) @ radix
    keys_right = (512 - sums_right) @ radix
    order = np.argsort(keys_left, kind="stable")
    sorted_keys = keys_left[order]
    lo = np.searchsorted(sorted_keys, keys_right, side="left")
    hi = np.searchsorted(sorted_keys, keys_right, side="right")
    for j in np.nonzero(hi > lo)[0]:
        for position in range(lo[j], hi[j]):
            lam = tuple(grid_left[order[position]]) + tuple(grid_right[j])
            if any(lam):
                return lam
    return None


_SHELL_CACHE = {}


def _shell(k: int, radius: int) -> np.ndarray:
    """Integer points with sup-norm exactly radius."""
    key = (k, radius)
    if key not in _SHELL_CACHE:
        side = np.arange(-radius, radius + 1, dtype=np.int64)
        mesh = np.meshgrid(*([side] * k), indexing="ij")
        box = np.stack(mesh, axis=-1).reshape(-1, k)
        _SHELL_CACHE[key] = box[np.abs(box).max(axis=1) == radius]
    return _SHELL_CACHE[key]


def _oracle_separator(vectors, bound=20):
    """Shell scan for an integer functional strictly negative on every vector."""
    matrix = np.array(vectors, dtype=np.int64).T
    for radius in range(1, bound + 1):
        shell = _shell(len(vectors[0]), radius)
        hits = np.nonzero((shell @ matrix < 0).all(axis=1))[0]
        if hits.size:
            return tuple(int(c) for c in shell[hits[0]])
    return None


def test_criterion_4_gordan_exclusivity():
    rng = random.Random(SEED)
    start = time.monotonic()
    combinations = separators = inconclusive = 0
    for _ in range(10_000):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n)]
        certificate = ab.decide_abelian(vectors)
        if isinstance(certificate, ab.Combination):
            combinations += 1
            assert ab.verify_combination(vectors, certificate.multipliers)
            lam = _oracle_combination(vectors)
            if lam is None:
                # outside the oracle's box; the verified combination still
                # excludes any separator (pair it with y to get 0 < 0)
                inconclusive += 1
            else:
                assert ab.verify_combination(vectors, lam)
        else:
            separators += 1
            assert ab.verify_separator(vectors, certificate.functional)
            # the other side must stay empty within the oracle bounds
            assert _oracle_combination(vectors) is None
            y = _oracle_separator(vectors)
            if y is None:
                inconclusive += 1
            else:
                assert ab.verify_separator(vectors, y)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    assert inconclusive < 500  # the oracle should settle almost every instance
    _report(
        "4",
        f"{combinations} combinations / {separators} separators, "
        f"{inconclusive} outside oracle bounds, {elapsed:.1f}s",
    )


def test_criterion_5_ga_completeness_on_balanced_sequents(balanced_goals):
    start = time.monotonic()
    for seq in balanced_goals:
        goal = ca.Hypersequent.of([ca.Sequent(seq)])
        derivation = ca.derive_ga([fg.reduce(seq)], (1,))
        assert ca.check(CalculusId.GA, derivation, goal).ok, seq
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("5", f"{len(balanced_goals)} balanced sequents derived, {elapsed:.1f}s")


def test_criterion_6_soundness_sampling(corpus, balanced_goals):
    rng = random.Random(SEED)
    assignments = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(1000)]
    goals = [tuple(words("xx", "yy", "x'y'"))]
    goals.extend(
        tuple(subset)
        for subset, cs, _, _ in corpus["records"]
        if cs.status == "VALID"
    )
    goals.extend((fg.reduce(seq),) for seq in balanced_goals)
    violations = 0
    for goal in goals:
        vectors = [fg.abelianize(w, 2) for w in goal]
        for a in assignments:
            # Z-evaluation of a word is the pairing of its exponent vector
            # with the assignment
            if max(v[0] * a[0] + v[1] * a[1] for v in vectors) < 0:
                violations += 1
                break
    assert violations == 0
    _report("6", f"{len(goals)} valid goals x 1000 assignments, no violation")


def test_criterion_7_representable_three_valuedness(capsys):
    assert (
        cli.main(["decide", "--variety", "representable", "x | x'", "--bound-L", "0"])
        == 0
    )
    assert cli.main(["decide", "--variety", "representable", "x"]) == 1
    assert cli.main(["decide", "--variety", "representable", "x' y' x y"]) == 2
    capsys.readouterr()
    _report("7", "VALID at L=0, separator countermodel, commutator UNKNOWN")


# ---------------------------------------------------------------------------
# criterion 8: mutation robustness


def _literal_alphabet(arity: int) -> list[int]:
    return [c for g in range(1, arity + 1) for c in (g, -g)]


def _flip_literal(text: str, index: int, alphabet: list[int]) -> str:
    raw = list(fg.scan_literals(text))
    code = raw[index]
    raw[index] = alphabet[(alphabet.index(code) + 1) % len(alphabet)]
    return fg.word_to_text(tuple(raw))


def _doc_mutants(doc: dict):
    """One mutant per literal flip and per in-calculus rule retag."""
    rules = sorted(ca.CALCULUS_RULES[CalculusId(doc["calculus"])])
    arity = 2
    for conjunct in doc["conjuncts"]:
        for text in conjunct["goal"]:
            arity = max(arity, *(abs(c) for c in fg.scan_literals(text)), 2)
    alphabet = _literal_alphabet(arity)

    def clone():
        return json.loads(json.dumps(doc))

    def preorder(nodes):
        """Table indices from the root down, each node before its premises."""
        todo = [len(nodes) - 1]
        while todo:
            index = todo.pop()
            yield index
            todo.extend(reversed(nodes[index]["premises"]))

    for c_index, conjunct in enumerate(doc["conjuncts"]):
        for g_index, text in enumerate(conjunct["goal"]):
            for l_index in range(len(fg.scan_literals(text))):
                mutant = clone()
                mutant["conjuncts"][c_index]["goal"][g_index] = _flip_literal(
                    text, l_index, alphabet
                )
                yield mutant
        for index in preorder(conjunct["nodes"]):
            node = conjunct["nodes"][index]
            for other in rules:
                if other != node["rule"]:
                    mutant = clone()
                    mutant["conjuncts"][c_index]["nodes"][index]["rule"] = other
                    yield mutant
            for name, text in sorted(node["certificates"].items()):
                for l_index in range(len(fg.scan_literals(text))):
                    mutant = clone()
                    mutant["conjuncts"][c_index]["nodes"][index]["certificates"][
                        name
                    ] = _flip_literal(text, l_index, alphabet)
                    yield mutant
            for s_index, text in enumerate(node["conclusion"]):
                for l_index in range(len(fg.scan_literals(text))):
                    mutant = clone()
                    mutant["conjuncts"][c_index]["nodes"][index]["conclusion"][
                        s_index
                    ] = _flip_literal(text, l_index, alphabet)
                    yield mutant


def _doc_rejected(doc: dict) -> bool:
    try:
        calculus, conjuncts = certio.load_proof(doc)
    except certio.CertificateFormatError:
        return True
    for goal, derivation in conjuncts:
        if not ca.check(calculus, derivation, goal).ok:
            return True
    return False


def _node_count(derivation) -> int:
    return 1 + sum(_node_count(p) for p in derivation.premises)


def _golden_docs(corpus):
    goldens = []
    # branching-procedure derivations spread across the corpus size range
    valids = sorted(
        (
            (subset, cs.certificate)
            for subset, cs, _, _ in corpus["records"]
            if cs.status == "VALID"
        ),
        key=lambda item: _node_count(item[1]),
    )
    stride = max(1, len(valids) // 60)
    for subset, derivation in valids[::stride][:60]:
        goal = ca.hypersequent_of_words(subset)
        goldens.append(certio.proof_doc(CalculusId.GLGSTAR, [(goal, derivation)]))
    # abelian-calculus derivations on short balanced joins
    rng = random.Random(SEED)
    made = 0
    while made < 30:
        half = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 3))]
        seq = tuple(half) + fg.bar(half)
        word = fg.reduce(seq)
        goal = ca.Hypersequent.of([ca.Sequent(seq)])
        goldens.append(
            certio.proof_doc(
                CalculusId.GA, [(goal, ca.derive_ga([word], (1,)))]
            )
        )
        made += 1
    # cycle-extended derivations from the bounded total-order search
    rg_inputs = [words("x", "x'"), words("x y x'", "y'"), words("xy", "y'x'")]
    rg_inputs.extend(
        [u, fg.inv(u)]
        for u in [w for w in fg.ball(2, 2) if not w.is_identity][:7]
        if not u.is_identity
    )
    for joins in rg_inputs[:10]:
        verdict = ro.decide_rg(joins, 2, conjugator_bound=1)
        assert verdict.status == "VALID"
        goal = ca.hypersequent_of_words(joins)
        goldens.append(
            certio.proof_doc(CalculusId.GRGSTAR, [(goal, verdict.certificate)])
        )
    assert len(goldens) == 100
    return goldens


def test_criterion_8_mutation_robustness(corpus):
    start = time.monotonic()
    goldens = _golden_docs(corpus)
    total_mutants = 0
    survivors = []
    for doc in goldens:
        assert not _doc_rejected(doc)
        for mutant in _doc_mutants(doc):
            total_mutants += 1
            if not _doc_rejected(mutant):
                survivors.append(mutant)
    elapsed = time.monotonic() - start
    assert not survivors, f"{len(survivors)} of {total_mutants} mutants accepted"
    _report(
        "8",
        f"100 goldens, {total_mutants} mutants all rejected, {elapsed:.1f}s",
    )


TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"
MUTANT_VERDICTS = TESTS / "fixtures" / "golden_mutant_verdicts.json"


def _mutant_verdicts() -> list:
    """``[file, mutant index, outcome]`` for every mutant of every proof
    golden (a schema-1 file, converted): the ``[ok, path, message]`` of
    each conjunct's check, or the format error that stopped the file from
    loading.  Mutants are numbered in the pre-order of the derivation, the
    order of the nested schema-1 layout."""
    verdicts = []
    for path in sorted(GOLDEN.glob("*.proof.json")):
        doc = convert(json.loads(path.read_text(encoding="utf-8")))
        for index, mutant in enumerate(_doc_mutants(doc)):
            try:
                calculus, conjuncts = certio.load_proof(mutant)
            except certio.CertificateFormatError as exc:
                outcome = ["format", str(exc)]
            else:
                outcome = [
                    [result.ok, list(result.path), result.message]
                    for result in (
                        ca.check(calculus, derivation, goal)
                        for goal, derivation in conjuncts
                    )
                ]
            verdicts.append([path.name, index, outcome])
    return verdicts


def test_checker_verdicts_on_golden_mutants_are_pinned():
    """Every mutant of the proof goldens meets the same verdict, at the same
    node and with the same message, as when the fixture was recorded (with
    a checker that reduced every active raw sequence itself, instead of
    reusing the matched sequent's stored word)."""
    expected = json.loads(MUTANT_VERDICTS.read_text(encoding="utf-8"))
    assert _mutant_verdicts() == expected


if __name__ == "__main__":
    # re-record the fixture: PYTHONPATH=src python tests/test_acceptance.py
    MUTANT_VERDICTS.parent.mkdir(exist_ok=True)
    lines = [json.dumps(v) for v in _mutant_verdicts()]
    MUTANT_VERDICTS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
