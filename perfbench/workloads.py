"""Workload inputs and their expected answers.

A query is one user request: a hypersequent posed to one decision
procedure.  ``query-mix`` and ``hard-search`` read their expected verdicts
from the committed files under ``data/``; ``big-proofs`` inputs are drawn
from the seed and are valid by construction, which ``balanced`` re-checks
without the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("query-mix", "hard-search", "big-proofs")

# Command-line arguments that select each procedure, as a user types them.
PROCEDURE_ARGS = {
    "abelian": ("--variety", "abelian"),
    "cs": ("--variety", "lgroup", "--procedure", "cs"),
    "hm": ("--variety", "lgroup", "--procedure", "hm"),
    "rg": ("--variety", "representable", "--bound-L", "1"),
    "rg2": ("--variety", "representable", "--bound-L", "2"),
}

VERDICTS = ("VALID", "INVALID", "UNKNOWN")

# Marks a hard-search input that did not finish within the per-query limit
# when the expected answers were made; any verdict whose certificate the
# independent check accepts counts as correct for it.
UNSETTLED = "-"

# Literal counts (100 to 400) and arities cycled through by big-proofs:
# the same sequence in every run, so that seeds change only the
# arrangement of the literals and a run of whole cycles always sees the
# same mix.  With three shapes, the median of a run falls among the
# 250-literal queries and the tail among the 400-literal ones, and both are
# steady from run to run.
BIG_SHAPES = ((100, 2), (250, 3), (400, 2))


@dataclass(frozen=True)
class Query:
    procedure: str
    text: str
    arity: int
    expected: str | None


def _literal_text(code: int) -> str:
    name = "xyz"[abs(code) - 1]
    return name if code > 0 else name + "'"


def word_text(letters) -> str:
    return "".join(_literal_text(c) for c in letters)


def corpus_sets() -> list[str]:
    """Every set of 1 to 3 nonidentity reduced words of length at most 2
    over two generators, as ``w1 | w2 | w3`` text: 696 sets."""
    codes = (1, -1, 2, -2)
    words = [(a,) for a in codes]
    words += [(a, b) for a in codes for b in codes if a != -b]
    sets = []
    for size in (1, 2, 3):
        for subset in itertools.combinations(words, size):
            sets.append(" | ".join(word_text(w) for w in subset))
    return sets


def read_table(path: Path) -> list[list[str]]:
    """Rows of a tab-separated file, without blank and ``#`` comment lines."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            rows.append(line.split("\t"))
    return rows


def _expected_value(text: str) -> str | None:
    if text == UNSETTLED:
        return None
    if text not in VERDICTS:
        raise ValueError(f"bad expected verdict {text!r}")
    return text


def query_mix() -> list[Query]:
    expected = {
        (procedure, text): verdict
        for procedure, verdict, text in read_table(DATA / "query-mix.tsv")
    }
    queries = [
        Query(procedure, text, 2, _expected_value(expected[procedure, text]))
        for text in corpus_sets()
        for procedure in ("abelian", "cs", "hm", "rg")
    ]
    if len(queries) != len(expected):
        raise ValueError("query-mix.tsv does not match the corpus")
    return queries


def table_queries(name: str) -> list[Query]:
    """The queries of ``data/<name>.tsv``, in file order."""
    return [
        Query(procedure, text, 2, _expected_value(verdict))
        for procedure, verdict, _seconds, text in read_table(DATA / f"{name}.tsv")
    ]


def balanced_word(rng: random.Random, length: int, arity: int) -> tuple[int, ...]:
    """A freely reduced word whose exponent sum is zero in every generator."""
    per = length // (2 * arity)
    while True:
        counts = {c: per for g in range(1, arity + 1) for c in (g, -g)}
        letters: list[int] = []
        while len(letters) < per * 2 * arity:
            last = letters[-1] if letters else 0
            choices = [c for c, n in counts.items() if n and c != -last]
            if not choices:
                break
            code = rng.choice(choices)
            counts[code] -= 1
            letters.append(code)
        else:
            return tuple(letters)


def balanced(text: str, arity: int) -> bool:
    """Independent oracle: a one-component sequent whose exponent sums all
    vanish is valid in abelian l-groups (Gordan, multiplier 1)."""
    sums = [0] * arity
    for code in _scan(text):
        sums[abs(code) - 1] += 1 if code > 0 else -1
    return not any(sums)


def _scan(text: str) -> list[int]:
    codes = []
    for char in text.replace(" ", ""):
        if char == "'":
            codes[-1] = -codes[-1]
        else:
            codes.append("xyz".index(char) + 1)
    return codes


def big_proofs(seed: int, count: int) -> list[Query]:
    rng = random.Random(f"big-proofs:{seed}")
    queries = []
    for i in range(count):
        length, arity = BIG_SHAPES[i % len(BIG_SHAPES)]
        text = word_text(balanced_word(rng, length, arity))
        queries.append(Query("abelian", text, arity, "VALID"))
    return queries


def load(workload: str, seed: int, big_count: int) -> list[Query]:
    """The workload's queries in the order a run poses them."""
    if workload == "big-proofs":
        queries = big_proofs(seed, big_count)
        if not all(balanced(q.text, q.arity) for q in queries):
            raise ValueError("generated big-proofs input is not balanced")
        return queries
    queries = query_mix() if workload == "query-mix" else table_queries(workload)
    random.Random(f"{workload}:{seed}").shuffle(queries)
    return queries
