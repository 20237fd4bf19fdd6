import os
import random

import pytest

from ordcalc import freegroup
from ordcalc.witnesses import ConjugateEntry, ConjugateProduct, RefutationLeaf

SEED = int(os.environ.get("ORDCALC_SEED", "271828"))


def w(text: str) -> freegroup.ReducedWord:
    """Shorthand word constructor used across the suite."""
    return freegroup.word_from_text(text)


def words(*texts: str):
    return [w(t) for t in texts]


def product_leaf(indices) -> RefutationLeaf:
    """A refutation leaf multiplying the generators at these indices, each
    conjugated by e."""
    entries = tuple(ConjugateEntry(freegroup.IDENTITY, i) for i in indices)
    return RefutationLeaf(ConjugateProduct(entries))


def random_reduced_word(rng: random.Random, arity: int, max_length: int):
    length = rng.randint(0, max_length)
    letters = []
    while len(letters) < length:
        code = rng.choice([c for g in range(1, arity + 1) for c in (g, -g)])
        if letters and letters[-1] == -code:
            continue
        letters.append(code)
    return freegroup.ReducedWord(tuple(letters))


@pytest.fixture
def rng():
    return random.Random(SEED)
