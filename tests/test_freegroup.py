import pytest

from conftest import random_reduced_word, w, words
from ordcalc import freegroup as fg


def test_reduce_examples():
    assert fg.reduce([1, -1]) == fg.IDENTITY
    assert fg.reduce([1, 2, -2, 1]) == w("x x")
    # hand cancellation: x y x' x y' = x
    assert fg.reduce([1, 2, -1, 1, -2]) == w("x")


def test_reduce_is_fixpoint_of_one_step_cancellation(rng):
    for _ in range(300):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))]
        reduced = fg.reduce(letters)
        for i in range(len(reduced.letters) - 1):
            assert reduced.letters[i] != -reduced.letters[i + 1]
        assert fg.reduce(reduced.letters) == reduced


def test_reduced_word_rejects_unreduced():
    with pytest.raises(ValueError):
        fg.ReducedWord((1, -1))
    with pytest.raises(ValueError):
        fg.ReducedWord((0,))


def test_mul_inv_conjugate_examples():
    assert fg.mul(w("x y"), w("y' x")) == w("x x")
    assert fg.conjugate(w("y"), w("x")) == w("y x y'")
    assert fg.conjugate(w("x"), w("x")) == w("x")
    assert fg.inv(w("x y'")) == w("y x'")


def test_splice_is_the_reduced_product(rng):
    # on the letters of reduced words, with any amount of cancellation
    for _ in range(3_000):
        a = random_reduced_word(rng, 2, 6)
        b = random_reduced_word(rng, 2, 6)
        if rng.random() < 0.5:  # b starts by undoing a suffix of a
            b = fg.mul(fg.inv(a).prefix(rng.randint(0, len(a))), b)
        spliced = fg.splice(a.letters, b.letters)
        assert spliced == fg.reduce(a.letters + b.letters).letters, (a, b)


def test_group_laws_on_random_triples(rng):
    for _ in range(10_000):
        a = random_reduced_word(rng, 3, 6)
        b = random_reduced_word(rng, 3, 6)
        c = random_reduced_word(rng, 3, 6)
        assert fg.mul(fg.mul(a, b), c) == fg.mul(a, fg.mul(b, c))
        assert fg.inv(fg.mul(a, b)) == fg.mul(fg.inv(b), fg.inv(a))
        assert fg.inv(fg.inv(a)) == a
        assert len(fg.mul(a, b)) <= len(a) + len(b)
        assert fg.mul(a, fg.inv(a)) == fg.IDENTITY


def _ball_oracle(arity, radius):
    # breadth-first closure under right multiplication by single literals
    alphabet = [c for g in range(1, arity + 1) for c in (g, -g)]
    seen = {fg.IDENTITY}
    frontier = {fg.IDENTITY}
    for _ in range(radius):
        frontier = {
            fg.mul(u, fg.ReducedWord((c,)))
            for u in frontier
            for c in alphabet
        } - seen
        seen |= frontier
    return seen


def test_ball_examples():
    b21 = fg.ball(2, 1)
    assert set(b21) == set(words("e", "x", "x'", "y", "y'"))
    assert len(b21) == 5
    assert len(fg.ball(2, 2)) == 17
    for radius in range(5):
        assert len(fg.ball(1, radius)) == 2 * radius + 1


def test_ball_matches_bfs_oracle():
    for arity in (1, 2, 3):
        for radius in range(5):
            assert set(fg.ball(arity, radius)) == _ball_oracle(arity, radius)


def test_ball_is_shortlex_sorted():
    for arity in (1, 2):
        b = fg.ball(arity, 3)
        assert list(b) == sorted(b)


def test_abelianize_examples():
    assert fg.abelianize(w("x y x' y'"), 2) == (0, 0)
    assert fg.abelianize(w("x x"), 2) == (2, 0)
    assert fg.abelianize(w("x y' y' x"), 2) == (2, -2)


def test_abelianize_is_homomorphism(rng):
    for _ in range(2000):
        a = random_reduced_word(rng, 3, 6)
        b = random_reduced_word(rng, 3, 6)
        left = fg.abelianize(fg.mul(a, b), 3)
        right = tuple(
            x + y for x, y in zip(fg.abelianize(a, 3), fg.abelianize(b, 3))
        )
        assert left == right


def test_word_text_round_trip(rng):
    assert fg.word_to_text(fg.IDENTITY) == "e"
    assert fg.word_from_text("e") == fg.IDENTITY
    assert fg.word_from_text("xx") == w("x x")
    assert fg.word_from_text("x'y'") == w("x' y'")
    assert fg.word_from_text("x1 x2") == w("x y")
    for _ in range(500):
        word = random_reduced_word(rng, 3, 8)
        assert fg.word_from_text(fg.word_to_text(word)) == word


def test_word_text_errors():
    with pytest.raises(fg.WordSyntaxError):
        fg.word_from_text("x $ y")
    with pytest.raises(fg.WordSyntaxError):
        fg.word_from_text("q")
    with pytest.raises(fg.WordSyntaxError):
        fg.word_from_text("y", arity=1)
    with pytest.raises(fg.WordSyntaxError):
        fg.word_from_text("e'")


def test_evaluate_word():
    assert fg.evaluate_word(w("x y'"), [3, 5]) == -2
    assert fg.evaluate_word(fg.IDENTITY, [7]) == 0


# ---------------------------------------------------------------------------
# the literal codec against a copy of the original character scanner


def _oracle_generator_index(name, digits, position):
    if digits:
        if name not in ("x", "g"):
            raise fg.WordSyntaxError(f"unknown generator {name}{digits!r}", position)
        index = int(digits)
        if index < 1:
            raise fg.WordSyntaxError("generator index must be >= 1", position)
        return index
    if name in "xyzuvw":
        return "xyzuvw".index(name) + 1
    raise fg.WordSyntaxError(f"unknown generator {name!r}", position)


def _oracle_scan(text, arity=None):
    letters = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in "*,":
            i += 1
            continue
        if not ch.isalpha():
            raise fg.WordSyntaxError(f"unexpected character {ch!r}", i)
        start = i
        i += 1
        digits = ""
        while i < n and text[i].isdecimal():
            digits += text[i]
            i += 1
        primes = 0
        while i < n and text[i] == "'":
            primes += 1
            i += 1
        if ch == "e" and not digits:
            if primes:
                raise fg.WordSyntaxError(
                    "identity cannot be inverted in word syntax", start
                )
            continue
        index = _oracle_generator_index(ch, digits, start)
        if arity is not None and index > arity:
            raise fg.WordSyntaxError(
                f"generator index {index} exceeds arity {arity}", start
            )
        letters.append(index if primes % 2 == 0 else -index)
    return tuple(letters)


def _oracle_text(letters):
    def name(index):
        if index < 1:
            raise ValueError("generator index must be >= 1")
        return "xyzuvw"[index - 1] if index <= 6 else f"x{index}"

    if not letters:
        return "e"
    return " ".join(name(abs(c)) + ("'" if c < 0 else "") for c in letters)


def _outcome(scan, text, arity):
    try:
        return scan(text, arity)
    except fg.WordSyntaxError as exc:
        return ("error", str(exc), exc.position)


_SPACES = (" ", "  ", "\t", "\u00a0", "\n")
_PIECES = (
    *"xyzuvw", *"abgq", "e", "e'", "x''", "y'", *"0179", "'", "*", ",",
    *_SPACES, "$", "\u00b2",
)


def _random_text(rng):
    if rng.random() < 0.5:
        # whitespace-separated canonical literals, some beyond the named six
        codes = [
            rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(rng.randint(0, 8))
        ]
        text = rng.choice(_SPACES).join(_oracle_text([c]) for c in codes)
        return rng.choice(("", " ", "\t")) + text + rng.choice(("", " ", "\n"))
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 10)))


def test_scan_literals_agrees_with_the_character_scanner(rng):
    paths = {"table": 0, "scanner": 0}
    for _ in range(20_000):
        text = _random_text(rng)
        arity = rng.choice((None, 1, 2, 3, 4, 5, 6, 7))
        expected = _outcome(_oracle_scan, text, arity)
        assert _outcome(fg.scan_literals, text, arity) == expected, (text, arity)
        canonical = all(token in fg._CODE for token in text.split())
        paths["table" if canonical else "scanner"] += 1
    # both paths are exercised, rejections on the table path included
    assert min(paths.values()) > 5_000
    with pytest.raises(fg.WordSyntaxError) as exc:
        fg.scan_literals("x y z", arity=2)
    assert exc.value.position == 4


def test_word_to_text_agrees_with_the_original_writer(rng):
    codes = [c for g in range(1, 10) for c in (g, -g)]
    assert fg.word_to_text(codes) == _oracle_text(codes)
    for _ in range(2_000):
        letters = tuple(rng.choice(codes) for _ in range(rng.randint(0, 6)))
        assert fg.word_to_text(letters) == _oracle_text(letters)
    for letters in ((0,), (1, 0), (7, 0, 2)):
        with pytest.raises(ValueError) as expected:
            _oracle_text(letters)
        with pytest.raises(ValueError) as actual:
            fg.word_to_text(letters)
        assert type(actual.value) is type(expected.value)
        assert str(actual.value) == str(expected.value)


def test_cancellation_index_lists_the_short_products(rng):
    # exactly the words whose product stays within the level, in insertion
    # order, while both factors are within it; a superset once one is
    # longer; and truncation leaves the index of the words kept.  The index
    # holds letter tuples
    for _ in range(400):
        level = rng.randint(0, 6)
        pool = list(dict.fromkeys(
            random_reduced_word(rng, 2, rng.choice((level, 8)))
            for _ in range(rng.randint(0, 20))
        ))
        index, rebuilt = fg.CancellationIndex(level), fg.CancellationIndex(level)
        for u in pool:
            index.add(u.letters)
            rebuilt.add(u.letters)
        kept = rng.randint(0, len(pool))
        index.truncate(kept)
        for held, idx in ((pool[:kept], index), (pool, rebuilt)):
            assert idx.words == [v.letters for v in held]
            for u in pool:
                exact = all(len(v) <= level for v in (u, *held))
                for found, product in (
                    (idx.right_factors(u.letters), lambda v: fg.mul(u, v)),
                    (idx.left_factors(u.letters), lambda v: fg.mul(v, u)),
                ):
                    lengths = [len(product(v)) for v in held]
                    short = [i for i, n in enumerate(lengths) if n <= level]
                    assert found == sorted(found)
                    if exact:
                        assert found == short, (level, u)
                    else:
                        assert set(short) <= set(found), (level, u)
