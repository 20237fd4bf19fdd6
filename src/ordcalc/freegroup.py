"""Exact arithmetic in finitely generated free groups.

Words are stored fully reduced (cancellation-free).  A literal is encoded
as a nonzero int: ``+g`` is the g-th generator, ``-g`` its inverse, with
generators numbered from 1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator

_GEN_NAMES = "xyzuvw"

Pass = Generator["Pass", object, object]


def unwind(top: Pass):
    """Run a recursive pass on an explicit stack.  A pass is a generator
    that yields the generator of each recursive call and is sent back its
    value, so deep terms and trees never nest Python frames.  A call's
    exception is not thrown into its caller: it ends the whole pass.
    Write a pass as a module-level function or a method: a nested
    function that calls itself by name forms a reference cycle with its
    enclosing scope, which then outlives the pass until the cyclic garbage
    collector runs."""
    stack, value = [top], None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(call)
            value = None
    return value


def literal_rank(code: int) -> int:
    """Position of a literal in the fixed order x < x' < y < y' < ...

    Generators come first by index; within a generator the positive
    literal precedes the inverse.
    """
    if code == 0:
        raise ValueError("literal code must be nonzero")
    return 2 * (abs(code) - 1) + (0 if code > 0 else 1)


@functools.total_ordering
@dataclass(frozen=True)
class ReducedWord:
    """An element of F(k) as a cancellation-free literal sequence."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for code in self.letters:
            if code == 0:
                raise ValueError("literal code must be nonzero")
            if code == -prev:
                raise ValueError(f"word is not reduced: {self.letters}")
            prev = code

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def shortlex_key(self) -> tuple:
        return (len(self.letters), tuple(literal_rank(c) for c in self.letters))

    def __lt__(self, other: "ReducedWord") -> bool:
        return self.shortlex_key() < other.shortlex_key()

    def prefix(self, length: int) -> "ReducedWord":
        return ReducedWord(self.letters[:length])

    def max_generator(self) -> int:
        return max((abs(c) for c in self.letters), default=0)

    def __repr__(self) -> str:
        return f"ReducedWord({word_to_text(self)!r})"


IDENTITY = ReducedWord()


def reduce(seq: Iterable[int]) -> ReducedWord:
    """Cancel all adjacent inverse pairs in a literal sequence."""
    stack: list[int] = []
    for code in seq:
        if code == 0:
            raise ValueError("literal code must be nonzero")
        if stack and stack[-1] == -code:
            stack.pop()
        else:
            stack.append(code)
    return ReducedWord(tuple(stack))


def splice(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two reduced letter tuples, unvalidated; only the boundary
    between a and b can cancel."""
    if not a or not b or a[-1] != -b[0]:
        return a + b
    k, n = 1, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return a[:-k] + b[k:]


def mul(a: ReducedWord, b: ReducedWord) -> ReducedWord:
    """Product in F(k)."""
    return ReducedWord(splice(a.letters, b.letters))


def inv(a: ReducedWord) -> ReducedWord:
    return ReducedWord(tuple(-c for c in reversed(a.letters)))


def conjugate(q: ReducedWord, t: ReducedWord) -> ReducedWord:
    """q * t * q' reduced."""
    return t if q.is_identity else mul(mul(q, t), inv(q))


def signed(word: ReducedWord, sign: int) -> ReducedWord:
    """The word itself for a positive sign, its inverse otherwise."""
    return word if sign > 0 else inv(word)


def dedupe(words: Iterable[ReducedWord]) -> tuple[ReducedWord, ...]:
    """The words in first-occurrence order, repeats dropped."""
    return tuple(dict.fromkeys(words))


def product(words: Iterable[ReducedWord]) -> ReducedWord:
    acc = IDENTITY
    for w in words:
        acc = mul(acc, w)
    return acc


def bar(seq: Iterable[int]) -> tuple[int, ...]:
    """Inverse of a raw literal sequence (reverse and invert each literal)."""
    return tuple(-c for c in reversed(tuple(seq)))


def ball(arity: int, radius: int) -> tuple[ReducedWord, ...]:
    """All reduced words of length <= radius over the given arity, ShortLex sorted."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    alphabet = sorted((c for g in range(1, arity + 1) for c in (g, -g)), key=literal_rank)
    out: list[ReducedWord] = [IDENTITY]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt: list[tuple[int, ...]] = []
        for letters in layer:
            last = letters[-1] if letters else 0
            for code in alphabet:
                if code != -last:
                    nxt.append(letters + (code,))
        layer = nxt
        out.extend(ReducedWord(letters) for letters in layer)
    return tuple(out)


class CancellationIndex:
    """Words, as letter tuples, in insertion order, indexed by length,
    prefix and suffix, so that the words whose product with a given word
    stays within a length level are found without multiplying by every word.

    ``|u w| = |u| + |w| - 2k`` where the first k letters of w are the
    inverse of the last k of u, so ``|u w| <= level`` exactly when w begins
    with the first ``ceil((|u| + |w| - level) / 2)`` letters of ``u'``.
    Between words within the level that is at most ``ceil(level / 2)``
    letters, and no longer prefix is indexed; so for words longer than the
    level the lookups may also list words whose product is longer.
    Prefixes and reversed suffixes are interned as nodes of one trie, so a
    word costs one entry per indexed letter.
    """

    def __init__(self, level: int):
        self.level = level
        self.words: list[tuple[int, ...]] = []
        self._depth = (level + 1) // 2
        self._nodes: dict[tuple[int, int], int] = {}  # (node, letter) -> child; root 0
        # (length, node of a prefix, or of a suffix read backwards) -> positions
        self._starts: dict[tuple[int, int], list[int]] = {}
        self._ends: dict[tuple[int, int], list[int]] = {}
        self._lengths: set[int] = set()  # every length a word has had

    def _keys(self, word: tuple[int, ...]):
        """The (table, key) entries of the word's prefixes and suffixes."""
        nodes, n = self._nodes, len(word)
        forwards = word[: self._depth]
        backwards = word[::-1][: self._depth]
        for table, stem in ((self._starts, forwards), (self._ends, backwards)):
            node = 0
            yield table, (n, node)
            for code in stem:
                node = nodes.setdefault((node, code), len(nodes) + 1)
                yield table, (n, node)

    def add(self, word: tuple[int, ...]) -> None:
        position = len(self.words)
        self.words.append(word)
        self._lengths.add(len(word))
        for table, key in self._keys(word):
            table.setdefault(key, []).append(position)

    def truncate(self, count: int) -> None:
        """Forget every word added after the first ``count``."""
        while len(self.words) > count:
            word = self.words.pop()
            for table, key in self._keys(word):
                table[key].pop()

    def _factors(self, table: dict, n: int, stem: Iterable[int]) -> list[int]:
        # the trie nodes along the stem, as far as an indexed word follows it
        path = [0]
        for code in itertools.islice(stem, self._depth):
            node = self._nodes.get((path[-1], code))
            if node is None:
                break
            path.append(node)
        out: list[int] = []
        for length in self._lengths:
            k = min(max(0, (n + length - self.level + 1) // 2), self._depth)
            if k < len(path):
                out += table.get((length, path[k]), ())
        out.sort()
        return out

    def right_factors(self, u: tuple[int, ...]) -> list[int]:
        """Positions, ascending, of the words w with ``|u w| <= level``."""
        return self._factors(self._starts, len(u), (-c for c in reversed(u)))

    def left_factors(self, u: tuple[int, ...]) -> list[int]:
        """Positions, ascending, of the words v with ``|v u| <= level``."""
        return self._factors(self._ends, len(u), (-c for c in u))


def abelianize(a: ReducedWord, arity: int) -> tuple[int, ...]:
    """Signed generator counts; a homomorphism onto Z^arity."""
    counts = [0] * arity
    for code in a.letters:
        g = abs(code)
        if g > arity:
            raise ValueError(f"generator {g} exceeds arity {arity}")
        counts[g - 1] += 1 if code > 0 else -1
    return tuple(counts)


def evaluate_word(a: ReducedWord, assignment: Iterable[int]) -> int:
    """Value of the word in the additive l-group Z under the assignment."""
    values = tuple(assignment)
    total = 0
    for code in a.letters:
        g = abs(code)
        if g > len(values):
            raise ValueError(f"generator {g} has no assigned value")
        total += values[g - 1] if code > 0 else -values[g - 1]
    return total


def generator_name(index: int) -> str:
    if index < 1:
        raise ValueError("generator index must be >= 1")
    if index <= len(_GEN_NAMES):
        return _GEN_NAMES[index - 1]
    return f"x{index}"


def literal_text(code: int) -> str:
    return generator_name(abs(code)) + ("'" if code < 0 else "")


# The canonical spelling of the named literals, and its inverse
_TEXT = {c: literal_text(c) for g in range(1, len(_GEN_NAMES) + 1) for c in (g, -g)}
_CODE = {text: code for code, text in _TEXT.items()}


def word_to_text(a: ReducedWord | Iterable[int]) -> str:
    letters = a.letters if isinstance(a, ReducedWord) else tuple(a)
    if not letters:
        return "e"
    try:
        return " ".join(map(_TEXT.__getitem__, letters))
    except KeyError:
        return " ".join(literal_text(c) for c in letters)


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _generator_index(name: str, digits: str, position: int) -> int:
    if digits:
        if name not in ("x", "g"):
            raise WordSyntaxError(f"unknown generator {name}{digits!r}", position)
        index = int(digits)
        if index < 1:
            raise WordSyntaxError("generator index must be >= 1", position)
        return index
    if name in _GEN_NAMES:
        return _GEN_NAMES.index(name) + 1
    raise WordSyntaxError(f"unknown generator {name!r}", position)


def scan_literals(text: str, arity: int | None = None) -> tuple[int, ...]:
    """Parse a raw literal sequence.

    Literals are a letter, optional digits, and optional primes; they may
    be juxtaposed or separated by whitespace, ``*`` or commas.  ``e``
    denotes the empty sequence.  Whitespace-separated named literals, the
    spelling ``word_to_text`` writes, are read through a table; any other
    text falls through to the character scanner.
    """
    try:
        codes = tuple(map(_CODE.__getitem__, text.split()))
    except KeyError:
        pass
    else:
        if arity is None or max(map(abs, codes), default=0) <= arity:
            return codes
    letters: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in "*,":
            i += 1
            continue
        if not ch.isalpha():
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
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
                raise WordSyntaxError("identity cannot be inverted in word syntax", start)
            continue
        index = _generator_index(ch, digits, start)
        if arity is not None and index > arity:
            raise WordSyntaxError(f"generator index {index} exceeds arity {arity}", start)
        code = index if primes % 2 == 0 else -index
        letters.append(code)
    return tuple(letters)


def word_from_text(text: str, arity: int | None = None) -> ReducedWord:
    return reduce(scan_literals(text, arity))
