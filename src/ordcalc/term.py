"""Lattice-group term language: parsing, inverse pushing, normalization.

Grammar (whitespace insensitive, inverse binds tightest)::

    term := meet ; meet := join ("/\\" join)* ; join := prod ("\\/" prod)* ;
    prod := atom ("*" atom)* ; atom := "e" | lit | "(" term ")" | atom "'" ;
    lit  := letter digit*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import freegroup
from .freegroup import ReducedWord


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Literal:
    generator: int
    sign: int


@dataclass(frozen=True)
class Product:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Inverse:
    arg: "Term"


Term = Union[Identity, Literal, Product, Meet, Join, Inverse]

E = Identity()


@dataclass(frozen=True)
class NormalForm:
    """Meet of joins of reduced group words, conjunct-wise decidable."""

    conjuncts: tuple[tuple[ReducedWord, ...], ...]

    def __post_init__(self) -> None:
        if not self.conjuncts or any(not c for c in self.conjuncts):
            raise ValueError("normal form needs at least one joinand per conjunct")

    def max_generator(self) -> int:
        return max(
            (w.max_generator() for c in self.conjuncts for w in c),
            default=0,
        )


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, arity: int | None):
        self.text = text
        self.arity = arity
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _take(self, token: str) -> bool:
        self._skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def parse(self) -> Term:
        term = self.meet()
        self._skip_ws()
        if self.pos != len(self.text):
            raise TermSyntaxError("trailing input after term", self.pos)
        return term

    def meet(self) -> Term:
        node = self.join()
        while self._take("/\\"):
            node = Meet(node, self.join())
        return node

    def join(self) -> Term:
        node = self.prod()
        while self._take("\\/"):
            node = Join(node, self.prod())
        return node

    def prod(self) -> Term:
        node = self.atom()
        while self._take("*"):
            node = Product(node, self.atom())
        return node

    def atom(self) -> Term:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise TermSyntaxError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.meet()
            if not self._take(")"):
                raise TermSyntaxError("unbalanced parenthesis", self.pos)
        elif ch.isalpha():
            node = self._literal()
        else:
            raise TermSyntaxError(f"unexpected character {ch!r}", self.pos)
        while self._take("'"):
            # Primes collapse on literals and the identity; x'' parses as x.
            if isinstance(node, Literal):
                node = Literal(node.generator, -node.sign)
            elif isinstance(node, Identity):
                pass
            else:
                node = Inverse(node)
        return node

    def _literal(self) -> Term:
        start = self.pos
        ch = self.text[self.pos]
        self.pos += 1
        digits = ""
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            digits += self.text[self.pos]
            self.pos += 1
        if ch == "e" and not digits:
            return E
        try:
            index = freegroup._generator_index(ch, digits, start)
        except freegroup.WordSyntaxError as exc:
            raise TermSyntaxError(str(exc).rsplit(" (at", 1)[0], start) from None
        if self.arity is not None and index > self.arity:
            raise TermSyntaxError(
                f"generator index {index} exceeds arity {self.arity}", start
            )
        return Literal(index, 1)


def parse_term(text: str, arity: int | None = None) -> Term:
    return _Parser(text, arity).parse()


def push_inverses(t: Term) -> Term:
    """Push Inverse down to literals using the duality equations."""
    if isinstance(t, Identity) or isinstance(t, Literal):
        return t
    if isinstance(t, Product):
        return Product(push_inverses(t.left), push_inverses(t.right))
    if isinstance(t, Meet):
        return Meet(push_inverses(t.left), push_inverses(t.right))
    if isinstance(t, Join):
        return Join(push_inverses(t.left), push_inverses(t.right))
    inner = t.arg
    if isinstance(inner, Identity):
        return inner
    if isinstance(inner, Literal):
        return Literal(inner.generator, -inner.sign)
    if isinstance(inner, Inverse):
        return push_inverses(inner.arg)
    if isinstance(inner, Product):
        return Product(push_inverses(Inverse(inner.right)), push_inverses(Inverse(inner.left)))
    if isinstance(inner, Meet):
        return Join(push_inverses(Inverse(inner.left)), push_inverses(Inverse(inner.right)))
    return Meet(push_inverses(Inverse(inner.left)), push_inverses(Inverse(inner.right)))


def normalize(t: Term) -> NormalForm:
    """Distribute to a meet of joins of reduced words.

    Group multiplication distributes over both lattice operations in any
    l-group, so products are pushed below joins and meets before the
    lattice layers are flattened.
    """
    conjuncts = _normalize(push_inverses(t))
    return NormalForm(tuple(freegroup.dedupe(joins) for joins in conjuncts))


def _normalize(t: Term) -> tuple[tuple[ReducedWord, ...], ...]:
    if isinstance(t, Identity):
        return ((freegroup.IDENTITY,),)
    if isinstance(t, Literal):
        return ((ReducedWord((t.generator * t.sign,)),),)
    if isinstance(t, Inverse):
        raise AssertionError("inverses were pushed to literals")
    left = _normalize(t.left)
    right = _normalize(t.right)
    if isinstance(t, Meet):
        return left + right
    if isinstance(t, Join):
        return tuple(a + b for a in left for b in right)
    # Product: distribute over meets, then over joins within each pair.
    return tuple(
        tuple(freegroup.mul(a, b) for a in ja for b in jb)
        for ja in left
        for jb in right
    )


_LEVEL_MEET, _LEVEL_JOIN, _LEVEL_PROD, _LEVEL_ATOM = 0, 1, 2, 3


def _format(t: Term, level: int) -> str:
    if isinstance(t, Identity):
        return "e"
    if isinstance(t, Literal):
        base = freegroup.generator_name(t.generator)
        return base if t.sign > 0 else base + "'"
    if isinstance(t, Inverse):
        inner = _format(t.arg, _LEVEL_ATOM)
        if not isinstance(t.arg, (Identity, Literal, Inverse)):
            inner = f"({inner})"
        return inner + "'"
    if isinstance(t, Product):
        text = f"{_format(t.left, _LEVEL_PROD)} * {_format(t.right, _LEVEL_ATOM)}"
        return f"({text})" if level > _LEVEL_PROD else text
    if isinstance(t, Join):
        text = f"{_format(t.left, _LEVEL_JOIN)} \\/ {_format(t.right, _LEVEL_PROD)}"
        return f"({text})" if level > _LEVEL_JOIN else text
    text = f"{_format(t.left, _LEVEL_MEET)} /\\ {_format(t.right, _LEVEL_JOIN)}"
    return f"({text})" if level > _LEVEL_MEET else text


def format_term(t: Term) -> str:
    """Emit grammar text; parse_term(format_term(t)) is structurally t."""
    return _format(t, _LEVEL_MEET)


def sequent_of(w: ReducedWord):
    """Wrap a word as a single proof-object sequent."""
    from . import calculus

    return calculus.Sequent(w.letters)


def evaluate_term(t: Term, assignment: Sequence[int]) -> int:
    """Evaluate in Z with min for meet, max for join, + for product."""
    if isinstance(t, Identity):
        return 0
    if isinstance(t, Literal):
        value = assignment[t.generator - 1]
        return value if t.sign > 0 else -value
    if isinstance(t, Inverse):
        return -evaluate_term(t.arg, assignment)
    a = evaluate_term(t.left, assignment)
    b = evaluate_term(t.right, assignment)
    if isinstance(t, Product):
        return a + b
    if isinstance(t, Meet):
        return min(a, b)
    return max(a, b)


def evaluate_normal_form(nf: NormalForm, assignment: Sequence[int]) -> int:
    return min(
        max(freegroup.evaluate_word(w, assignment) for w in joins)
        for joins in nf.conjuncts
    )

