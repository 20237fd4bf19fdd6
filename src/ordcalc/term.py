"""Lattice-group term language: parsing, inverse pushing, normalization.

Grammar (whitespace insensitive, inverse binds tightest)::

    term := meet ; meet := join ("/\\" join)* ; join := prod ("\\/" prod)* ;
    prod := atom ("*" atom)* ; atom := "e" | lit | "(" term ")" | atom "'" ;
    lit  := letter digit*

Chains of any length are read by loops into left-nested trees, and every
pass over a term keeps its own stack, so no term is too deep to handle.
Parentheses may nest at most MAX_NESTING levels, since the parser descends
once per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence, Union

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

MAX_NESTING = 100


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
        self.depth = 0

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
            if self.depth == MAX_NESTING:
                raise TermSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", self.pos
                )
            self.pos += 1
            self.depth += 1
            node = self.meet()
            self.depth -= 1
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


_Pass = Generator["_Pass", object, object]


def _unwind(top: _Pass):
    """Run a recursive pass on an explicit stack.  A pass is a generator
    that yields the generator of each recursive call and is sent back its
    value, so deep terms never nest Python frames."""
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


_DUAL = {Product: Product, Meet: Join, Join: Meet}


def push_inverses(t: Term) -> Term:
    """Push Inverse down to literals using the duality equations."""
    return _unwind(_push(t, False))


def _push(t: Term, inverted: bool) -> _Pass:
    if isinstance(t, Identity):
        return t
    if isinstance(t, Literal):
        return Literal(t.generator, -t.sign) if inverted else t
    if isinstance(t, Inverse):
        return (yield _push(t.arg, not inverted))
    if not inverted:
        return type(t)((yield _push(t.left, False)), (yield _push(t.right, False)))
    # (a b)' = b' a', and inversion swaps meet and join
    first, second = (t.right, t.left) if isinstance(t, Product) else (t.left, t.right)
    return _DUAL[type(t)]((yield _push(first, True)), (yield _push(second, True)))


def normalize(t: Term) -> NormalForm:
    """Distribute to a meet of joins of reduced words.

    Group multiplication distributes over both lattice operations in any
    l-group, so products are pushed below joins and meets before the
    lattice layers are flattened.
    """
    conjuncts = _unwind(_normalize(push_inverses(t)))
    return NormalForm(tuple(freegroup.dedupe(joins) for joins in conjuncts))


def _normalize(t: Term) -> _Pass:
    if isinstance(t, Identity):
        return ((freegroup.IDENTITY,),)
    if isinstance(t, Literal):
        return ((ReducedWord((t.generator * t.sign,)),),)
    if isinstance(t, Inverse):
        raise AssertionError("inverses were pushed to literals")
    left = yield _normalize(t.left)
    right = yield _normalize(t.right)
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
# a binary operator's own level, one above which its right operand prints
_OPERATORS = {
    Meet: (_LEVEL_MEET, "/\\"),
    Join: (_LEVEL_JOIN, "\\/"),
    Product: (_LEVEL_PROD, "*"),
}


def _format(t: Term, level: int) -> _Pass:
    if isinstance(t, Identity):
        return "e"
    if isinstance(t, Literal):
        base = freegroup.generator_name(t.generator)
        return base if t.sign > 0 else base + "'"
    if isinstance(t, Inverse):
        inner = yield _format(t.arg, _LEVEL_ATOM)
        if not isinstance(t.arg, (Identity, Literal, Inverse)):
            inner = f"({inner})"
        return inner + "'"
    own, op = _OPERATORS[type(t)]
    left = yield _format(t.left, own)
    right = yield _format(t.right, own + 1)
    text = f"{left} {op} {right}"
    return f"({text})" if level > own else text


def format_term(t: Term) -> str:
    """Emit grammar text; parse_term(format_term(t)) is structurally t."""
    return _unwind(_format(t, _LEVEL_MEET))


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

