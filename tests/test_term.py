import itertools
import random

import pytest

from conftest import SEED, w
from ordcalc import term
from ordcalc.term import (
    E,
    Identity,
    Inverse,
    Join,
    Literal,
    Meet,
    Product,
    TermSyntaxError,
)

X = Literal(1, 1)
Y = Literal(2, 1)


def test_parse_examples():
    assert term.parse_term("e") == E
    assert term.parse_term("x * y'", arity=2) == Product(X, Literal(2, -1))
    assert term.parse_term("(x \\/ y) /\\ e") == Meet(Join(X, Y), E)
    assert term.parse_term("x''") == X
    assert term.parse_term("x'") == Literal(1, -1)


def test_parse_precedence_and_associativity():
    # join binds tighter than meet; products left associate
    assert term.parse_term("x \\/ y /\\ z") == Meet(
        Join(X, Y), Literal(3, 1)
    )
    assert term.parse_term("x * y * z") == Product(
        Product(X, Y), Literal(3, 1)
    )
    assert term.parse_term("(x * y)'") == Inverse(Product(X, Y))


def test_parse_errors_carry_positions():
    with pytest.raises(TermSyntaxError) as info:
        term.parse_term("x *")
    assert info.value.position == 3
    with pytest.raises(TermSyntaxError):
        term.parse_term("(x \\/ y")
    with pytest.raises(TermSyntaxError) as info:
        term.parse_term("x * y", arity=1)
    assert info.value.position == 4
    with pytest.raises(TermSyntaxError):
        term.parse_term("x ? y")
    with pytest.raises(TermSyntaxError):
        term.parse_term("")


def test_push_inverses_examples():
    assert term.push_inverses(Inverse(Meet(X, Y))) == Join(
        Literal(1, -1), Literal(2, -1)
    )
    assert term.push_inverses(Inverse(Product(X, Y))) == Product(
        Literal(2, -1), Literal(1, -1)
    )
    assert term.push_inverses(Inverse(Inverse(X))) == X
    assert term.push_inverses(Inverse(E)) == E
    # primes on a group nest one Inverse each, deeper than Python recurses
    tower = term.parse_term("(x * y)" + "'" * 2001)
    assert term.push_inverses(tower) == Product(Literal(2, -1), Literal(1, -1))


def _random_term(rng, depth, arity):
    if depth == 0 or rng.random() < 0.2:
        choice = rng.randrange(3)
        if choice == 0:
            return E
        return Literal(rng.randint(1, arity), rng.choice((1, -1)))
    kind = rng.randrange(4)
    if kind == 3:
        return Inverse(_random_term(rng, depth - 1, arity))
    left = _random_term(rng, depth - 1, arity)
    right = _random_term(rng, depth - 1, arity)
    return (Product, Meet, Join)[kind](left, right)


def test_push_inverses_is_idempotent():
    rng = random.Random(SEED)
    for _ in range(500):
        t = _random_term(rng, 5, 3)
        once = term.push_inverses(t)
        assert term.push_inverses(once) == once


def _no_inverse_above_nonliteral(t):
    if isinstance(t, (Identity, Literal)):
        return True
    if isinstance(t, Inverse):
        return False
    return _no_inverse_above_nonliteral(t.left) and _no_inverse_above_nonliteral(
        t.right
    )


def test_push_inverses_leaves_only_signed_literals():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        t = _random_term(rng, 5, 3)
        assert _no_inverse_above_nonliteral(term.push_inverses(t))


def test_normalize_examples():
    nf = term.normalize(X)
    assert nf.conjuncts == ((w("x"),),)
    nf = term.normalize(Meet(Join(Product(X, X), Product(Y, Y)), Literal(3, 1)))
    assert nf.conjuncts == ((w("x x"), w("y y")), (w("z"),))
    nf = term.normalize(Product(Join(X, Y), Literal(3, 1)))
    assert nf.conjuncts == ((w("x z"), w("y z")),)


def test_normalize_product_over_join_by_exhaustive_evaluation():
    t = term.parse_term("(x \\/ y) * z")
    nf = term.normalize(t)
    for assignment in itertools.product(range(-2, 3), repeat=3):
        assert term.evaluate_term(t, assignment) == term.evaluate_normal_form(
            nf, assignment
        )


def test_normalize_preserves_evaluation_on_random_terms():
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        arity = rng.randint(1, 3)
        t = _random_term(rng, 5, arity)
        nf = term.normalize(t)
        for assignment in itertools.product(range(-2, 3), repeat=arity):
            assert term.evaluate_term(t, assignment) == term.evaluate_normal_form(
                nf, assignment
            )


def test_normalize_joinands_are_reduced_and_deduplicated():
    nf = term.normalize(term.parse_term("(x * x' * y) \\/ y"))
    assert nf.conjuncts == ((w("y"),),)


def test_format_round_trip_examples():
    assert term.format_term(Product(X, Literal(2, -1))) == "x * y'"
    assert term.parse_term(term.format_term(E)) == E
    t = term.parse_term("(x \\/ y) /\\ z")
    assert term.parse_term(term.format_term(t)) == t


def test_format_round_trip_random():
    rng = random.Random(SEED + 3)
    for _ in range(500):
        t = term.push_inverses(_random_term(rng, 5, 3))
        text = term.format_term(t)
        assert term.parse_term(text) == t


def test_long_chains_parse_normalize_and_format():
    # the parser left-nests a chain, so its tree is as deep as it is long
    for op, conjuncts in ((" * ", 1), (" \\/ ", 1), (" /\\ ", 1000)):
        text = op.join(["x"] * 1000)
        t = term.parse_term(text)
        assert term.format_term(t) == text
        assert len(term.normalize(t).conjuncts) == conjuncts
    nf = term.normalize(term.parse_term(" * ".join(["x"] * 1000)))
    assert nf.conjuncts == ((w("x" * 1000),),)


def test_parenthesis_nesting_is_limited():
    limit = term.MAX_NESTING
    assert term.parse_term("(" * limit + "x" + ")" * limit) == X
    with pytest.raises(TermSyntaxError, match=str(limit)) as info:
        term.parse_term("(" * (limit + 1) + "x" + ")" * (limit + 1))
    assert info.value.position == limit
