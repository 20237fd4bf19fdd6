import pathlib
from fractions import Fraction

import pytest

from conftest import random_reduced_word, w, words
from ordcalc import abelian as ab
from ordcalc import biorder, freegroup as fg
from ordcalc import fourier_motzkin as fm
from ordcalc import membership
from ordcalc import rightorder as ro
from ordcalc.witnesses import sign_pivots


def test_generator_signs():
    assert biorder.magnus_sign(w("x")) == 1
    assert biorder.magnus_sign(w("x'")) == -1
    assert biorder.magnus_sign(w("xy")) == 1
    assert biorder.magnus_sign(w("y'x'")) == -1


def test_commutator_signs():
    # [x', y'] and [y, x] land on opposite sides
    assert biorder.magnus_sign(w("x' y' x y")) == 1
    assert biorder.magnus_sign(w("y' x' y x")) == -1


def test_identity_has_no_sign():
    with pytest.raises(ValueError):
        biorder.magnus_sign(fg.IDENTITY)


def test_inverse_flips_sign(rng):
    for _ in range(300):
        word = random_reduced_word(rng, 3, 6)
        if word.is_identity:
            continue
        assert biorder.magnus_sign(fg.inv(word)) == -biorder.magnus_sign(word)


def test_positive_cone_is_a_subsemigroup(rng):
    for _ in range(300):
        a = random_reduced_word(rng, 2, 5)
        b = random_reduced_word(rng, 2, 5)
        if a.is_identity or b.is_identity:
            continue
        product = fg.mul(a, b)
        if product.is_identity:
            continue
        sa, sb = biorder.magnus_sign(a), biorder.magnus_sign(b)
        if sa == sb:
            assert biorder.magnus_sign(product) == sa


def test_conjugation_preserves_sign(rng):
    for _ in range(300):
        word = random_reduced_word(rng, 2, 5)
        q = random_reduced_word(rng, 2, 4)
        if word.is_identity:
            continue
        assert biorder.magnus_sign(fg.conjugate(q, word)) == biorder.magnus_sign(
            word
        )


def test_uniform_sign():
    assert biorder.uniform_sign([w("x"), w("xy"), w("yy")]) == 1
    assert biorder.uniform_sign([w("x'"), w("y'")]) == -1
    assert biorder.uniform_sign([w("x"), w("y'")]) is None
    assert biorder.uniform_sign([w("x"), fg.IDENTITY]) is None


def _series_sign(word):
    """The sign of the leading Magnus term, from the truncated series alone."""
    degree = 2
    coefficient = biorder._leading_coefficient(word, degree)
    while coefficient is None:
        degree *= 2
        coefficient = biorder._leading_coefficient(word, degree)
    return 1 if coefficient > 0 else -1


def test_exponent_sums_settle_the_sign_as_the_series_does(rng):
    # the degree-1 terms are the exponent sums; words whose sums all vanish
    # (commutators) or vanish on the lower generators reach the series
    vanishing = 0
    for _ in range(1_500):
        word = random_reduced_word(rng, 3, 7)
        if rng.random() < 0.4:
            u, v = random_reduced_word(rng, 3, 3), random_reduced_word(rng, 3, 3)
            word = fg.mul(fg.mul(u, v), fg.mul(fg.inv(u), fg.inv(v)))
        if word.is_identity:
            continue
        vanishing += not any(fg.abelianize(word, 3))
        biorder.magnus_sign.cache_clear()
        assert biorder.magnus_sign(word) == _series_sign(word), word
    assert vanishing > 300


# ---------------------------------------------------------------------------
# germs at +inf of increasing affine maps

DATA = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _table_rows(name, procedures):
    """The word lists of a benchmark table's rows posed to the procedures."""
    rows = []
    for line in (DATA / name).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fields = line.split("\t")
        procedure, expected, text = fields[0], fields[1], fields[-1]
        if procedure in procedures:
            rows.append((expected, fg.dedupe(w(t) for t in text.split("|"))))
    return rows


def _affine(maps, word):
    """The map t -> a*t + b of a word, the first letter outermost, computed
    as the composition of explicit functions of t, apart from biorder."""
    def letter(code):
        a, b = maps[abs(code) - 1]
        if code > 0:
            return lambda t: a * t + b
        return lambda t: (t - b) / a

    functions = [letter(code) for code in word.letters]

    def apply(t):
        for function in reversed(functions):
            t = function(t)
        return t

    b = apply(Fraction(0))
    return apply(Fraction(1)) - b, b


def _side(a, b):
    return (a > 1) - (a < 1) if a != 1 else (b > 0) - (b < 0)


def test_germs_compose_exactly():
    # x -> 2t + 3 and y -> t/3 + 1; the first letter is applied last
    maps = ((Fraction(2), Fraction(3)), (Fraction(1, 3), Fraction(1)))
    expected = {
        "x": (2, 3),
        "x'": (Fraction(1, 2), Fraction(-3, 2)),
        "y'": (3, -3),
        "xy": (Fraction(2, 3), 5),
        "y'x": (6, 6),
        "x y x' y'": (1, 3),
    }
    for text, germ in expected.items():
        assert biorder.germ(maps, w(text)) == germ, text
        assert _affine(maps, w(text)) == germ, text
    # the negative germs of y'y'xy' | x'yxy'y' | xyx' at +inf: x -> t/3 - 2
    # and y -> t - 2
    maps = ((Fraction(1, 3), Fraction(-2)), (Fraction(1), Fraction(-2)))
    for text in ("y'y'xy'", "x'yxy'y'", "xyx'"):
        assert biorder.germ_sign(*biorder.germ(maps, w(text))) == -1, text


def test_germ_signs():
    assert biorder.germ_sign(Fraction(2), Fraction(-100)) == 1
    assert biorder.germ_sign(Fraction(1, 2), Fraction(100)) == -1
    assert biorder.germ_sign(Fraction(1), Fraction(1, 7)) == 1
    assert biorder.germ_sign(Fraction(1), Fraction(-1, 7)) == -1
    # the identity germ is on neither side, nor is a word that composes it
    assert biorder.germ_sign(Fraction(1), Fraction(0)) == 0
    maps = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    assert biorder.germ_sign(*biorder.germ(maps, w("xy'"))) == 0


def test_root_classes_put_words_on_one_side(rng):
    # conjugates of positive powers of one word share a class, and so a
    # Magnus sign; a class and its inverse's differ for every nonidentity
    shared = 0
    for _ in range(400):
        u = random_reduced_word(rng, 2, 4)
        q = random_reduced_word(rng, 2, 3)
        if u.is_identity:
            continue
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        power = fg.product([u] * m)
        other = fg.conjugate(q, fg.product([u] * n))
        assert biorder._root_class(power.letters) == biorder._root_class(
            other.letters
        )
        assert biorder._root_class(power.letters) != biorder._root_class(
            fg.inv(power).letters
        )
        v = random_reduced_word(rng, 2, 6)
        if v.is_identity:
            continue
        if biorder._root_class(v.letters) == biorder._root_class(power.letters):
            shared += 1
            assert biorder.magnus_sign(v) == biorder.magnus_sign(power), (u, v)
    assert shared > 5
    assert biorder._root_class(()) == biorder._root_class(fg.bar(()))


def test_widest_functional_is_strict_wherever_one_is(rng):
    nonzero = 0
    for _ in range(400):
        arity = rng.choice((2, 3))
        vectors = [
            tuple(rng.randint(-3, 3) for _ in range(arity))
            for _ in range(rng.randint(1, 4))
        ]
        functional = biorder._widest_functional(vectors, arity)
        assert all(isinstance(c, int) for c in functional)
        values = [sum(a * b for a, b in zip(functional, v)) for v in vectors]
        assert min(values) >= 0, (vectors, functional)
        nonzero += any(values)
        weak = [fm.le([-c for c in v], 0) for v in vectors]
        for v, value in zip(vectors, values):
            if not value:
                strict = fm.le([-c for c in v], -1)
                assert fm.solve(arity, (), weak + [strict]) is None, (vectors, v)
    assert 100 < nonzero < 400


def test_germ_order_tries_the_widest_functional_plus_a_generator():
    # y | y'xyx'y': the exponent sums are opposite, so the widest
    # functional is 0; f = e_x keeps both words at multiplier 1 and scales
    # the translation of y inside the conjugate
    joins = words("y", "y'xyx'y'")
    vectors = [fg.abelianize(u, 2) for u in joins]
    assert biorder._widest_functional(vectors, 2) == (0, 0)
    maps = biorder.affine_germ_order(joins, 2)
    assert maps is not None and maps[1][0] == 1 and maps[0][0] != 1
    sides = {_side(*_affine(maps, u)) for u in joins}
    assert sides in ({1}, {-1})


def test_germ_order_rechecks_what_the_solver_returns(monkeypatch):
    # y | xxyy | yxy'x': no functional is positive on all three, and the
    # germ order puts them above the identity through translations alone
    joins = words("y", "xxyy", "yxy'x'")
    maps = biorder.affine_germ_order(joins, 2)
    assert maps is not None
    assert all(_side(*_affine(maps, u)) == 1 for u in joins)
    # translations of 0 leave the words of multiplier 1 on neither side
    monkeypatch.setattr(
        biorder, "_translations", lambda level, f, base, side, arity: [0] * arity
    )
    assert biorder.affine_germ_order(joins, 2) is None


def _germ_path(maps, joins):
    """The pivots signed as the lexicographic order signs them: the side of
    the germ that makes every word positive, else the Magnus sign."""
    side = _side(*_affine(maps, joins[0]))
    path = []
    for pivot in sign_pivots(joins):
        sign = _side(*_affine(maps, pivot)) or biorder.magnus_sign(pivot)
        path.append((pivot, side * sign))
    return tuple(path)


def _open_along(path, joins, bound):
    """The sign search itself, run with no root settlement, with the pivots
    in their order and the path's sign tried first: it returns the path
    exactly when no branch closes along it."""
    petal, leaf = ro._conjugating(fg.ball(2, bound))

    def choose(prefix):
        return path[len(prefix)] if len(prefix) < len(path) else None

    closure = membership.IdentityClosure()
    return ro._sign_search(closure, joins, choose, petal, leaf) == path


def test_affine_germ_orders_leave_the_search_open(rng):
    # wherever the producer returns maps, every word's germ lies strictly
    # on one side, and where the root is one the search would branch on,
    # the search leaves open the path the lexicographic order signs, at
    # conjugator bounds 0 and 1, and at bound 2 on the table rows and on a
    # few random sets (a bound-2 path costs about half a second)
    pool = []
    while len(pool) < 500:
        joins = fg.dedupe(random_reduced_word(rng, 2, 5) for _ in range(3))
        if len(joins) == 3 and min(map(len, joins)) >= 2:
            pool.append(joins)
    tables = _table_rows("hard-search.tsv", {"rg"}) + _table_rows(
        "slow.tsv", {"rg", "rg2"}
    )
    unsettled = list(dict.fromkeys(j for e, j in tables if e != "VALID"))
    assert len(unsettled) == 5
    searched = 0
    for joins in unsettled + pool:
        maps = biorder.affine_germ_order(joins, 2)
        if maps is None:
            assert joins not in unsettled, joins
            continue
        assert all(a > 0 for a, _ in maps)
        sides = {_side(*_affine(maps, u)) for u in joins}
        assert sides in ({1}, {-1}), joins
        if ro._root_order(joins, 2) is not None:
            continue
        path = _germ_path(maps, joins)
        bounds = (0, 1, 2) if searched < len(unsettled) + 4 else (0, 1)
        for bound in bounds:
            assert _open_along(path, joins, bound), (joins, bound)
        searched += 1
    assert 25 < searched - len(unsettled) < 60


def test_germ_order_settles_every_root_a_separator_settles(rng):
    # a functional strictly positive on every word makes the widest one
    # strict on every word too, so no word keeps multiplier 1 and b = 0
    # works; rg_refute_bounded asks for no separator on that account
    settled = 0
    for _ in range(1000):
        joins = fg.dedupe(
            random_reduced_word(rng, 2, 5) for _ in range(rng.randint(1, 4))
        )
        if any(u.is_identity for u in joins):
            continue
        vectors = [fg.abelianize(u, 2) for u in joins]
        if ab.find_separator(vectors) is None:
            continue
        settled += 1
        assert biorder.affine_germ_order(joins, 2) is not None, joins
    assert settled > 300


def test_germ_order_fails_where_the_search_refutes():
    valid = [joins for expected, joins in _table_rows("hard-search.tsv", {"rg"})
             if expected == "VALID"]
    valid += [joins for expected, joins in _table_rows("query-mix.tsv", {"rg"})
              if expected == "VALID"]
    assert len(valid) == 3 + 288
    for joins in valid:
        assert biorder.affine_germ_order(joins, 2) is None, joins
