import pytest

from conftest import random_reduced_word, w
from ordcalc import biorder, freegroup as fg


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
