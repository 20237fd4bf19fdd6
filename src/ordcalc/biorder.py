"""Computable bi-invariant orders on F(k): truncated Magnus expansions,
and the germs at +inf of increasing affine maps of the rationals.

Each generator maps to 1 + A_g in the ring of noncommuting power series;
a nontrivial word has some nonzero term beyond the constant, and the sign
of the graded-lexicographically first such term orders the group.  The
positive cone is closed under products and under conjugation, which makes
the sign a sound fast certificate that e is outside a subsemigroup whose
generators all sit on one side.

The germs at +inf of the maps t -> a*t + b with a > 0 form a bi-ordered
group: a germ is positive when a > 1, or when a = 1 and b > 0 (the
lexicographic order on Q x| Q>0).  Sending each generator to such a map
and breaking ties on the kernel by the Magnus sign orders F(k) bi-
invariantly too, so maps under which every word's germ lies strictly on
one side are the same kind of certificate.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import abelian, freegroup
from . import fourier_motzkin as fm
from .freegroup import ReducedWord

# t -> a*t + b, with a > 0
AffineMap = tuple[Fraction, Fraction]

# The multipliers are powers of this base or of its inverse.  With a_x = r
# and a_y = 1, x'yxy'y' | xyx' move +inf by (1/r - 2)*b_y and r*b_y, to one
# side only when r < 1/2; base 2 reaches that only through a_x = 1/4, and
# settles fewer random open roots than base 3
_BASE = Fraction(3)

_Series = dict[tuple[int, ...], int]

_MAX_DEGREE = 64


def _mul(p: _Series, q: _Series, degree: int) -> _Series:
    out: _Series = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if len(m1) + len(m2) > degree:
                continue
            key = m1 + m2
            value = out.get(key, 0) + c1 * c2
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


def _letter_series(code: int, degree: int) -> _Series:
    g = abs(code)
    if code > 0:
        return {(): 1, (g,): 1}
    # (1 + A)^-1 = 1 - A + A^2 - ...
    return {(g,) * d: (-1) ** d for d in range(degree + 1)}


def _leading_coefficient(word: ReducedWord, degree: int) -> int | None:
    series: _Series = {(): 1}
    for code in word.letters:
        series = _mul(series, _letter_series(code, degree), degree)
    candidates = [(len(m), m) for m, c in series.items() if m and c]
    if not candidates:
        return None
    return series[min(candidates)[1]]


@functools.lru_cache(maxsize=None)
def magnus_sign(word: ReducedWord) -> int:
    """+1 or -1 according to the bi-order; the identity is not comparable."""
    if word.is_identity:
        raise ValueError("the identity has no sign")
    # the degree-1 terms are the exponent sums, and they come first
    for g in sorted(set(map(abs, word.letters))):
        total = word.letters.count(g) - word.letters.count(-g)
        if total:
            return 1 if total > 0 else -1
    degree = 2
    while degree <= _MAX_DEGREE:
        coefficient = _leading_coefficient(word, degree)
        if coefficient is not None:
            return 1 if coefficient > 0 else -1
        degree *= 2
    raise RuntimeError(f"no nonzero Magnus term up to degree {_MAX_DEGREE}")


def uniform_sign(words) -> int | None:
    """+1/-1 when all words sit strictly on one side of the order, else None."""
    sign = None
    for w in words:
        if w.is_identity:
            return None
        s = magnus_sign(w)
        if sign is None:
            sign = s
        elif s != sign:
            return None
    return sign


def germ(maps: tuple[AffineMap, ...], word: ReducedWord) -> AffineMap:
    """The map t -> a*t + b that the word composes, the first letter
    outermost, with generator g sent to maps[g - 1] and its inverse to
    t -> t/a - b/a; exact, since the maps are rational."""
    a, b = Fraction(1), Fraction(0)
    for code in word.letters:
        step, shift = maps[abs(code) - 1]
        if code < 0:
            step, shift = 1 / step, -shift / step
        a, b = a * step, a * shift + b
    return a, b


def germ_sign(a: Fraction, b: Fraction) -> int:
    """+1/-1 as the germ at +inf of t -> a*t + b lies above or below the
    identity's; 0 for the identity germ."""
    if a != 1:
        return 1 if a > 1 else -1
    return (b > 0) - (b < 0)


def _root_class(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the primitive root of the word's cyclic
    reduction: equal for two words exactly when they are conjugate to
    positive powers of one word, and so on one side of every bi-order."""
    start, stop = 0, len(letters)
    while stop - start > 1 and letters[start] == -letters[stop - 1]:
        start, stop = start + 1, stop - 1
    core = letters[start:stop]
    n = len(core)
    period = next(
        (p for p in range(1, n) if not n % p and core[:p] * (n // p) == core), n
    )
    root = core[:period]
    return min((root[i:] + root[:i] for i in range(period)), default=())


def _widest_functional(vectors, arity: int) -> tuple[int, ...]:
    """An integer functional weakly positive on every vector and strictly
    positive on as many as any such functional is, or 0 when none is
    strictly positive on any.  The system asks for one strictly positive
    sum; fm.solve sets each variable strictly inside its interval where the
    interval is wider than a point, so its solution lies in the relative
    interior of the solutions and is strict wherever any solution is."""
    weak = [fm.le([-c for c in v], 0) for v in vectors]
    total = [-sum(v[d] for v in vectors) for d in range(arity)]
    solution = fm.solve(arity, (), weak + [fm.le(total, -1)])
    return (0,) * arity if solution is None else abelian.scaled_integers(solution)


def _translations(level, functional, base: Fraction, side: int, arity: int):
    """Translations b under which every word of the level, whose multiplier
    is 1, moves the germ at +inf to the side: one strict system, linear in
    b, since a word's translation is the sum over its letters of the
    multiplier of the prefix before the letter times that letter's shift."""
    rows = []
    for word in level:
        coeffs = [Fraction(0)] * arity
        exponent = 0
        for code in word.letters:
            g = abs(code) - 1
            if code > 0:
                coeffs[g] += base**exponent
                exponent += functional[g]
            else:
                exponent -= functional[g]
                coeffs[g] -= base**exponent
        rows.append(fm.le([-side * c for c in coeffs], -1))
    return fm.solve(arity, (), rows)


def affine_germ_order(words, arity: int) -> tuple[AffineMap, ...] | None:
    """Increasing affine maps of the rationals, one per generator, under
    which every word's germ at +inf lies strictly on one side, or None when
    none is found.

    The multipliers are a_g = r**f_g, with f an integer functional weakly
    positive on every word's exponent sums and strictly positive on as
    many as it can be, so those words have multiplier r**f(w) != 1.  The
    words that f vanishes on, the level, have multiplier 1, and one strict
    Fourier-Motzkin system in the b_g moves each of them to the side: r = 3
    with every word above the identity, r = 1/3 with every word below.
    When that fails, f + e_g and f - e_g are tried for each generator g
    wherever they are still weakly positive on every word; they change
    the level or only the prefixes' multipliers.  A functional that is 0
    everywhere is never tried, since its system is the separator's.  Words
    that no bi-order puts on one side end it before any system.  Every
    word's germ is evaluated exactly before the maps are returned.
    """
    # no bi-order makes the identity positive, nor both of two words that
    # are conjugate to positive powers of some u and of u' respectively
    classes = {_root_class(w.letters) for w in words}
    if any(_root_class(freegroup.bar(w.letters)) in classes for w in words):
        return None
    vectors = [freegroup.abelianize(w, arity) for w in words]
    widest = _widest_functional(vectors, arity)
    candidates = [widest] + [
        tuple(c + sign * (d == g) for d, c in enumerate(widest))
        for g in range(arity)
        for sign in (1, -1)
    ]
    for f in candidates:
        values = [sum(a * b for a, b in zip(f, v)) for v in vectors]
        if not any(f) or min(values) < 0:
            continue
        level = [w for w, value in zip(words, values) if not value]
        for side in (1, -1):
            base = _BASE if side > 0 else 1 / _BASE
            shifts = _translations(level, f, base, side, arity)
            if shifts is None:
                continue
            maps = tuple((base ** f[g], shifts[g]) for g in range(arity))
            if all(germ_sign(*germ(maps, w)) == side for w in words):
                return maps
    return None
