"""A computable bi-invariant order on F(k) via truncated Magnus expansions.

Each generator maps to 1 + A_g in the ring of noncommuting power series;
a nontrivial word has some nonzero term beyond the constant, and the sign
of the graded-lexicographically first such term orders the group.  The
positive cone is closed under products and under conjugation, which makes
the sign a sound fast certificate that e is outside a subsemigroup whose
generators all sit on one side.
"""

from __future__ import annotations

import functools

from .freegroup import ReducedWord

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
