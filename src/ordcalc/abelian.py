"""Abelian validity via the integer theorem of the alternative.

For abelianized joinands v_1..v_n exactly one of the following holds: a
nonnegative nontrivial integer combination of the v_i vanishes (the join
is valid and the multipliers drive a proof), or an integer functional is
strictly negative on every v_i (the functional is a Z-countermodel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import fourier_motzkin as fm
from . import freegroup
from .freegroup import ReducedWord
from .verdicts import INVALID, VALID, Verdict

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class Combination:
    """Nonnegative multipliers, not all zero, with sum_i lam_i * v_i = 0."""

    multipliers: tuple[int, ...]


@dataclass(frozen=True)
class Separator:
    """Integer functional with y . v_i < 0 for every input vector."""

    functional: tuple[int, ...]


GordanCertificate = Union[Combination, Separator]


def verify_combination(vectors: Sequence[ExponentVector], lam: Sequence[int]) -> bool:
    if len(lam) != len(vectors) or any(c < 0 for c in lam) or not any(lam):
        return False
    k = len(vectors[0])
    return all(
        sum(c * v[d] for c, v in zip(lam, vectors)) == 0 for d in range(k)
    )


def verify_separator(vectors: Sequence[ExponentVector], y: Sequence[int]) -> bool:
    if not vectors or len(y) != len(vectors[0]):
        return False
    return all(sum(a * b for a, b in zip(y, v)) < 0 for v in vectors)


def scaled_integers(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The rational vector scaled to coprime integers, direction kept."""
    scale = math.lcm(*(value.denominator for value in values)) if values else 1
    scaled = [int(value * scale) for value in values]
    shrink = math.gcd(*scaled) if any(scaled) else 1
    return tuple(v // max(shrink, 1) for v in scaled)


def find_combination(vectors: Sequence[ExponentVector]) -> tuple[int, ...] | None:
    """Nonnegative nontrivial integer lam with sum lam_i v_i = 0, if one exists.

    Rational feasibility of the sum-one normalization is equivalent to the
    integer statement because the system is homogeneous.
    """
    n = len(vectors)
    k = len(vectors[0])
    equalities = [fm.eq([v[d] for v in vectors], 0) for d in range(k)]
    equalities.append(fm.eq([1] * n, 1))
    inequalities = [
        fm.le([-1 if j == i else 0 for j in range(n)], 0) for i in range(n)
    ]
    solution = fm.solve(n, equalities, inequalities)
    if solution is None:
        return None
    lam = scaled_integers(solution)
    if not verify_combination(vectors, lam):
        raise AssertionError("combination solution failed verification")
    return lam


def find_separator(vectors: Sequence[ExponentVector]) -> tuple[int, ...] | None:
    """Integer y with y . v_i < 0 for all i, if one exists.

    Strictness is homogeneous, so y . v <= -1 captures it over the rationals.
    """
    k = len(vectors[0])
    inequalities = [fm.le(list(v), -1) for v in vectors]
    solution = fm.solve(k, (), inequalities)
    if solution is None:
        return None
    y = scaled_integers(solution)
    if not verify_separator(vectors, y):
        raise AssertionError("separator solution failed verification")
    return y


def decide_abelian(vectors: Sequence[ExponentVector]) -> GordanCertificate:
    """Return the unique certifiable side for a nonempty vector list."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("at least one vector is required")
    k = len(vectors[0])
    if any(len(v) != k for v in vectors):
        raise ValueError("vectors must share one arity")
    for i, v in enumerate(vectors):
        if not any(v):
            # e <= ... \/ e \/ ... holds outright.
            return Combination(tuple(1 if j == i else 0 for j in range(len(vectors))))
    lam = find_combination(vectors)
    if lam is not None:
        return Combination(lam)
    y = find_separator(vectors)
    if y is not None:
        return Separator(y)
    raise AssertionError("neither side of the alternative is certifiable")


def validity_abelian(words: Sequence[ReducedWord], arity: int) -> Verdict:
    """Abelian verdict for e <= w_1 \\/ ... \\/ w_n with a two-sided certificate."""
    from . import calculus

    words = tuple(words)
    if not words:
        raise ValueError("at least one joinand is required")
    certificate = decide_abelian([freegroup.abelianize(w, arity) for w in words])
    if isinstance(certificate, Combination):
        derivation = calculus.derive_ga(words, certificate.multipliers)
        return Verdict(VALID, derivation)
    return Verdict(INVALID, certificate)
