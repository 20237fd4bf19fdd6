"""Exact rational linear feasibility by Gaussian elimination plus Fourier-Motzkin.

Systems mix equalities and non-strict inequalities; a caller writes a
strict homogeneous inequality as ``<= -1``.  On feasible systems a
rational solution is reconstructed by back-substitution, so callers can
scale it to an integer certificate and verify it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Inequality:
    """sum(coeffs[i] * x_i) <= bound."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction


@dataclass(frozen=True)
class Equality:
    coeffs: tuple[Fraction, ...]
    bound: Fraction


def _fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def le(coeffs: Iterable, bound) -> Inequality:
    return Inequality(_fractions(coeffs), Fraction(bound))


def eq(coeffs: Iterable, bound) -> Equality:
    return Equality(_fractions(coeffs), Fraction(bound))


def solve(
    n_vars: int,
    equalities: Sequence[Equality] = (),
    inequalities: Sequence[Inequality] = (),
) -> list[Fraction] | None:
    """Return one rational solution, or None when the system is infeasible."""
    eqs = [(list(e.coeffs), e.bound) for e in equalities]
    ineqs = [(list(r.coeffs), r.bound) for r in inequalities]
    for coeffs, _ in eqs:
        if len(coeffs) != n_vars:
            raise ValueError("equality arity mismatch")
    for coeffs, _ in ineqs:
        if len(coeffs) != n_vars:
            raise ValueError("inequality arity mismatch")

    # Gaussian elimination on the equalities.
    substitutions: list[tuple[int, list[Fraction], Fraction]] = []
    pending = eqs
    while pending:
        coeffs, bound = pending.pop()
        pivot = next((j for j, c in enumerate(coeffs) if c != 0), None)
        if pivot is None:
            if bound != 0:
                return None
            continue
        c = coeffs[pivot]
        expr = [-coeffs[j] / c if j != pivot else Fraction(0) for j in range(n_vars)]
        const = bound / c
        substitutions.append((pivot, expr, const))

        def subst(row: list[Fraction], rhs: Fraction) -> tuple[list[Fraction], Fraction]:
            w = row[pivot]
            if w == 0:
                return row, rhs
            out = [row[j] + w * expr[j] if j != pivot else Fraction(0) for j in range(n_vars)]
            return out, rhs - w * const

        pending = [subst(r, b) for r, b in pending]
        ineqs = [subst(r, b) for r, b in ineqs]

    eliminated = {j for j, _, _ in substitutions}
    free_vars = [j for j in range(n_vars) if j not in eliminated]

    def tidy(candidates):
        # scale rows to a canonical form and drop duplicates and rows with
        # no variables left; an unsatisfiable constant row ends the search,
        # and a row whose first coefficient is 1 or -1 is already canonical
        kept = {}
        for coeffs, bound in candidates:
            pivot = next((c for c in coeffs if c != 0), None)
            if pivot is None:
                if bound < 0:
                    return None
                continue
            scale = abs(pivot)
            if scale == 1:
                kept[tuple(coeffs), bound] = None
            else:
                kept[tuple(c / scale for c in coeffs), bound / scale] = None
        return [(list(c), b) for c, b in kept]

    # Fourier-Motzkin on the remaining inequality system.
    stages: list[tuple[int, list, list]] = []
    rows = tidy(ineqs)
    if rows is None:
        return None
    for var in reversed(free_vars):
        lowers = [r for r in rows if r[0][var] < 0]
        uppers = [r for r in rows if r[0][var] > 0]
        rest = [r for r in rows if r[0][var] == 0]
        stages.append((var, lowers, uppers))
        combined = []
        for lc, lb in lowers:
            for uc, ub in uppers:
                scale_l = uc[var]
                scale_u = -lc[var]
                coeffs = [scale_l * lc[j] + scale_u * uc[j] for j in range(n_vars)]
                combined.append((coeffs, scale_l * lb + scale_u * ub))
        rows = tidy(rest + combined)
        if rows is None:
            return None

    values: list[Fraction] = [Fraction(0)] * n_vars

    def row_bound(row, var) -> Fraction:
        coeffs, bound = row
        rest = sum((coeffs[j] * values[j] for j in range(n_vars) if j != var), Fraction(0))
        return (bound - rest) / coeffs[var]

    for var, lowers, uppers in reversed(stages):
        lo = max((row_bound(row, var) for row in lowers), default=None)
        hi = min((row_bound(row, var) for row in uppers), default=None)
        if lo is None and hi is None:
            values[var] = Fraction(0)
        elif lo is None:
            values[var] = hi - 1
        elif hi is None:
            values[var] = lo + 1
        else:
            if lo > hi:
                raise AssertionError("empty interval after feasible elimination")
            values[var] = (lo + hi) / 2

    for var, expr, const in reversed(substitutions):
        values[var] = const + sum(
            (expr[j] * values[j] for j in range(n_vars) if j != var), Fraction(0)
        )

    return values
