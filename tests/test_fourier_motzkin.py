import itertools
import random
from fractions import Fraction

from conftest import SEED
from ordcalc import fourier_motzkin as fm


def _satisfies(solution, equalities, inequalities):
    for e in equalities:
        if sum(c * v for c, v in zip(e.coeffs, solution)) != e.bound:
            return False
    for r in inequalities:
        if sum(c * v for c, v in zip(r.coeffs, solution)) > r.bound:
            return False
    return True


def test_simple_feasible_system():
    eqs = [fm.eq([1, 1], 2)]
    ineqs = [fm.le([1, 0], 3), fm.le([-1, 0], 0)]
    solution = fm.solve(2, eqs, ineqs)
    assert solution is not None
    assert _satisfies(solution, eqs, ineqs)


def test_simple_infeasible_system():
    assert fm.solve(1, [], [fm.le([1], 0), fm.le([-1], -1)]) is None
    assert fm.solve(1, [fm.eq([0], 1)], []) is None
    assert fm.solve(2, [fm.eq([1, 1], 1), fm.eq([1, 1], 2)], []) is None


def test_unconstrained_variables_default():
    solution = fm.solve(3, [], [])
    assert solution == [Fraction(0)] * 3


def test_rational_exactness():
    eqs = [fm.eq([3, 0], 1), fm.eq([0, 7], 2)]
    solution = fm.solve(2, eqs, [])
    assert solution == [Fraction(1, 3), Fraction(2, 7)]


def test_random_systems_against_grid_oracle():
    rng = random.Random(SEED)
    grid = [Fraction(v, 2) for v in range(-6, 7)]
    for _ in range(300):
        n = rng.randint(1, 3)
        eqs = []
        ineqs = []
        for _ in range(rng.randint(0, 2)):
            eqs.append(fm.eq([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 4)):
            row = [rng.randint(-2, 2) for _ in range(n)]
            ineqs.append(fm.le(row, rng.randint(-2, 2)))
        solution = fm.solve(n, eqs, ineqs)
        if solution is not None:
            assert _satisfies(solution, eqs, ineqs)
        else:
            # no point on a half-integer grid may satisfy the system
            for point in itertools.product(grid, repeat=n):
                assert not _satisfies(point, eqs, ineqs)


def test_solutions_satisfy_every_row_with_unit_and_other_pivots():
    # rows whose first nonzero coefficient is 1 or -1 are kept as they are,
    # the others scaled; every solution must satisfy every input row exactly
    rng = random.Random(SEED)
    solved = 0
    pivots = {"unit": 0, "other": 0}
    for _ in range(400):
        n = rng.randint(2, 4)
        eqs = [
            fm.eq([rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3))
            for _ in range(rng.randint(0, 1))
        ]
        ineqs = [
            fm.le([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 2))
            for _ in range(rng.randint(1, 6))
        ]
        for row in eqs + ineqs:
            first = next((c for c in row.coeffs if c), None)
            if first is not None:
                pivots["unit" if abs(first) == 1 else "other"] += 1
        solution = fm.solve(n, eqs, ineqs)
        if solution is not None:
            assert _satisfies(solution, eqs, ineqs), (eqs, ineqs)
            solved += 1
    assert min(pivots.values()) > 300, pivots
    assert 100 < solved < 380, solved
