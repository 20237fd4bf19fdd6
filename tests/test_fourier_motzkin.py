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
