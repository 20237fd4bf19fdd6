"""Committed mutants: small faults in the program that named tests must catch.

Run from anywhere, with pytest installed:  python tests/mutants.py

For each mutant, ``src/`` and ``tests/`` are copied to a temporary
directory, the mutant's old snippet, which must occur exactly once in its
file, is replaced there, and only the mutant's tests run.  A mutant is
killed when every one of its tests fails.  Exits 1 when a mutant
survives, when its old snippet is missing or occurs more than once, or
when its tests cannot be run.  Pytest does not collect this file, and it
imports only the standard library.

Each entry describes its fault in its name; add one here, with the tests
that kill it, rather than describing a tried mutant in prose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MEMBERSHIP = "src/ordcalc/membership.py"
BIORDER = "src/ordcalc/biorder.py"
RIGHTORDER = "src/ordcalc/rightorder.py"
WITNESSES = "src/ordcalc/witnesses.py"


def _membership_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_membership.py::{name}" for name in names)


def _biorder_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_biorder.py::{name}" for name in names)


def _rightorder_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_rightorder.py::{name}" for name in names)


def _certio_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_certio.py::{name}" for name in names)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "closure-concat-skips-the-base",
        MEMBERSHIP,
        "            fresh = succ[r] & ~succ[q]\n",
        "            fresh = succ[r] & ~succ[q] & ~1\n",
        _membership_tests(
            "test_identity_closure_agrees_with_contains_identity_on_many_lists",
        ),
    ),
    Mutant(
        "closure-grow-edits-an-old-out-table",
        MEMBERSHIP,
        "outs[prev] = {**outs[prev], code: targets | 1 << nxt}",
        "outs[prev][code] = targets | 1 << nxt",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_shared_stems",
        ),
    ),
    Mutant(
        "closure-grow-edits-an-old-in-table",
        MEMBERSHIP,
        "ins[nxt] = {**ins[nxt], code: ins[nxt].get(code, 0) | 1 << prev}",
        "ins[nxt][code] = ins[nxt].get(code, 0) | 1 << prev",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_shared_stems",
        ),
    ),
    Mutant(
        "closure-rollback-keeps-the-letter-bitsets",
        MEMBERSHIP,
        "             self._leaving, self._entering) = mark",
        "             _, _) = mark",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_shared_stems",
        ),
    ),
    Mutant(
        "closure-seeding-reads-the-wrong-letter-bitset",
        MEMBERSHIP,
        "stretch = (1 << p | pred[p]) & entering.get(-code, 0)",
        "stretch = (1 << p | pred[p]) & leaving.get(-code, 0)",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_contains_identity_on_many_lists",
        ),
    ),
    Mutant(
        "closure-holds-whatever-reaches-a-state",
        MEMBERSHIP,
        "        return bool(states & 1)\n",
        "        return bool(states)\n",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_shared_stems",
        ),
    ),
    Mutant(
        "closure-inverse-test-reverses-without-inverting",
        MEMBERSHIP,
        "self.holds(freegroup.bar(letters))",
        "self.holds(letters[::-1])",
        _membership_tests(
            "test_identity_closure_agrees_through_grow_and_rollback",
            "test_identity_closure_agrees_with_shared_stems",
        ),
    ),
    Mutant(
        "closure-holds-skips-the-stretch-after-a-letter",
        MEMBERSHIP,
        "            stretch = states\n",
        "            stretch = 0\n",
        _membership_tests("test_most_pivot_grows_of_hard_searches_add_no_transition"),
    ),
    Mutant(
        "minimal-automaton-signature-ignores-whether-a-child-is-final",
        WITNESSES,
        "(code, state[child], final) for code, (child, final)",
        "(code, state[child]) for code, (child, final)",
        _membership_tests(
            "test_minimal_automaton_merges_equal_right_languages",
            "test_identity_closure_agrees_with_contains_identity_on_many_lists",
        ),
    ),
    Mutant(
        "minimal-automaton-prefix-generator-loses-its-return-to-the-base",
        WITNESSES,
        "out[code] = (1 << state[child] if child else 0) | final",
        "out[code] = 1 << state[child] if child else final",
        _membership_tests(
            "test_minimal_automaton_merges_equal_right_languages",
            "test_identity_closure_agrees_with_contains_identity_on_many_lists",
        ),
    ),
    Mutant(
        "reaches-identity-concat-skips-the-base",
        WITNESSES,
        "        extra = ends[r] & ~ends[q]\n",
        "        extra = ends[r] & ~ends[q] & ~1\n",
        _membership_tests(
            "test_identity_closure_agrees_with_contains_identity_on_many_lists",
        ),
    ),
    Mutant(
        "walk-factors-names-the-last-generator",
        MEMBERSHIP,
        "factors.append(self.first[tuple(read)])",
        "factors.append(max(i for i, u in enumerate(self.words) if u.letters == tuple(read)))",
        _membership_tests("test_prefix_automaton_factors_on_first_generators"),
    ),
    Mutant(
        "germ-sign-puts-the-identity-germ-above",
        BIORDER,
        "    return (b > 0) - (b < 0)\n",
        "    return 1 if b >= 0 else -1\n",
        _biorder_tests("test_germ_signs"),
    ),
    Mutant(
        "germ-inverse-keeps-the-shift-unscaled",
        BIORDER,
        "step, shift = 1 / step, -shift / step",
        "step, shift = 1 / step, -shift",
        _biorder_tests("test_germs_compose_exactly"),
    ),
    Mutant(
        "germ-order-skips-the-exact-check",
        BIORDER,
        "            if all(germ_sign(*germ(maps, w)) == side for w in words):\n",
        "            if True:\n",
        _biorder_tests("test_germ_order_rechecks_what_the_solver_returns"),
    ),
    Mutant(
        "rg-settlement-skips-the-magnus-order",
        RIGHTORDER,
        "    if biorder.uniform_sign(words) is not None:\n        return None\n",
        "",
        _rightorder_tests("test_excluded_roots_build_no_closure"),
    ),
    Mutant(
        "extend-order-searches-before-the-separator",
        RIGHTORDER,
        "    if separator is not None:\n        return abelian.Separator(separator)\n",
        "",
        _rightorder_tests(
            "test_decide_rg_three_outcomes",
            "test_representable_queries_solve_one_system",
        ),
    ),
    Mutant(
        "sign-assignment-check-accepts-any-nonzero-sign",
        WITNESSES,
        "if any(s not in (1, -1) for _, s in signs):",
        "if any(s == 0 for _, s in signs):",
        _certio_tests("test_forged_sign_assignment_rejected"),
    ),
    Mutant(
        "sign-search-forces-a-sign-whose-grow-skipped-some-word",
        RIGHTORDER,
        "        forced = not closure.kept\n",
        "        forced = closure.kept < len(tuple(petal(pivot, sign)))\n",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_forced_signs_agree_with_branching_on_every_pivot",
        ),
    ),
    Mutant(
        "sign-search-factors-leaves-over-forced-pivots",
        RIGHTORDER,
        "above = branched if forced else branched + signed",
        "above = branched + signed",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_forced_signs_agree_with_branching_on_every_pivot",
        ),
    ),
    Mutant(
        "refutation-walk-reads-negative-factor-indexes-from-the-end",
        WITNESSES,
        "if any(not 0 <= e.base < len(generators) for e in entries):",
        "if any(e.base >= len(generators) for e in entries):",
        _certio_tests("test_leaf_factor_indexes_out_of_range_are_rejected"),
    ),
    Mutant(
        "pivot-list-check-passes-over-a-missing-pivot",
        WITNESSES,
        "        if rep not in listed:\n            return False\n",
        "        if rep not in listed:\n            continue\n",
        _certio_tests(
            "test_pivot_lists_missing_any_pivot_are_rejected",
            "test_forged_pivot_lists_are_rejected_at_the_first_missing_pivot",
            "test_forged_sign_assignment_rejected",
        ),
    ),
)


def _failed(stdout: str) -> set[str]:
    """The test ids that pytest's short summary (-rfE) reports failing."""
    return {
        line.split()[1]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def run(mutant: Mutant, workdir: Path) -> str | None:
    """Apply one mutant to a fresh copy and run its tests; None when it is
    killed, else what went wrong."""
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part,
            workdir / part,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
    target = workdir / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"old snippet occurs {count} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new))
    paths = [str(workdir / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *mutant.tests],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    if result.returncode not in (0, 1):
        return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    survived = [test for test in mutant.tests if test not in _failed(result.stdout)]
    if survived:
        return "survives " + ", ".join(survived)
    return None


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as scratch:
        for i, mutant in enumerate(MUTANTS):
            problem = run(mutant, Path(scratch) / str(i))
            problems += problem is not None
            print(f"{mutant.name}: {problem or 'killed'}", flush=True)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
