"""Committed mutants: small faults in the program that named tests must catch.

Run from anywhere, with pytest installed:  python tests/mutants.py

First every test that some mutant names runs once on an unmutated copy
of ``src/`` and ``tests/``.  Then, for each mutant, both are copied to a
temporary directory, the mutant's old snippet, which must occur exactly
once in its file, is replaced there, and only the mutant's tests run.  A
mutant is killed when every one of its tests fails.  Exits 1 when a
mutant survives, when it names a test that fails unmutated (its failure
would prove nothing), when its old snippet is missing or occurs more than
once, or when its tests cannot be run.  Pytest does not collect this
file, and it imports only the standard library.

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
CALCULUS = "src/ordcalc/calculus.py"
CERTIO = "src/ordcalc/certio.py"


def _membership_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_membership.py::{name}" for name in names)


def _biorder_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_biorder.py::{name}" for name in names)


def _rightorder_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_rightorder.py::{name}" for name in names)


def _certio_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_certio.py::{name}" for name in names)


def _robustness_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_witness_robustness.py::{name}" for name in names)


def _calculus_tests(*names: str) -> tuple[str, ...]:
    return tuple(f"tests/test_calculus.py::{name}" for name in names)


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
        "         self._leaving, self._entering) = self._marks.pop()",
        "         _, _) = self._marks.pop()",
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
            "test_identity_closure_agrees_with_shared_stems",
            "test_most_pivot_grows_of_hard_searches_add_no_transition",
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
        "leaf-cost-misses-the-return-of-a-direct-step-into-the-base",
        MEMBERSHIP,
        "file((q == base) + (s == base), sources, s, 2, (_DIRECT, code, q))",
        "file(q == base, sources, s, 2, (_DIRECT, code, q))",
        _membership_tests("test_factorizations_have_the_fewest_factors"),
    ),
    Mutant(
        "leaf-cost-misses-the-return-of-a-wrap-step-into-the-base",
        MEMBERSHIP,
        "file(level + (q == base) + 1, sources, base, letters + 2, wrap)",
        "file(level + 1, sources, base, letters + 2, wrap)",
        _membership_tests("test_factorizations_have_the_fewest_factors"),
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
        '    if not set(signs) <= {"+", "-"}:\n',
        '    if "0" in signs:\n',
        _certio_tests("test_sign_strings_of_the_wrong_length_or_alphabet_are_rejected"),
    ),
    Mutant(
        "sign-assignment-check-pairs-signs-by-a-truncating-zip",
        WITNESSES,
        "    if len(pivots) != len(signs):\n"
        '        return "there must be one sign for each pivot of cis(words)"\n',
        "",
        _certio_tests(
            "test_sign_strings_of_the_wrong_length_or_alphabet_are_rejected",
            "test_forged_pivot_lists_are_rejected_at_the_first_missing_pivot",
            "test_forged_sign_assignment_rejected",
        ),
    ),
    Mutant(
        "pivot-walk-runs-past-its-budget",
        WITNESSES,
        "        budget -= 2 * len(pair[0])\n"
        "        if budget < 0:\n            raise BudgetExceeded\n",
        "        budget -= 2 * len(pair[0])\n",
        _robustness_tests(
            "test_pivot_walk_stops_at_its_budget",
            "test_a_long_word_signed_in_full_is_rejected_within_the_budget_under_a_cap",
        ),
    ),
    Mutant(
        "sign-search-inverse-test-reverses-without-inverting",
        RIGHTORDER,
        "closure.holds(freegroup.bar(u.letters))",
        "closure.holds(u.letters[::-1])",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_forced_signs_agree_with_branching_on_every_pivot",
        ),
    ),
    Mutant(
        "sign-search-forces-a-sign-whose-petal-has-some-held-word",
        RIGHTORDER,
        "        forced = not added\n",
        "        forced = len(added) < len(tuple(petal(pivot, sign)))\n",
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
        "pruning-leaves-factor-indexes-unlowered",
        RIGHTORDER,
        "            lowered = yield _lowered(tree, pivot_index)\n",
        "            lowered = tree\n",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_pruned_trees_verify_and_check",
        ),
    ),
    Mutant(
        "pruning-keeps-a-side-that-uses-the-pivot",
        RIGHTORDER,
        "        if pivot_index not in used:\n",
        "        if pivot_index not in used or side is node.negative:\n",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_pruned_trees_verify_and_check",
        ),
    ),
    Mutant(
        "leaf-drops-conjugators-that-differ",
        RIGHTORDER,
        "        if len({e.conjugator for e in chosen}) == 1:\n",
        "        if True:\n",
        _rightorder_tests(
            "test_hard_search_rg_proofs_are_pinned",
            "test_pruned_trees_verify_and_check",
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
        "cone-check-skips-left-products",
        WITNESSES,
        "        products = [splice(taken[i], w) for i in index.left_factors(w)]\n",
        "        products = []\n",
        _rightorder_tests("test_witness_closure_is_the_searched_cone")
        + _robustness_tests("test_path_mutants_are_judged_as_the_oracle_judges_them"),
    ),
    Mutant(
        "cone-check-signs-only-below-the-level-minus-one",
        WITNESSES,
        "_ball_exceeds(self.arity, self.level - 1, 2 * below)",
        "_ball_exceeds(self.arity, self.level - 2, 2 * below)",
        _robustness_tests(
            "test_path_mutants_are_judged_as_the_oracle_judges_them",
            "test_witness_mutants_are_judged_as_the_oracles_judge_them",
        ),
    ),
    Mutant(
        "cone-check-closes-past-the-identity",
        WITNESSES,
        "            if not p:\n                return None\n",
        "",
        _robustness_tests(
            "test_path_mutants_are_judged_as_the_oracle_judges_them",
            "test_witness_mutants_are_judged_as_the_oracles_judge_them",
        ),
    ),
    Mutant(
        "cone-check-accepts-a-generator-beyond-the-level",
        WITNESSES,
        "                if len(w) > self.level:\n"
        "                    issues.append(f\"{name} {text} exceeds level\")\n",
        "",
        _robustness_tests("test_generated_cone_bounds_its_generators"),
    ),
    Mutant(
        "cone-check-takes-any-level",
        WITNESSES,
        "        if self.level != max(map(len, self.words), default=0):\n",
        "        if False:\n",
        _robustness_tests(
            "test_a_forged_level_is_rejected_before_any_ball_or_cone",
            "test_generated_cone_bounds_its_generators",
        ),
    ),
    Mutant(
        "cone-check-closes-past-its-budget",
        WITNESSES,
        "        if budget < 0:\n            raise BudgetExceeded\n    return taken\n",
        "    return taken\n",
        _robustness_tests("test_closure_stops_at_its_budget"),
    ),
    Mutant(
        "star-rule-accepts-the-identity-as-pivot",
        CALCULUS,
        "        if pivot.is_identity:\n"
        "            return \"side condition failed: discharged sequent is group valid\"\n",
        "",
        _calculus_tests("test_star_side_condition_enforced"),
    ),
    Mutant(
        "rule-check-skips-the-conclusion-context",
        CALCULUS,
        "    if node.conclusion.words != context | active_c:\n",
        "    if False:\n",
        _calculus_tests("test_premise_components_outside_the_conclusion_are_rejected")
        + ("tests/test_acceptance.py::test_checker_verdicts_on_golden_mutants_are_pinned",),
    ),
    Mutant(
        "tree-table-accepts-a-node-no-node-uses",
        CERTIO,
        "    if unused:\n        raise CertificateFormatError",
        "    if False:\n        raise CertificateFormatError",
        _certio_tests(
            "test_proof_tables_must_be_trees",
            "test_refutation_tables_must_be_trees",
        ),
    ),
    Mutant(
        "witness-check-reads-unknown-fields",
        CERTIO,
        "    if unknown:\n        raise CertificateFormatError",
        "    if False:\n        raise CertificateFormatError",
        _robustness_tests("test_fields_no_check_reads_are_malformed"),
    ),
)


def _failed(stdout: str) -> set[str]:
    """The test ids that pytest's short summary (-rfE) reports failing."""
    return {
        line.split()[1]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def _copy(workdir: Path) -> None:
    """Copy ``src/`` and ``tests/`` into workdir."""
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part,
            workdir / part,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )


def _pytest(workdir: Path, tests) -> tuple[set[str], str | None]:
    """Run the tests on the copy in workdir: the ids that fail, and what
    went wrong when pytest could not run them."""
    paths = [str(workdir / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *tests],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    if result.returncode not in (0, 1):
        return set(), f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    return _failed(result.stdout), None


def run(mutant: Mutant, workdir: Path, failing: set[str]) -> str | None:
    """Apply one mutant to a fresh copy and run its tests; None when it is
    killed, else what went wrong.  ``failing`` holds the tests that fail
    unmutated."""
    unsound = [test for test in mutant.tests if test in failing]
    if unsound:
        return "names tests that fail unmutated: " + ", ".join(unsound)
    _copy(workdir)
    target = workdir / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"old snippet occurs {count} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new))
    failed, error = _pytest(workdir, mutant.tests)
    if error:
        return error
    survived = [test for test in mutant.tests if test not in failed]
    if survived:
        return "survives " + ", ".join(survived)
    return None


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as scratch:
        baseline = Path(scratch) / "unmutated"
        _copy(baseline)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        failing, error = _pytest(baseline, named)
        if error:
            print(f"unmutated copy: {error}", flush=True)
            return 1
        for i, mutant in enumerate(MUTANTS):
            problem = run(mutant, Path(scratch) / str(i), failing)
            problems += problem is not None
            print(f"{mutant.name}: {problem or 'killed'}", flush=True)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
