"""Command line front end.

Verbs: decide, prove (decide with a required proof file), order-extend,
check, crosscheck.  check re-checks a certificate file of any kind (proof
or witness) and exits 0 when it is accepted, 1 when it is rejected;
check-proof is another name for it.  Exit codes: 0 VALID/YES, 1 INVALID/NO,
2 UNKNOWN, 3 usage or input errors, 4 internal errors.

Each verb imports the engine it runs, so a check process loads only this
module, verdicts and the trusted base: certio and what it imports.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Sequence

from . import calculus, certio, freegroup
from .calculus import CalculusId, Hypersequent, Sequent
from .freegroup import ReducedWord
from .verdicts import INVALID, VALID, Verdict, combine, exit_code_for
from .witnesses import BoundsReport, SignAssignment, TruncatedRightOrder

EXIT_USAGE = 3
EXIT_INTERNAL = 4

_CALCULUS_FOR_VARIETY = {
    "abelian": CalculusId.GA,
    "lgroup": CalculusId.GLGSTAR,
    "representable": CalculusId.GRGSTAR,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse away from exit code 2
        raise UsageError(message)


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value

    return integer


def _parse_goals(text: str, arity: int | None):
    """Return (conjunct goals, inferred arity).

    A conjunct goal is a Hypersequent; input is either ``e <=`` followed by
    a term, or sequents separated by ``|``.
    """
    stripped = text.strip()
    if not stripped:
        raise UsageError("empty hypersequent")
    if stripped.replace(" ", "").startswith("e<="):
        from . import term

        body = stripped.split("<=", 1)[1]
        parsed = term.parse_term(body, arity)
        normal = term.normalize(parsed)
        inferred = max(normal.max_generator(), 1)
        goals = [calculus.hypersequent_of_words(j) for j in normal.conjuncts]
        return goals, (arity or inferred)
    if not all(part.strip() for part in stripped.split("|")):
        raise UsageError("blank sequent; write e for the identity")
    raws = [freegroup.scan_literals(part, arity) for part in stripped.split("|")]
    inferred = max((abs(c) for raw in raws for c in raw), default=1)
    goal = Hypersequent.of(Sequent(raw) for raw in raws)
    return [goal], (arity or inferred)


def _parse_words(text: str, arity: int | None):
    """Words separated by ``,`` or ``|``; spaces may separate the letters of
    a word, as in the words a witness file lists."""
    parts = text.replace("|", ",").split(",")
    words = [freegroup.word_from_text(p, arity) for p in parts if p.strip()]
    if not words:
        raise UsageError("no words given")
    inferred = max((w.max_generator() for w in words), default=1) or 1
    return words, (arity or inferred)


def _conjugator_bound(args) -> int:
    from .rightorder import DEFAULT_CONJUGATOR_BOUND

    return DEFAULT_CONJUGATOR_BOUND if args.bound_L is None else args.bound_L


def _decide_conjunct(args, words: Sequence[ReducedWord], arity: int) -> Verdict:
    if args.variety == "abelian":
        from . import abelian

        return abelian.validity_abelian(words, arity)
    from . import rightorder

    if args.variety == "lgroup":
        if args.procedure == "hm":
            return rightorder.decide_lg_hm(words, arity)
        return rightorder.decide_lg_cs(words, arity)
    return rightorder.decide_rg(words, arity, _conjugator_bound(args))


def _witness_doc(words, arity: int, verdict: Verdict) -> dict:
    from .abelian import Separator

    certificate = verdict.certificate
    if isinstance(certificate, TruncatedRightOrder):
        return certio.truncated_order_doc(certificate)
    if isinstance(certificate, Separator):
        return certio.separator_doc(words, arity, certificate.functional)
    if isinstance(certificate, SignAssignment):
        return certio.sign_assignment_doc(words, arity, certificate)
    if isinstance(certificate, BoundsReport):
        return certio.bounds_doc(words, arity, certificate)
    raise UsageError("this verdict carries no witness to write")


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certio.dumps(doc))


def _cmd_decide(args) -> int:
    if args.procedure and args.variety != "lgroup":
        raise UsageError("--procedure applies to the lgroup variety only")
    if args.bound_L is not None and args.variety != "representable":
        raise UsageError("--bound-L applies to the representable variety only")
    goals, arity = _parse_goals(args.input, args.arity)
    verdicts = []
    for index, goal in enumerate(goals):
        words = sorted(goal.words)
        verdict = _decide_conjunct(args, words, arity)
        verdicts.append((goal, words, verdict))
        print(f"conjunct {index + 1}/{len(goals)}: {verdict.status}")
    overall = combine([v.status for _, _, v in verdicts])
    print(overall)

    if args.proof:
        if overall == VALID:
            doc = certio.proof_doc(
                _CALCULUS_FOR_VARIETY[args.variety],
                [(goal, v.certificate) for goal, _, v in verdicts],
            )
            _write(args.proof, doc)
            print(f"proof written: {args.proof}")
        else:
            print("no proof written: verdict is not VALID", file=sys.stderr)
    if args.witness:
        bad = next(((g, w, v) for g, w, v in verdicts if v.status != VALID), None)
        if bad is None:
            print("no witness written: verdict is VALID", file=sys.stderr)
        else:
            _write(args.witness, _witness_doc(bad[1], arity, bad[2]))
            print(f"witness written: {args.witness}")
    return exit_code_for(overall)


def _order_witness_doc(words, arity: int, outcome, flavor: str) -> dict:
    from .abelian import Separator

    if isinstance(outcome, TruncatedRightOrder):
        return certio.truncated_order_doc(outcome)
    if isinstance(outcome, Separator):
        functional = tuple(-c for c in outcome.functional)
        return certio.abelian_order_doc(words, arity, functional)
    if isinstance(outcome, BoundsReport):
        return certio.bounds_doc(words, arity, outcome)
    return certio.refutation_doc(words, arity, outcome, flavor)


def _cmd_order_extend(args) -> int:
    if args.bound_L is not None and args.kind != "total":
        raise UsageError("--bound-L applies to --kind total only")
    words, arity = _parse_words(args.words, args.arity)
    if any(w.is_identity for w in words):
        raise UsageError("the identity cannot be ordered strictly positive")
    words = freegroup.dedupe(words)
    from . import rightorder
    from .abelian import Separator

    if args.kind == "right":
        outcome = rightorder.extend_right_order(words, arity)
        noun, flavor = "a right order", "right_order"
    else:
        outcome = rightorder.extend_order(words, arity, _conjugator_bound(args))
        noun, flavor = "an order", "order"
    if isinstance(outcome, TruncatedRightOrder):
        code, answer = 0, f"YES: the set extends to {noun}"
    elif isinstance(outcome, Separator):
        code, answer = 0, f"YES: the set extends to {noun} (abelian-quotient witness)"
    elif isinstance(outcome, BoundsReport):
        code, answer = 2, "UNKNOWN: search bounds exhausted"
    else:
        code, answer = 1, f"NO: the set does not extend to {noun}"
    print(answer)
    if args.witness:
        _write(args.witness, _order_witness_doc(words, arity, outcome, flavor))
    return code


def _check_proof(doc: dict, override: str | None) -> int:
    declared, conjuncts = certio.load_proof(doc)
    effective = CalculusId(override) if override else declared
    for index, (goal, derivation) in enumerate(conjuncts):
        result = calculus.check(effective, derivation, goal)
        if not result:
            path = "/".join(map(str, result.path)) or "root"
            print(
                f"REJECTED conjunct {index + 1} at node {path}: {result.message}"
            )
            return 1
    print(f"accepted: {len(conjuncts)} conjunct(s) in {effective.value}")
    return 0


def _cmd_check(args) -> int:
    """Re-check one certificate file of any kind, trusting only certio and
    the modules it imports."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            doc = certio.loads(handle.read())
        if doc.get("kind") == "proof":
            return _check_proof(doc, args.calculus)
        if args.calculus:
            raise UsageError("--calculus applies to proof files only")
        issues = certio.verify_witness_doc(doc)
    except (OSError, UnicodeDecodeError, certio.CertificateFormatError) as exc:
        print(f"certificate file rejected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if issues:
        print("REJECTED: " + "; ".join(issues))
        return 1
    print(f"accepted: {doc['kind']}")
    return 0


def _soundness_sample(goal_words, rng: random.Random, rounds: int) -> bool:
    arity = max((w.max_generator() for w in goal_words), default=1) or 1
    for _ in range(rounds):
        assignment = [rng.randint(-10, 10) for _ in range(arity)]
        if max(freegroup.evaluate_word(w, assignment) for w in goal_words) < 0:
            return False
    return True


_COUNTERS = (
    "instances",
    "valid",
    "invalid",
    "disagreements",
    "checker_rejections",
    "witness_failures",
    "soundness_failures",
)


def _crosscheck_instance(counts: dict, instance_words, arity, samples, seed) -> None:
    """Run one corpus instance through cs, hm and right-order extension,
    adding its outcome to ``counts``."""
    from . import rightorder

    counts["instances"] += 1
    cs = rightorder.decide_lg_cs(instance_words, arity)
    hm = rightorder.decide_lg_hm(instance_words, arity)
    outcome = rightorder.extend_right_order(instance_words, arity)
    extends = isinstance(outcome, TruncatedRightOrder)
    if not (cs.status == hm.status and extends == (cs.status == INVALID)):
        counts["disagreements"] += 1
        return
    if cs.status == VALID:
        counts["valid"] += 1
        goal = calculus.hypersequent_of_words(instance_words)
        for verdict in (cs, hm):
            if not calculus.check(CalculusId.GLGSTAR, verdict.certificate, goal):
                counts["checker_rejections"] += 1
        letters = tuple(w.letters for w in instance_words)
        rng = random.Random(f"{seed}:{letters}")
        if not _soundness_sample(list(goal.words), rng, samples):
            counts["soundness_failures"] += 1
    else:
        counts["invalid"] += 1
        if not cs.certificate.verify():
            counts["witness_failures"] += 1


def _cmd_crosscheck(args) -> int:
    from itertools import combinations

    try:
        seed = int(os.environ.get("ORDCALC_SEED", "271828"))
    except ValueError:
        raise UsageError("ORDCALC_SEED must be an integer") from None
    pool = [
        w
        for w in freegroup.ball(args.arity, args.max_length)
        if not w.is_identity
    ]
    counts = dict.fromkeys(_COUNTERS, 0)
    for size in range(1, args.max_size + 1):
        for subset in combinations(pool, size):
            _crosscheck_instance(counts, subset, args.arity, args.samples, seed)
    width = max(len(k) for k in counts)
    for key, value in counts.items():
        print(f"{key.ljust(width)}  {value}")
    failed = (
        counts["disagreements"]
        or counts["checker_rejections"]
        or counts["witness_failures"]
        or counts["soundness_failures"]
    )
    return 1 if failed else 0


def _add_decide_arguments(sub: argparse.ArgumentParser, proof_required: bool) -> None:
    sub.add_argument("input", help="hypersequent 'G1 | G2 | ...' or 'e <= TERM'")
    sub.add_argument(
        "--variety",
        required=True,
        choices=("abelian", "lgroup", "representable"),
    )
    sub.add_argument("--arity", type=_at_least(1), default=None)
    sub.add_argument("--proof", required=proof_required, help="write the derivation file here")
    sub.add_argument("--witness", help="write the countermodel/witness file here")
    sub.add_argument("--procedure", choices=("cs", "hm"), default=None)
    sub.add_argument(
        "--bound-L",
        type=_at_least(0),
        help="conjugator length bound (representable only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="decide validity in a variety")
    _add_decide_arguments(decide, proof_required=False)
    decide.set_defaults(handler=_cmd_decide)

    prove = sub.add_parser("prove", help="decide and write the proof file")
    _add_decide_arguments(prove, proof_required=True)
    prove.set_defaults(handler=_cmd_decide)

    extend = sub.add_parser("order-extend", help="order extension queries")
    extend.add_argument("words", help="words separated by ',' or '|'")
    extend.add_argument("--kind", required=True, choices=("right", "total"))
    extend.add_argument("--arity", type=_at_least(1), default=None)
    extend.add_argument("--witness", help="write the witness file here")
    extend.add_argument(
        "--bound-L",
        type=_at_least(0),
        help="conjugator length bound (--kind total only)",
    )
    extend.set_defaults(handler=_cmd_order_extend)

    check = sub.add_parser(
        "check", aliases=["check-proof"], help="re-check a proof or witness file"
    )
    check.add_argument("file")
    check.add_argument(
        "--calculus",
        choices=[c.value for c in CalculusId],
        help="check a proof file under this calculus instead",
    )
    check.set_defaults(handler=_cmd_check)

    cross = sub.add_parser("crosscheck", help="run the procedure-agreement corpus")
    cross.add_argument("--arity", type=_at_least(1), default=2)
    cross.add_argument("--max-length", type=_at_least(0), default=2)
    cross.add_argument("--max-size", type=_at_least(0), default=3)
    cross.add_argument(
        "--samples",
        type=_at_least(0),
        default=50,
        help="soundness samples per valid instance",
    )
    cross.set_defaults(handler=_cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        freegroup.WordSyntaxError,  # term.TermSyntaxError included
        certio.CertificateFormatError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
