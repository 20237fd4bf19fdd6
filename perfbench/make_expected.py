"""Produce the committed expected answers under ``data/``.

Run once from the repository root, not by the benchmark:

    python3 perfbench/make_expected.py

Every query is posed through the same client the benchmark uses, so each
certificate must pass its independent check.  The verdicts are then
cross-validated: ``cs``, ``hm`` and ``extend_right_order`` must agree on
every word set, and the verdicts of the three varieties must respect
their inclusions (abelian l-groups are representable, representable
l-groups are l-groups).  ``hard-search.tsv``, ``failing.tsv`` and
``slow.tsv`` are rewritten in place: their procedure and words columns
are the input, the verdict and seconds columns are filled in.  Only the
timed workloads run under the per-query limit.
"""

from __future__ import annotations

import sys
import tempfile
import time

import run
import workloads
from workloads import DATA, UNSETTLED, Query, read_table

class Validator:
    def __init__(self, client):
        from ordcalc import freegroup, rightorder

        self.client = client
        self.freegroup = freegroup
        self.rightorder = rightorder
        self.truth: dict[str, dict[str, str]] = {}

    def pose(self, procedure: str, text: str):
        """Verdict (UNSETTLED when over the limit), decide seconds, error."""
        outcome = self.client.run(Query(procedure, text, 2, None))
        verdict = UNSETTLED if outcome.over_limit else outcome.verdict
        return verdict, outcome.decide_s, outcome.error

    def varieties(self, text: str) -> dict[str, str]:
        """Cross-validated l-group and abelian verdicts of one word set."""
        if text in self.truth:
            return self.truth[text]
        words = [self.freegroup.word_from_text(w, 2) for w in text.split("|")]
        extends = isinstance(
            self.rightorder.extend_right_order(words, 2),
            self.rightorder.TruncatedRightOrder,
        )
        lgroup = "INVALID" if extends else "VALID"
        # A procedure that fails or exceeds the limit settles nothing; the
        # other one and the order extension still do.
        for procedure in ("cs", "hm"):
            verdict, _, error = self.pose(procedure, text)
            if error is None and verdict not in (lgroup, UNSETTLED):
                raise SystemExit(f"{procedure} and extend_right_order disagree: {text!r}")
        abelian, _, error = self.pose("abelian", text)
        if error is not None or abelian == UNSETTLED:
            raise SystemExit(f"abelian {text!r}: {error or 'over the limit'}")
        if lgroup == "VALID" and abelian != "VALID":
            raise SystemExit(f"valid in l-groups but not abelian: {text!r}")
        self.truth[text] = {"cs": lgroup, "hm": lgroup, "abelian": abelian}
        return self.truth[text]

    def verdict(self, procedure: str, text: str):
        """Expected verdict, decide seconds, and the error of a failing run."""
        truth = self.varieties(text)
        verdict, seconds, error = self.pose(procedure, text)
        if error is not None:
            if procedure not in truth:
                raise SystemExit(f"{procedure} {text!r}: {error}")
            return truth[procedure], seconds, error
        if verdict == UNSETTLED:
            return verdict, seconds, None
        if procedure in truth and verdict != truth[procedure]:
            raise SystemExit(f"{procedure} disagrees with cross-validation: {text!r}")
        if procedure.startswith("rg"):
            if verdict == "VALID" and truth["abelian"] != "VALID":
                raise SystemExit(f"representable-valid, abelian-invalid: {text!r}")
            if verdict == "INVALID" and truth["cs"] != "INVALID":
                raise SystemExit(f"representable-invalid, l-group-valid: {text!r}")
            if truth["abelian"] == "INVALID" and verdict != "INVALID":
                raise SystemExit(f"abelian countermodel missed by rg: {text!r}")
        return verdict, seconds, None


def query_mix(validator: Validator) -> None:
    lines = ["# procedure\texpected\twords"]
    for text in workloads.corpus_sets():
        for procedure in ("abelian", "cs", "hm", "rg"):
            verdict, _, error = validator.verdict(procedure, text)
            if error is not None:
                raise SystemExit(f"{procedure} {text!r}: {error}")
            lines.append(f"{procedure}\t{verdict}\t{text}")
    (DATA / "query-mix.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def table(validator: Validator, name: str) -> None:
    """Refill the verdict and seconds columns of data/<name>.tsv."""
    path = DATA / f"{name}.tsv"
    header = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.startswith("#")
    ]
    lines = list(header)
    for procedure, _verdict, _seconds, text in read_table(path):
        verdict, seconds, error = validator.verdict(procedure, text)
        if error is not None:
            shown = "fails"
            print(f"{procedure} {text!r} fails: {error}", flush=True)
        elif verdict == UNSETTLED:
            shown = f">{validator.client.limit_s:g}"
        else:
            shown = f"{seconds:.2f}"
        lines.append(f"{procedure}\t{verdict}\t{shown}\t{text}")
        print(lines[-1], flush=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    names = argv or ["query-mix", "hard-search", "failing", "slow"]
    run.import_program()
    from client import Client

    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as workdir:
        for name in names:
            timed = name in workloads.WORKLOADS
            limit = run.QUERY_LIMIT_S if timed else run.SLOW_LIMIT_S
            validator = Validator(Client(workdir, limit, digest=False))
            start = time.perf_counter()
            if name == "query-mix":
                query_mix(validator)
            else:
                table(validator, name)
            print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
