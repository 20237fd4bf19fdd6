"""One closed-loop client: pose a query, then check its certificate.

Both steps go through the program's public entry points in this process:
``ordcalc.cli.main`` for ``decide`` and ``check-proof``, and
``ordcalc.certio.verify_witness_doc`` for witness files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import signal
import time
from dataclasses import dataclass

from pace import OverBudget
from workloads import PROCEDURE_ARGS, Query

_VERDICT_OF_EXIT = {0: "VALID", 1: "INVALID", 2: "UNKNOWN"}

# Witness kinds each procedure writes for a verdict other than VALID.
_WITNESS_KINDS = {
    ("abelian", "INVALID"): "separator",
    ("cs", "INVALID"): "truncated_right_order",
    ("hm", "INVALID"): "sign_assignment",
    ("rg", "INVALID"): "separator",
    ("rg", "UNKNOWN"): "bounds_exhausted",
    ("rg2", "INVALID"): "separator",
    ("rg2", "UNKNOWN"): "bounds_exhausted",
}


class OverLimit(BaseException):
    """Raised by the per-query alarm.  A BaseException, so that the CLI's
    catch-all for internal errors does not swallow it."""


def _alarm(signum, frame):
    raise OverLimit


@dataclass
class Outcome:
    verdict: str | None = None
    start: float = 0.0  # client clock when decide began; the check follows it
    decide_s: float = 0.0
    check_s: float | None = None
    cert_bytes: int | None = None
    cert_digest: str | None = None
    over_limit: bool = False
    error: str | None = None

    @property
    def completed(self) -> bool:
        return not self.over_limit and self.error is None

    @property
    def decided(self) -> bool:
        return self.completed and self.verdict in ("VALID", "INVALID")


class Client:
    """Poses queries to the imported ``ordcalc`` package, one at a time."""

    def __init__(self, workdir: str, limit_s: float, digest: bool,
                 pacer=None, budget_s: float | None = None):
        """Each query stops after ``limit_s`` wall-clock seconds and, when a
        ``pacer`` is given, after ``budget_s`` seconds at its reference
        speed (see ``pace``); the pacer's clock then times the steps."""
        from ordcalc import biorder, certio, cli

        self.cli = cli
        self.pacer = pacer
        self.budget_s = budget_s
        self.clock = time.perf_counter if pacer is None else pacer.now
        self.certio = certio
        # kept before any tracer wraps it: the cache lives on this object
        self.magnus_sign = biorder.magnus_sign
        self.cache_hits = 0
        self.cache_misses = 0
        self.path = os.path.join(workdir, "certificate.json")
        self.limit_s = limit_s
        self.digest = digest
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, query: Query) -> Outcome:
        outcome = Outcome()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
        # A fresh ordcalc process starts with an empty sign cache.
        self.magnus_sign.cache_clear()
        argv = [
            "decide",
            *PROCEDURE_ARGS[query.procedure],
            "--arity",
            str(query.arity),
            "--proof",
            self.path,
            "--witness",
            self.path,
            query.text,
        ]
        sink = io.StringIO()
        start = outcome.start = self.clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            if self.pacer is not None:
                self.pacer.watch(self.budget_s)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self._decide(argv)
                    decided = self.clock()
                    outcome.decide_s = decided - start
                    outcome.verdict = _VERDICT_OF_EXIT.get(code)
                    if outcome.verdict is None:
                        outcome.error = f"decide exited {code}: {sink.getvalue()[-300:]}"
                    else:
                        outcome.error = self._check(query, outcome.verdict)
                        outcome.check_s = self.clock() - decided
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if self.pacer is not None:
                    self.pacer.watch(None)
        except (OverLimit, OverBudget):
            outcome.over_limit = True
            outcome.decide_s = self.clock() - start
            outcome.check_s = None
        info = self.magnus_sign.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        if outcome.completed:
            outcome.cert_bytes = os.path.getsize(self.path)
            if self.digest:
                with open(self.path, "rb") as handle:
                    outcome.cert_digest = hashlib.sha256(handle.read()).hexdigest()
            if query.expected is not None and outcome.verdict != query.expected:
                outcome.error = f"verdict {outcome.verdict}, expected {query.expected}"
        return outcome

    def _decide(self, argv: list[str]) -> int:
        """The decide step; a method of its own so a tracer can wrap it."""
        return self.cli.main(argv)

    def _check(self, query: Query, verdict: str) -> str | None:
        """The independent check of the file ``decide`` just wrote; None
        when it accepts."""
        if not os.path.exists(self.path):
            return f"{verdict} verdict wrote no certificate"
        try:
            if verdict == "VALID":
                code = self.cli.main(["check-proof", self.path])
                return None if code == 0 else f"check-proof exited {code}"
            with open(self.path, encoding="utf-8") as handle:
                doc = self.certio.loads(handle.read())
            kind = _WITNESS_KINDS.get((query.procedure, verdict))
            if doc.get("kind") != kind:
                return f"{verdict} witness of kind {doc.get('kind')!r}"
            issues = self.certio.verify_witness_doc(doc)
        except Exception as exc:  # a checker crash rejects the certificate
            return f"check raised {exc!r}"
        return "witness rejected: " + "; ".join(issues) if issues else None
