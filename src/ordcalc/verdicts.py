"""Uniform three-valued output of the decision entry points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

VALID = "VALID"
INVALID = "INVALID"
UNKNOWN = "UNKNOWN"

_EXIT_CODES = {VALID: 0, INVALID: 1, UNKNOWN: 2}


@dataclass(frozen=True)
class Verdict:
    """VALID carries a checkable derivation, INVALID a self-verifying witness,
    UNKNOWN the exhausted search bounds."""

    status: str
    certificate: Any = None

    def __post_init__(self) -> None:
        if self.status not in _EXIT_CODES:
            raise ValueError(f"unknown verdict status {self.status!r}")


def exit_code_for(status: str) -> int:
    return _EXIT_CODES[status]


def combine(statuses: list[str]) -> str:
    """Conjunct-wise aggregation: any INVALID wins, then any UNKNOWN."""
    if INVALID in statuses:
        return INVALID
    if UNKNOWN in statuses:
        return UNKNOWN
    return VALID
