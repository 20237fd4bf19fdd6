"""Validity in varieties of lattice-ordered groups, with checkable certificates.

Decision entry points return a Verdict whose certificate is either a
hypersequent derivation (checkable with calculus.check), an order or
countermodel witness that re-verifies on its own, or the bounds a
bounded search exhausted.
"""

from .abelian import Combination, Separator, decide_abelian, validity_abelian
from .calculus import (
    CalculusId,
    Derivation,
    Hypersequent,
    Sequent,
    check,
    derive_ga,
    derive_glgstar,
    derive_grgstar,
    group_valid,
)
from .freegroup import ReducedWord, abelianize, ball, conjugate, inv, mul, reduce
from .membership import contains_identity
from .rightorder import (
    cis,
    close_truncated,
    decide_lg_cs,
    decide_lg_hm,
    decide_rg,
    extend_right_order,
    initial_subterms,
    rg_refute_bounded,
)
from .term import NormalForm, format_term, normalize, parse_term, push_inverses
from .verdicts import INVALID, UNKNOWN, VALID, Verdict
from .witnesses import (
    BoundsReport,
    ConjugateProduct,
    Factorization,
    RefutationBranch,
    RefutationLeaf,
    SignAssignment,
    TruncatedRightOrder,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
