"""Validity in varieties of lattice-ordered groups, with checkable certificates.

Importing the package loads none of its modules; import the one you need:

- ``ordcalc.abelian``, ``ordcalc.rightorder``: the decision procedures.
  Each returns a ``verdicts.Verdict`` whose certificate is a hypersequent
  derivation, an order or countermodel witness, or the bounds a bounded
  search exhausted.
- ``ordcalc.calculus``: the hypersequent calculi, their derivation
  extractors and the per-rule checker ``calculus.check``.
- ``ordcalc.certio``: certificate files, and ``verify_witness_doc``, which
  re-checks a witness file on its own.
- ``ordcalc.cli``: the ``ordcalc`` command.

The checker's trusted base is ``certio`` with what it imports:
``freegroup``, ``witnesses``, ``membership`` and ``calculus``; it never
loads the search.
"""

__version__ = "0.1.0"
