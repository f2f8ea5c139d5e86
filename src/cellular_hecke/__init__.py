"""
Exact-arithmetic cellular structures for degenerate cyclotomic Hecke
algebras: the normal-form algebra itself, four families of cellular bases
with cell modules and Gram forms, the crystal classifying the nonzero
simple labels, and the closed-form label correspondences between the
families, each certified by exact intertwiners.
"""

# Every other name is imported from the module that defines it. This one
# stays at the root because the set-up child of ``bench/run.py`` runs
# ``from cellular_hecke import AlgebraContext``.
from .algebra import AlgebraContext

__version__ = "0.1.0"
