"""
Exact computation with q-deformed Young symmetrizers in the type-A Hecke
algebra, over integer Laurent polynomials in one variable s.

The public surface, bottom up:

- ``laurent``: the coefficient ring Z[s, s^-1] and quantum integers.
- ``permutations``: one-line-notation tuples, lengths, reduced words.
- ``hecke``: elements of H_n over the positive-braid basis, products,
  embeddings, conjugation, scalar extraction.
- ``partitions``: Young diagrams with hooks, contents, reading orders.
- ``symmetrizers``: the row/column elements, their diagram-shaped products,
  and the squaring scalar by extraction and by closed form.
- ``central``: half and full twists, nested band elements, and the twist
  eigenvalue on each symmetrizer.
"""

from .errors import NotDivisible, NotEigenvector, NotQuasiIdempotent, TooLarge
from .hecke import HeckeElement, ScalarReport, extract_scalar
from .laurent import LaurentPoly, qint
from .partitions import Partition, all_partitions
from .symmetrizers import (
    QuasiIdempotent,
    alpha_closed_form,
    alpha_extract,
    antisymmetrizer,
    column_element,
    e_lambda,
    row_element,
    symmetrizer,
)
from .central import full_twist, half_twist, murphy, twist_eigenvalue, twist_exponent

__all__ = [
    "HeckeElement",
    "LaurentPoly",
    "NotDivisible",
    "NotEigenvector",
    "NotQuasiIdempotent",
    "Partition",
    "QuasiIdempotent",
    "ScalarReport",
    "TooLarge",
    "all_partitions",
    "alpha_closed_form",
    "alpha_extract",
    "antisymmetrizer",
    "column_element",
    "e_lambda",
    "extract_scalar",
    "full_twist",
    "half_twist",
    "murphy",
    "qint",
    "row_element",
    "symmetrizer",
    "twist_eigenvalue",
    "twist_exponent",
]

__version__ = "0.1.0"
