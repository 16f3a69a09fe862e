"""
The q-deformed Young symmetrizers.

``symmetrizer(n)`` and ``antisymmetrizer(n)`` are the one-row and one-column
elements: the weighted sums of all basis braids on which every generator
acts by the scalar s (respectively -s^-1).  For a general diagram, row
symmetrizers are placed along the rows, column antisymmetrizers along the
columns, and the column product is conjugated back to row-reading strand
order; the product of the two sides squares to a nonzero scalar multiple of
itself.  That scalar has the closed form

    alpha(diagram) = product over cells of  s^content * [hook length],

with [k] the balanced quantum integer, and ``alpha_extract`` recovers the
same scalar from an honest squaring, so the formula never has to be taken
on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import permutations as perms
from .errors import NotQuasiIdempotent, TooLarge
from .hecke import HeckeElement, extract_scalar
from .laurent import LaurentPoly, ONE, qint
from .partitions import Partition

# H_7 has 5040 basis elements; past that, squaring stops being a desk job.
DEFAULT_MAX_CELLS = 7
DEFAULT_MAX_ROW = 8


def symmetrizer(n: int, max_n: int = DEFAULT_MAX_ROW) -> HeckeElement:
    """
    The one-row element on n strands: sum of s^length(p) * w_p over S_n.
    Every generator, and more generally every basis braid w_p, acts on it by
    s to the crossing number.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise TooLarge(f"symmetrizer on {n} strands has {math.factorial(n)} terms")
    return HeckeElement(
        n, {p: LaurentPoly.monomial(perms.length(p)) for p in perms.all_permutations(n)}
    )


def antisymmetrizer(n: int, max_n: int = DEFAULT_MAX_ROW) -> HeckeElement:
    """
    The one-column element: sum of (-s)^(-length(p)) * w_p, on which every
    generator acts by -s^-1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise TooLarge(f"antisymmetrizer on {n} strands has {math.factorial(n)} terms")
    return HeckeElement(
        n,
        {
            p: LaurentPoly.monomial(-perms.length(p), -1 if perms.length(p) % 2 else 1)
            for p in perms.all_permutations(n)
        },
    )


def _check_cells(lam: Partition, max_cells: int) -> None:
    if lam.n > max_cells:
        raise TooLarge(
            f"diagram with {lam.n} cells exceeds the guard of {max_cells}; "
            "pass a larger max_cells to override"
        )


def _block_product(
    build: Callable[[int], HeckeElement], sizes: Sequence[int], offsets: list[int], n: int
) -> HeckeElement:
    """build(k) placed at each offset, multiplied in order from the first block, not 1."""
    blocks = [build(k).shift_embed(o, n) for k, o in zip(sizes, offsets) if k > 1]
    return math.prod(blocks[1:], start=blocks[0]) if blocks else HeckeElement.unit(n)


def row_element(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """Product of row symmetrizers placed at the row-reading offsets."""
    _check_cells(lam, max_cells)
    return _block_product(symmetrizer, lam.parts, lam.row_reading_offsets(), lam.n)


def column_element(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """
    Product of column antisymmetrizers at the column-reading offsets,
    conjugated to row-reading strand order.
    """
    _check_cells(lam, max_cells)
    columns, offsets = lam.conjugate().parts, lam.column_reading_offsets()
    product = _block_product(antisymmetrizer, columns, offsets, lam.n)
    return product.conjugate_by_braid(lam.column_reading_permutation())


def e_lambda(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """The q-Young symmetrizer of the diagram, on exactly |diagram| strands."""
    _check_cells(lam, max_cells)
    row, column = row_element(lam, max_cells), column_element(lam, max_cells)
    return column if lam.parts[0] == 1 else row * column  # one column: row is 1


def alpha_closed_form(lam: Partition) -> LaurentPoly:
    """
    The closed form of the squaring scalar: product over cells of
    s^content * [hook].  Cross-checked against alpha_extract by the test
    suite for every diagram it can afford to square.

    >>> from .laurent import qint
    >>> alpha_closed_form(Partition((2, 1))) == qint(3)
    True
    """
    out = ONE
    for content, hook in zip(lam.contents(), lam.hook_lengths()):
        out = out * LaurentPoly.monomial(content) * qint(hook)
    return out


@dataclass(frozen=True)
class QuasiIdempotent:
    """A symmetrizer together with its verified squaring scalar."""

    lam: Partition
    element: HeckeElement
    alpha: LaurentPoly

    def to_machine(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "alpha": self.alpha.pairs(),
            "element": self.element.to_machine(),
        }


def alpha_extract(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> QuasiIdempotent:
    """
    Build the symmetrizer, square it, and extract the scalar by exact
    division.  The scalar is verified on every coefficient; a failure raises
    NotQuasiIdempotent since it can only mean a kernel convention bug.
    """
    e = e_lambda(lam, max_cells)
    if e.is_zero():
        raise NotQuasiIdempotent(f"symmetrizer of {lam} is zero")
    report = extract_scalar(e, e * e)
    if not report.proportional:
        raise NotQuasiIdempotent(
            f"square of the {lam} symmetrizer is not proportional to it "
            f"(first mismatch at {report.witness})"
        )
    if report.scalar.is_zero():
        raise NotQuasiIdempotent(f"squaring scalar of {lam} vanishes")
    return QuasiIdempotent(lam, e, report.scalar)


def normalized_idempotent(
    lam: Partition, max_cells: int = DEFAULT_MAX_CELLS
) -> tuple[HeckeElement, LaurentPoly]:
    """
    The true idempotent as a (numerator, denominator) pair: dividing the
    symmetrizer by its scalar is only possible over the fraction field, so
    the division is left symbolic.
    """
    qi = alpha_extract(lam, max_cells)
    return qi.element, qi.alpha
