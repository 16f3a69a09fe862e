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

The diagram elements are never multiplied out through the general product.
Every permutation of k strands is p' d with p' fixing the last strand and d
a minimal coset representative, lengths adding (Dipper-James 1986, Gyoja
1986), so right multiplication by a k-strand block takes k(k-1)/2 generator
steps.  Right multiplication by e_lambda is the row blocks, then w_d, the
column blocks and w_d^-1 for the column-reading permutation d:

    sum of part(part-1)/2 + sum of column(column-1)/2 + 2 length(d)

generator steps.  Building e_lambda is that action on 1 and squaring it is
that action on e_lambda.  Each is one chain of the packed kernel in
``hecke``: it starts from the element's packed table, every step and
block sum runs on packed tables, whose digit-bound guard keeps them exact,
and the result is an element holding only its packed table.  Building
e_lambda encodes just the unit; squaring starts from the table e_lambda
already holds, and ``extract_scalar`` compares the square with it without
decoding either.  This module sees the packed table only through its
steps and sums.  ``symmetrizer`` and ``antisymmetrizer`` are one
enumeration of S_n, with coefficient u^length(p) for u = s or -s^-1, that
never touches the kernel, so that the eigen-relations ``qyoung verify``
checks on them test the kernel against something built outside it.  The
factored action is the faster route (a_8 in 0.07 s against 0.24-0.35 s for
the enumeration on one 2-core host, CPython 3.11.7), but it peaks higher
(35 MB against 29 MB), since its steps hold dense packed tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import permutations as perms
from .errors import NotQuasiIdempotent, TooLarge
from .hecke import HeckeElement, _element, _packed, _Packed, extract_scalar
from .laurent import LaurentPoly, ONE, S, qint
from .partitions import Partition

# H_7 has 5040 basis elements; past that, squaring stops being a desk job.
DEFAULT_MAX_CELLS = 7
DEFAULT_MAX_ROW = 8

# The eigenvalue of every generator on the one-column element.
NEG_S_INV = LaurentPoly.monomial(-1, -1)


def _one_dimensional(n: int, max_n: int, u: LaurentPoly, name: str) -> HeckeElement:
    """
    The sum of u^length(p) * w_p over S_n, enumerated term by term without
    the kernel; the coefficients come from one list of powers of u.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise TooLarge(f"{name} on {n} strands has {math.factorial(n)} terms")
    powers = [ONE]
    for _ in range(n * (n - 1) // 2):
        powers.append(powers[-1] * u)
    return HeckeElement(n, {p: powers[perms.length(p)] for p in perms.all_permutations(n)})


def symmetrizer(n: int, max_n: int = DEFAULT_MAX_ROW) -> HeckeElement:
    """
    The one-row element on n strands: sum of s^length(p) * w_p over S_n.
    Every generator, and more generally every basis braid w_p, acts on it by
    s to the crossing number.
    """
    return _one_dimensional(n, max_n, S, "symmetrizer")


def antisymmetrizer(n: int, max_n: int = DEFAULT_MAX_ROW) -> HeckeElement:
    """
    The one-column element: sum of (-s)^(-length(p)) * w_p, on which every
    generator acts by -s^-1.
    """
    return _one_dimensional(n, max_n, NEG_S_INV, "antisymmetrizer")


def _check_cells(lam: Partition, max_cells: int) -> None:
    if lam.n > max_cells:
        raise TooLarge(
            f"diagram with {lam.n} cells exceeds the guard of {max_cells}; "
            "pass a larger max_cells to override"
        )


def _block_action(x: _Packed, k: int, offset: int, u: LaurentPoly) -> _Packed:
    """
    x times the k-strand block sum of u^length(p) * w_p over S_k, placed on
    strands offset+1..offset+k, in k(k-1)/2 generator steps.  Each p in S_m
    is uniquely p' d with p' in S_{m-1} and d = s_{m-1} s_{m-2} .. s_{m-j} a
    minimal coset representative, lengths adding, so the block a_m on the
    first m strands of the block is

        a_m = a_{m-1} * sum_{j<m} u^j g_{offset+m-1} .. g_{offset+m-j}.

    x is a packed chain value (``hecke._packed``), and so is the result.
    Each sum is accumulated in one table, copied from a_{m-1} once, and
    u^j * step is added into it, u^j read from one list of powers; the
    steps themselves are never rescaled.
    """
    powers = [ONE]
    for _ in range(k - 1):
        powers.append(powers[-1] * u)
    for m in range(2, k + 1):
        step = x
        total = x.copy()
        for j in range(1, m):
            step = step.mul_generator(offset + m - j)
            total.add_times(step, powers[j])
        x = total
    return x


def _mul_row(x: _Packed, lam: Partition) -> _Packed:
    """x times the row factor: the row symmetrizers at the row-reading offsets."""
    for k, offset in zip(lam.parts, lam.row_reading_offsets()):
        x = _block_action(x, k, offset, S)
    return x


def _mul_column(x: _Packed, lam: Partition) -> _Packed:
    """
    x times the column factor w_d * (column antisymmetrizers) * w_d^-1, with
    d the column-reading permutation: forward along a reduced word of d,
    the blocks at the column-reading offsets, then back with inverses.
    """
    word = perms.reduced_word(lam.column_reading_permutation())
    for i in word:
        x = x.mul_generator(i)
    for k, offset in zip(lam.conjugate().parts, lam.column_reading_offsets()):
        x = _block_action(x, k, offset, NEG_S_INV)
    for i in reversed(word):
        x = x.mul_generator(i, -1)
    return x


def row_element(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """Product of row symmetrizers placed at the row-reading offsets."""
    _check_cells(lam, max_cells)
    return _element(_mul_row(_packed(HeckeElement.unit(lam.n)), lam))


def column_element(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """
    Product of column antisymmetrizers at the column-reading offsets,
    conjugated to row-reading strand order.
    """
    _check_cells(lam, max_cells)
    return _element(_mul_column(_packed(HeckeElement.unit(lam.n)), lam))


def e_lambda(lam: Partition, max_cells: int = DEFAULT_MAX_CELLS) -> HeckeElement:
    """The q-Young symmetrizer of the diagram, on exactly |diagram| strands."""
    _check_cells(lam, max_cells)
    return _element(_mul_column(_mul_row(_packed(HeckeElement.unit(lam.n)), lam), lam))


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
    Build the symmetrizer, square it as (e * row factor) * column factor,
    and extract the scalar by exact division.  The square is a real product,
    only factored, and the scalar is verified on every coefficient; a
    failure raises NotQuasiIdempotent since it can only mean a kernel
    convention bug.
    """
    e = e_lambda(lam, max_cells)
    if e.is_zero():
        raise NotQuasiIdempotent(f"symmetrizer of {lam} is zero")
    report = extract_scalar(e, _element(_mul_column(_mul_row(_packed(e), lam), lam)))
    if not report.proportional:
        raise NotQuasiIdempotent(
            f"square of the {lam} symmetrizer is not proportional to it "
            f"(first mismatch at {report.witness})"
        )
    if report.scalar.is_zero():
        raise NotQuasiIdempotent(f"squaring scalar of {lam} vanishes")
    return QuasiIdempotent(lam, e, report.scalar)
