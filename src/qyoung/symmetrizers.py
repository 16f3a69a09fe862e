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
that action on e_lambda.  Each is a chain of the packed kernel in
``hecke``: every step and block sum runs on packed tables, whose
digit-bound guard keeps them exact.

e_lambda = R C, with R the row factor and C the column factor, lies in the
left ideal R H_n, and so do its square e R C and its twist e ft.  So the
chains run on coset tables (see ``hecke``): R h stored by its coefficients
at the minimal coset representatives of the row blocks' Young subgroup
S_lambda, |S_lambda| = product of part! times fewer entries than R h
itself.  Building e_lambda runs the column chain on the coset table of
R = R 1, which has one entry, and expands the result h to R h as
iota(iota(h) R), the row chain on iota(h), since iota reverses products
and fixes R; when every part is 1, S_lambda is trivial, no iota is done
and the chain runs on plain tables.  The build encodes just the unit.
The coset table of an element of the ideal is faithful, so the verdict
and any witness are those of the full tables, and nothing is decoded.

That is the row side.  A column-heavy diagram has a small S_lambda and a
large column subgroup S_lambda', of order product of lam'_j!, and its
square and twist run on the sign side instead whenever that order is the
larger (ties stay on the row side): (1^n) squares on one entry instead
of n!.  With B the contiguous column factor, C = w_d B w_d^-1, and iota
reversing products and fixing R, B and ft,

    f = iota(w_d^-1 e w_d) = B w_{d^-1} R w_{d^-1}^-1

lies in the left ideal B H_n, f f = alpha f and f ft = tau f, with the
alpha and tau of e, so f's coset table for the column blocks (unit -s^-1)
carries the same two scalars.  The public e_lambda is built as above, on
the row side, whatever the side.  The sign-side table is derived from
e's packed table by real steps, iota(e w_d) w_{d^-1}^-1 (2 length(d) steps
and one iota), restricted after a check that it lies in B H_n, and kept on
e in place of the row-side table it was built with.  The square is then
the column blocks, w_{d^-1}, the row blocks and w_{d^-1}^-1, as many steps
as on the row side, and the twist is the same band product.  On a table
of one entry, as for (1^n), every candidate is proportional, so there the
chain yields the scalar and the closed-form checks of ``invariants`` are
what test it.  A failure on the sign side is rerun on the row side, so
that a witness is a permutation of e's own table, as on the row side;
should the row side hold, the sign side's failure stands.

Either way e_lambda keeps the table its chains run on, so squaring and the
twist of one element restrict at most once; an element built elsewhere is
restricted on its first use, after the membership check.  This module
sees a packed table only through its steps, sums and blocks.

``symmetrizer`` and ``antisymmetrizer`` are one enumeration of S_n, with
coefficient u^length(p) for u = s or -s^-1, that never touches the
kernel, so that the eigen-relations ``qyoung verify`` checks on them test
the kernel against something built outside it; its keys are permutations
by construction, so it skips the constructor's key checks.  The factored
action is the faster route (a_8 in 0.07 s against 0.24-0.35 s for the
enumeration on one 2-core host, CPython 3.11.7), but it peaks higher
(35 MB against 29 MB), since its steps hold dense packed tables.

Every builder refuses more than 8 cells or strands through the one size
guard, ``permutations.check_size``; any 8-cell diagram takes seconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import permutations as perms
from .errors import NotQuasiIdempotent
from .hecke import (
    HeckeElement,
    ScalarReport,
    _Blocks,
    _coset_kept,
    _element,
    _extract,
    _packed,
    _Packed,
    _trusted,
)
from .laurent import LaurentPoly, ONE, S, qint
from .partitions import Partition

# The eigenvalue of every generator on the one-column element.
NEG_S_INV = LaurentPoly.monomial(-1, -1)


def _one_dimensional(n: int, u: LaurentPoly) -> HeckeElement:
    """
    The sum of u^length(p) * w_p over S_n, enumerated term by term without
    the kernel; the coefficients come from one list of powers of u.  The
    enumeration is made, and so guarded, before the powers.
    """
    everything = perms.all_permutations(n)
    powers = [ONE]
    for _ in range(n * (n - 1) // 2):
        powers.append(powers[-1] * u)
    return _trusted(n, {p: powers[perms.length(p)] for p in everything})


def symmetrizer(n: int) -> HeckeElement:
    """
    The one-row element on n strands: sum of s^length(p) * w_p over S_n.
    Every generator, and more generally every basis braid w_p, acts on it by
    s to the crossing number.
    """
    return _one_dimensional(n, S)


def antisymmetrizer(n: int) -> HeckeElement:
    """
    The one-column element: sum of (-s)^(-length(p)) * w_p, on which every
    generator acts by -s^-1.
    """
    return _one_dimensional(n, NEG_S_INV)


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


# The shape data of a diagram that every chain on it reads, computed once.


@functools.cache
def _column_word(lam: Partition) -> tuple[int, ...]:
    """A reduced word of the column-reading permutation d."""
    return perms.reduced_word(lam.column_reading_permutation())


@functools.cache
def _column_blocks(lam: Partition) -> tuple[tuple[int, int], ...]:
    """The size and the column-reading offset of each column block."""
    return tuple(zip(lam.conjugate().parts, lam.column_reading_offsets()))


@functools.cache
def _row_blocks(lam: Partition) -> Optional[_Blocks]:
    """The row blocks of lam's coset tables, None when S_lambda is trivial."""
    return _Blocks(lam.parts, True) if lam.parts[0] > 1 else None


@functools.cache
def _sign_blocks(lam: Partition) -> _Blocks:
    """The column blocks of lam's sign-side coset tables."""
    return _Blocks(lam.conjugate().parts, False)


@functools.cache
def _row_side(lam: Partition) -> bool:
    """
    Whether lam's square and twist run on the row side: unless the column
    blocks' Young subgroup is the larger, product of lam'_j! against
    product of lam_i!, so that the sign side's tables are the smaller.
    """
    rows, columns = (
        math.prod(map(math.factorial, parts)) for parts in (lam.parts, _sign_blocks(lam).parts)
    )
    return columns <= rows


def _mul_column_blocks(x: _Packed, lam: Partition) -> _Packed:
    """x times B, the column antisymmetrizers at the column-reading offsets."""
    for k, offset in _column_blocks(lam):
        x = _block_action(x, k, offset, NEG_S_INV)
    return x


def _mul_column(x: _Packed, lam: Partition) -> _Packed:
    """
    x times the column factor w_d * B * w_d^-1, with d the column-reading
    permutation: forward along a reduced word of d, the blocks at the
    column-reading offsets, then back with inverses.
    """
    word = _column_word(lam)
    for i in word:
        x = x.mul_generator(i)
    x = _mul_column_blocks(x, lam)
    for i in reversed(word):
        x = x.mul_generator(i, -1)
    return x


def _sign_element(x: _Packed, lam: Partition) -> _Packed:
    """
    iota(w_d^-1 x w_d) = iota(x w_d) w_{d^-1}^-1, in 2 length(d) steps and
    one iota; for x = e_lambda it is f = B w_{d^-1} R w_{d^-1}^-1.
    """
    word = _column_word(lam)
    for i in word:
        x = x.mul_generator(i)
    x = x.iota()
    for i in word:
        x = x.mul_generator(i, -1)
    return x


def _mul_sign(x: _Packed, lam: Partition) -> _Packed:
    """
    x times f = B w_{d^-1} R w_{d^-1}^-1: the column blocks, w_{d^-1} as the
    reversed word of d, the row blocks, then back with inverses.
    """
    word = _column_word(lam)
    x = _mul_column_blocks(x, lam)
    for i in reversed(word):
        x = x.mul_generator(i)
    x = _mul_row(x, lam)
    for i in word:
        x = x.mul_generator(i, -1)
    return x


def _mul_symmetrizer(x: _Packed, lam: Partition, row: bool) -> _Packed:
    """x times e_lambda on the row side, times f on the sign side."""
    return _mul_column(_mul_row(x, lam), lam) if row else _mul_sign(x, lam)


def row_element(lam: Partition) -> HeckeElement:
    """Product of row symmetrizers placed at the row-reading offsets."""
    perms.check_size(f"the row element of lambda={lam}", lam.n)
    return _element(_mul_row(_packed(HeckeElement.unit(lam.n)), lam))


def column_element(lam: Partition) -> HeckeElement:
    """
    Product of column antisymmetrizers at the column-reading offsets,
    conjugated to row-reading strand order.
    """
    perms.check_size(f"the column element of lambda={lam}", lam.n)
    return _element(_mul_column(_packed(HeckeElement.unit(lam.n)), lam))


def e_lambda(lam: Partition) -> HeckeElement:
    """The q-Young symmetrizer of the diagram, on exactly |diagram| strands."""
    perms.check_size(f"the symmetrizer of lambda={lam}", lam.n)
    h = _coset_symmetrizer(lam)
    if h.blocks is None:
        return _element(h)
    h = h._tidied()
    return _element(_expanded(h, lam), coset=h)


def _coset_symmetrizer(lam: Partition) -> _Packed:
    """
    The coset table of e_lambda = R C: the column chain on the coset table
    of R = R 1, whose only entry is the identity's.
    """
    unit = _packed(HeckeElement.unit(lam.n)).with_blocks(_row_blocks(lam))
    return _mul_column(unit, lam)


def _coset_table(e: HeckeElement, lam: Partition, row: Optional[bool] = None) -> _Packed:
    """
    The table e's chains run on, tidy and kept on e, on lam's side unless
    ``row`` says which.  On the row side it is e's coset table in R H_n (e
    itself when S_lambda is trivial), for e_lambda the one its build ran
    on.  On the sign side it is the coset table in B H_n of
    f = iota(w_d^-1 e w_d), derived from e's packed table.  Any other
    restriction checks membership and refuses e outside the ideal.
    """
    if row is None:
        row = _row_side(lam)
    if not row:
        return _coset_kept(e, _sign_blocks(lam), lambda pk: _sign_element(pk, lam))
    blocks = _row_blocks(lam)
    if blocks is None:
        return _packed(e)
    return _coset_kept(e, blocks)


def _report_on_side(
    e: HeckeElement,
    lam: Partition,
    chain: Callable[[_Packed, bool], _Packed],
    held: Callable[[ScalarReport], bool],
) -> ScalarReport:
    """
    The extraction of chain(h, row) against h, for e's table h on lam's
    side.  A sign-side report that fails ``held`` gives way to the row
    side's when that fails too: its witness is a permutation of e's own
    table, where the sign side's is one of f's.
    """
    row = _row_side(lam)
    h = _coset_table(e, lam, row)
    report = _extract(h, chain(h, row))
    if not row and not held(report):
        h = _coset_table(e, lam, True)
        again = _extract(h, chain(h, True))
        if not held(again):
            return again
    return report


def _expanded(h: _Packed, lam: Partition) -> _Packed:
    """
    R h as a plain table, from its coset table: iota(iota(h) R), since iota
    reverses products and fixes R, with the row chain starting from h
    tidied.  A plain table is its own expansion.
    """
    if h.blocks is None:
        return h
    if not h.tidy:
        h = h._tidied()
    return _mul_row(h.with_blocks(None).iota(), lam).iota()


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


def alpha_extract(lam: Partition) -> QuasiIdempotent:
    """
    Build the symmetrizer, square it on its side's coset table, and extract
    the scalar by exact division.  The square is a real product, only
    factored, and the scalar is verified on every entry of that table; a
    failure raises NotQuasiIdempotent since it can only mean a kernel
    convention bug.  A table of one entry, as the sign side's for (1^n),
    holds every candidate proportional, so a chain fault there raises
    nothing and yields a wrong scalar: only the closed-form checks of
    ``invariants`` (``qyoung verify``) catch it.
    """
    e = e_lambda(lam)
    if e.is_zero():
        raise NotQuasiIdempotent(f"symmetrizer of {lam} is zero")
    report = _report_on_side(
        e,
        lam,
        lambda h, row: _mul_symmetrizer(h, lam, row),
        lambda r: r.proportional and not r.scalar.is_zero(),
    )
    if not report.proportional:
        raise NotQuasiIdempotent(
            f"square of the {lam} symmetrizer is not proportional to it "
            f"(first mismatch at {report.witness})"
        )
    if report.scalar.is_zero():
        raise NotQuasiIdempotent(f"squaring scalar of {lam} vanishes")
    return QuasiIdempotent(lam, e, report.scalar)
