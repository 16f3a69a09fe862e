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

generator steps.  Squaring e_lambda is that action on e_lambda, and
building it is the column half of that action, on the row factor (below).
Each is a chain of the packed kernel in ``hecke``: every step and block
sum runs on packed tables, whose digit-bound guard keeps them exact.

e_lambda = R C, with R the row factor and C the column factor, lies in the
left ideal R H_n, and so do its square e R C and its twist e ft.  So the
chains run on coset tables (see ``hecke``): R h stored by its coefficients
at the minimal coset representatives of the row blocks' Young subgroup
S_lambda, |S_lambda| = product of part! times fewer entries than R h
itself.  Building e_lambda runs the column chain on the coset table of
R = R 1, which has one entry, and expands the result h to R h in one
pass (``hecke._Packed.expanded``): s^length(u) c_v' at u v' is written
by rank arithmetic, with no step and no iota, and the kept table is tidy
from the build.  When every part is 1, S_lambda is trivial and the chain
runs on plain tables.  The build encodes just the unit.
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
carries the same two scalars.  That table is built by its own chain, the
mirror of e's: w_{d^-1}, the row blocks and w_{d^-1}^-1 on the coset
table of B = B 1, in sum of part(part-1)/2 + 2 length(d) steps, with
no iota and nothing of e's table (``_sign_table``).  The square is then
the column blocks and the same chain again, as many steps as on the row
side, and the twist is the same band product.  On a table of one entry,
as for (1^n), every candidate is proportional, so there the chain
yields the scalar and the closed-form checks of ``invariants`` are what
test it.  A failure on the sign side is rerun on the row side, so that a
witness is a permutation of e's own table, as on the row side; should
the row side hold, the sign side's failure stands.

``alpha_extract`` and ``central.twist_eigenvalue`` build only the table
of lam's side, and ``qyoung verify`` reads nothing else: the squaring
scalar, the twist eigenvalue and the classical limit (``invariants``)
all come from it.  The element ``alpha_extract`` returns is an ordinary
HeckeElement held as that table alone (``hecke._coset_element``).  Its
first read of ``coeffs`` or kernel use builds e_lambda as the public
``e_lambda`` does, on the row side and expanded, behind the size guard,
and keeps it; ``is_zero`` and the chains of its side never do.  Only
that element keeps f's table.  Any other element, e_lambda(lam) itself
among them, runs on the row side, on the coset table its build kept or a
restriction made on the first use after the membership check.  So no
element is restricted twice.  This module sees a packed table only
through its steps, sums and blocks.

``symmetrizer`` and ``antisymmetrizer`` are one enumeration of S_n, with
coefficient u^length(p) for u = s or -s^-1, that never touches the
kernel, so that the eigen-relations ``qyoung verify`` checks on them test
the kernel against something built outside it; its keys are permutations
by construction, so it skips the constructor's key checks.  Each length
is read off the Lehmer code, so the enumeration costs no more than the
factored action (a_8 in 0.033-0.045 s against 0.043 s on one 2-core host,
CPython 3.11.7), and it peaks lower (21 MB against 26 MB for the whole
process), since the factored steps hold dense packed tables.

Every builder refuses more than 8 cells or strands through the one size
guard, ``permutations.check_size``, and so does the expansion of the
element ``alpha_extract`` returns.  Build, square and twist on the side's
table take 0.19 s for all 22 diagrams of 8 cells together, the slowest,
(3,3,2), 0.03 s, on one 2-core host (CPython 3.11.7).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import permutations as perms
from .errors import NotQuasiIdempotent
from .hecke import (
    HeckeElement,
    ScalarReport,
    _Blocks,
    _coset_element,
    _coset_kept,
    _decode,
    _element,
    _extract,
    _packed,
    _Packed,
    _trusted,
)
from .laurent import LaurentPoly, ONE, S, qint
from .partitions import Partition
from .permutations import Perm

# The eigenvalue of every generator on the one-column element.
NEG_S_INV = LaurentPoly.monomial(-1, -1)


def _one_dimensional(n: int, u: LaurentPoly) -> HeckeElement:
    """
    The sum of u^length(p) * w_p over S_n, enumerated term by term without
    the kernel; the coefficients come from one list of powers of u.  The
    enumeration is made, and so guarded, before the powers.  Each length is
    the digit sum of the Lehmer code, and the codes, the tuples with j-th
    digit below n - j, run in lexicographic order alongside the
    permutations, since both orders are that of the rank.
    """
    everything = perms.all_permutations(n)
    powers = [ONE]
    for _ in range(n * (n - 1) // 2):
        powers.append(powers[-1] * u)
    codes = itertools.product(*map(range, range(n, 0, -1)))
    return _trusted(n, {p: powers[sum(code)] for p, code in zip(everything, codes)})


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


def _mul_conjugated_row(x: _Packed, lam: Partition) -> _Packed:
    """
    x times w_{d^-1} R w_{d^-1}^-1: forward along the reversed word of d,
    which is a reduced word of d^-1, the row blocks, then back with
    inverses.
    """
    word = _column_word(lam)
    for i in reversed(word):
        x = x.mul_generator(i)
    x = _mul_row(x, lam)
    for i in word:
        x = x.mul_generator(i, -1)
    return x


def _mul_sign(x: _Packed, lam: Partition) -> _Packed:
    """x times f = B w_{d^-1} R w_{d^-1}^-1: the column blocks, then the rest."""
    return _mul_conjugated_row(_mul_column_blocks(x, lam), lam)


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
    h = _row_table(lam)
    if h.blocks is None:
        return _element(h)
    return _element(h.expanded(), coset=h)


def _row_table(lam: Partition) -> _Packed:
    """
    e_lambda's table on the row side: its coset table in R H_n, the column
    chain on the coset table of R = R 1, whose only entry is the
    identity's, tidied; the plain column chain, which is e_lambda itself,
    when S_lambda is trivial.
    """
    unit = _packed(HeckeElement.unit(lam.n)).with_blocks(_row_blocks(lam))
    h = _mul_column(unit, lam)
    return h if h.blocks is None else h._tidied()


def _sign_table(lam: Partition) -> _Packed:
    """
    The coset table in B H_n of f = B w_{d^-1} R w_{d^-1}^-1, from its own
    chain: w_{d^-1} R w_{d^-1}^-1 on the coset table of B = B 1, whose only
    entry is the identity's, tidied.
    """
    unit = _packed(HeckeElement.unit(lam.n)).with_blocks(_sign_blocks(lam))
    return _mul_conjugated_row(unit, lam)._tidied()


def _expansion(lam: Partition, h: _Packed) -> _Packed:
    """e_lambda's packed table R h from its row-side table h, behind the size guard."""
    perms.check_size(f"the symmetrizer of lambda={lam}", lam.n)
    return h.expanded()


def _symmetrizer_on_side(lam: Partition) -> HeckeElement:
    """
    e_lambda held as the table its chains run on, on lam's side, and
    expanded only when it is read: built on the first read of ``coeffs`` or
    kernel use, behind the size guard, and kept.  On the row side the held
    table is e_lambda's coset table, which expands to it.  On the sign side
    it is f's, and e_lambda is built on the row side when it is read.  When
    S_lambda is trivial and lam is on the row side, that is for (1), the
    table is e_lambda itself.
    """
    perms.check_size(f"the symmetrizer of lambda={lam}", lam.n)
    if not _row_side(lam):
        return _coset_element(_sign_table(lam), lambda: _expansion(lam, _row_table(lam)))
    h = _row_table(lam)
    if h.blocks is None:
        return _element(h)
    return _coset_element(h, lambda: _expansion(lam, h))


def _coset_table(e: HeckeElement, lam: Partition) -> _Packed:
    """
    e's table on the row side, tidy and kept on e: its coset table in
    R H_n (e itself when S_lambda is trivial), for e_lambda the one its
    build ran on.  Any other restriction checks membership and refuses e
    outside the ideal.
    """
    blocks = _row_blocks(lam)
    if blocks is None:
        return _packed(e)
    return _coset_kept(e, blocks)


def _side_table(e: HeckeElement, lam: Partition) -> tuple[bool, _Packed]:
    """
    The side e's chains run on, True for the row side, and e's table there.
    The sign side's table is f's coset table, which only its own chain
    makes (``_sign_table``) and only the element of ``_symmetrizer_on_side``
    keeps.  Every other e runs on the row side (``_coset_table``).
    """
    if not _row_side(lam):
        f = e._ck  # the coset table e keeps, read as it is
        if f is not None and f.blocks == _sign_blocks(lam):
            return False, f
    return True, _coset_table(e, lam)


def _side_at_one(e: HeckeElement, lam: Partition) -> tuple[bool, dict[Perm, int]]:
    """
    The side of e's chains and e's table there at s = 1, zeros dropped: on
    a coset table, the c_v'(1) of the representatives v'.
    """
    row, h = _side_table(e, lam)
    at_one = {v: c.eval_at_one() for v, c in _decode(h).items()}
    return row, {v: c for v, c in at_one.items() if c}


def _report_on_side(
    e: HeckeElement,
    lam: Partition,
    chain: Callable[[_Packed, bool], _Packed],
    held: Callable[[ScalarReport], bool],
) -> ScalarReport:
    """
    The extraction of chain(h, row) against h, for e's table h on its side
    (``_side_table``).  A sign-side report that fails ``held`` gives way to
    the row side's when that fails too: its witness is a permutation of e's
    own table, where the sign side's is one of f's.  The row side builds e
    and restricts it, after the membership check, so only a failure pays
    for that.
    """
    row, h = _side_table(e, lam)
    report = _extract(h, chain(h, row))
    if not row and not held(report):
        h = _coset_table(e, lam)
        again = _extract(h, chain(h, True))
        if not held(again):
            return again
    return report


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
    Build the symmetrizer on its side's coset table, square it there, and
    extract the scalar by exact division.  The square is a real product,
    only factored, and the scalar is verified on every entry of that table;
    a failure raises NotQuasiIdempotent since it can only mean a kernel
    convention bug.  A table of one entry, as the sign side's for (1^n),
    holds every candidate proportional, so a chain fault there raises
    nothing and yields a wrong scalar: only the closed-form checks of
    ``invariants`` (``qyoung verify``) catch it.  The returned element is
    e_lambda, held as that table (``_symmetrizer_on_side``): it is
    expanded, once, only when it is read.
    """
    e = _symmetrizer_on_side(lam)
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
