"""
The q-deformed Young symmetrizers.

``symmetrizer(n)`` and ``antisymmetrizer(n)`` are the one-row and one-column
elements: the weighted sums of all basis braids on which every generator
acts by the scalar s (respectively -s^-1).  For a general diagram, row
symmetrizers are placed along the rows, column antisymmetrizers along the
columns, and the column product is conjugated back to row-reading strand
order; the product of the two squares to a nonzero scalar multiple of
itself.  That scalar has the closed form

    alpha(diagram) = product over cells of  s^content * [hook length],

with [k] the balanced quantum integer, and ``alpha_extract`` recovers the
same scalar from an honest squaring, so the formula never has to be taken
on faith.

The diagram elements are never multiplied out through the general product.
Every permutation of k strands is p' d with p' fixing the last strand and d
a minimal coset representative, lengths adding (Dipper-James 1986, Gyoja
1986), so right multiplication by a k-strand block takes k(k-1)/2 generator
steps.

A diagram has two sides, one formula.  With R the row factor, B the
contiguous column factor (the column antisymmetrizers at the
column-reading offsets), d the column-reading permutation and iota
reversing products and fixing R, B and the full twist ft,

    e_lambda = R w_d B w_d^-1,    f = iota(w_d^-1 e_lambda w_d) = B w_{d^-1} R w_{d^-1}^-1,

each F w G w^-1 for one side (``_Side``): (F, w, G) = (R, w_d, B) on the
row side and (B, w_{d^-1}, R) on the sign side, the block units s and
-s^-1 trading places.  Right multiplication by it is the F blocks, then
forward along the word of w, the G blocks and back with inverses.  It
lies in the left ideal F H_n, and so do its square and its twist, and
f f = alpha f and f ft = tau f with the alpha and tau of e_lambda.  So
the chains run on coset tables (see ``hecke``): F h stored by its
coefficients at the minimal coset representatives of F's Young subgroup,
the product of its blocks' k! times fewer entries than F h.

The side's start (``_start``), x = F w G = y w for y the side's
symmetrizer, is one expansion with no block sum and no step.  A row and a
column share at most one cell, so S_F and w S_G w^-1 meet only in 1, and w
is the shortest element of S_F w S_G; every element of that double coset
is then u w v for one u in S_F and one v in S_G, lengths adding
(Dipper-James 1986), and each w v is the minimal representative of its
S_F coset.  Hence, with u_G the unit of G's blocks,

    F w G = sum over v in S_G of u_G^length(v) F w_{w v}

is the plain table w G read as a coset table of F, exactly, with |S_G|
entries.  The build expands the one-entry coset table of G at w^-1 in one
pass to G w_{w^-1} = sum of u_G^length(v) w_{v w^-1} (``hecke._Packed.
expanded``: each entry written by rank arithmetic, with no step), mirrors
it by one iota to w G and reads that with F's blocks: the product of G's
blocks' k! entries and one iota on either side, tidy as built, and
nothing of the other side's table.  ``_table`` walks the length(w)
letters of w^-1 from x to y's own table, for ``e_lambda`` alone,
stepping a letter only where it meets a pair or leaves a z term and
relabelling the entries in between (``hecke._Packed.mul_word``):
``column_element`` is the row side's w_d B stepped back as a plain table,
and ``row_element`` is R's one-entry coset table.  ``e_lambda`` keeps its
coset table, expanded on first need: the row side's table h as the
steps left it, which the first chain on e_lambda tidies and the first
need of a plain table expands to R h in one pass.  When F's subgroup is
trivial, every part 1 on the row side or (n) on the sign side, the
tables are plain.  The coset table of an element of the ideal is
faithful, so the verdict and any witness are those of the full tables,
and nothing is decoded.

``alpha_extract``, ``central.twist_eigenvalue`` and ``qyoung verify``
build lam's side and its start once (``_own_table``) and read every
diagram check off x, never off y.  w is invertible, so

    y y = alpha y   exactly when   y y w = alpha x,

and the square's chain (``_mul_symmetrizer``) is x w^-1 F w G: the
length(w) inverse steps, which give y's table, the F blocks, forward along
the word of w and the G blocks, in

    sum of part(part-1)/2 + sum of column(column-1)/2 + 2 length(d)

generator steps on either side, compared with x's entries.  The full
twist is central, so x ft = tau x exactly when y ft = tau y, and the
twist steps x's |S_G| entries where y's table fills the module
(``central._twist``).  The classical limit reads x at s = 1
(``invariants``).  The square and the twist run on the side whose
subgroup is the larger, the row side on a tie (``_own_side``): (1^n)
squares on one entry instead of n!.  On a table of one entry, as x's for
(n) and (1^n), every candidate is proportional, so a fault in the
square's or the twist's chain there yields a wrong scalar and raises
nothing: only the closed-form checks of ``invariants`` catch it.  There
w = 1 and every generator acts on x by one block unit, so a fault that
keeps the number of steps, as a wrong letter in a band word does, leaves
even the scalar unchanged on them: larger diagrams catch it.  A
failure on the sign side is rerun on the row side's start, so that a
witness is a permutation of the table of x = e_lambda w_d, not of
e_lambda's own; should the row side hold, the sign side's failure stands.
The element ``alpha_extract`` returns is e_lambda, built by ``e_lambda``
on its first read.  An element keeps only its own tables: e_lambda of
(1^n) its sign-side table, which is f's since d = 1, e_lambda of any
other diagram the row side's, and a product or step of one of them the
table its chain ran on.  This module sees a packed table only through its
steps, sums, blocks, expansion and iota, and writes none: ``hecke``
alone does.

``symmetrizer`` and ``antisymmetrizer`` are the sum of u^length(p) w_p
over S_n, for u = s or -s^-1: the unit's one-entry coset table for the
single block of n strands, kept, as ``row_element`` keeps R's, and
expanded on first need.  Each entry of the expansion is written once by
its rank arithmetic, with none of the kernel's steps, sums or iota, so
that the eigen-relations ``qyoung verify`` checks on them test the step
against something built without it; and since every e_lambda's start is
built by the same expansion, a fault in it fails those relations as
well.  A product with either, on either side, steps the one entry and
keeps the result's one-entry table (``hecke``); the strand checks expand
the table and step the expansion itself.  ``coeffs`` reads the expansion
straight off the one entry on its first read, as for any element that
holds only its coset table.  a_8's expansion takes 5-6 ms, and the
process that makes it peaks at 20 MB (one 2-core host, CPython 3.11.7).

Every builder refuses more than 8 cells or strands through the one size
guard, ``permutations.check_size``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import permutations as perms
from .errors import NotQuasiIdempotent
from .hecke import (
    HeckeElement,
    ScalarReport,
    _Blocks,
    _decode,
    _element,
    _extract,
    _packed,
    _Packed,
)
from .laurent import LaurentPoly
from .partitions import Partition
from .permutations import Perm


def _one_dimensional(n: int, row: bool) -> HeckeElement:
    """
    The sum of u^length(p) * w_p over S_n, u = s for the row side (``row``)
    and -s^-1 for the sign side, guarded first: the unit's one-entry coset
    table for the single block of n strands, kept, and expanded on first
    need.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    perms.check_size(f"the enumeration of S_{n}", n)
    one = _packed(HeckeElement.unit(n)).with_blocks(_Blocks.of((n,), row))
    return _element(coset=one)


def symmetrizer(n: int) -> HeckeElement:
    """
    The one-row element on n strands: sum of s^length(p) * w_p over S_n.
    Every generator, and more generally every basis braid w_p, acts on it by
    s to the crossing number.
    """
    return _one_dimensional(n, True)


def antisymmetrizer(n: int) -> HeckeElement:
    """
    The one-column element: sum of (-s)^(-length(p)) * w_p, on which every
    generator acts by -s^-1.
    """
    return _one_dimensional(n, False)


def _block_action(x: _Packed, k: int, offset: int, u: LaurentPoly) -> _Packed:
    """
    x times the k-strand block sum of u^length(p) * w_p over S_k, placed on
    strands offset+1..offset+k, in k(k-1)/2 generator steps; only the
    square's chain (``_mul_symmetrizer``) runs it, since the builds expand
    instead.  Each p in S_m is uniquely p' d with p' in S_{m-1} and
    d = s_{m-1} s_{m-2} .. s_{m-j} a minimal coset representative, lengths
    adding, so the block a_m on the first m strands of the block is

        a_m = a_{m-1} * sum_{j<m} u^j g_{offset+m-1} .. g_{offset+m-j}.

    x is a packed chain value (``hecke._packed``), and so is the result.
    Each sum is accumulated in one table, copied from a_{m-1} once, and
    u^j * step is added into it, u^j read from one list of powers, each
    written as a monomial (u is one); the steps themselves are never
    rescaled.
    """
    powers = [LaurentPoly.monomial(j * u.val, u.coeffs[0] ** j) for j in range(k)]
    for m in range(2, k + 1):
        step = x
        total = x.copy()
        for j in range(1, m):
            step = step.mul_generator(offset + m - j)
            total.add_times(step, powers[j])
        x = total
    return x


class _Side(NamedTuple):
    """
    One side of a diagram, whose symmetrizer is first w_word second
    w_word^-1: on the row side (row=True) R w_d B w_d^-1 = e_lambda, on the
    sign side B w_{d^-1} R w_{d^-1}^-1 = f.  ``first`` and ``second`` are
    the blocks (``hecke._Blocks``: sizes, offsets, unit) of the two
    factors, each None when its Young subgroup is trivial; ``first`` are
    those of the side's coset tables, plain when it is None.  ``at`` is
    the permutation of w_word: d on the row side, d^-1 on the sign side.
    """

    row: bool
    first: Optional[_Blocks]
    word: tuple[int, ...]
    second: Optional[_Blocks]
    at: Perm


@functools.cache
def _side(lam: Partition, row: bool) -> _Side:
    """lam's row side (row=True) or sign side, computed once."""
    rows, columns = _Blocks.of(lam.parts, True), _Blocks.of(lam.conjugate().parts, False)
    d = lam.column_reading_permutation()
    word = perms.reduced_word(d)
    if row:
        return _Side(row, rows, word, columns, d)
    return _Side(row, columns, word[::-1], rows, perms.inverse(d))


@functools.cache
def _own_side(lam: Partition) -> _Side:
    """
    The side lam's square and twist run on: the row side unless the column
    blocks' Young subgroup is the larger, product of lam'_j! against
    product of lam_i!, so that the sign side's tables are the smaller.
    """
    rows, columns = (
        math.prod(map(math.factorial, parts)) for parts in (lam.parts, lam.conjugate().parts)
    )
    return _side(lam, columns <= rows)


def _mul_blocks(x: _Packed, blocks: Optional[_Blocks]) -> _Packed:
    """
    x times the block sums, each at its offset with the blocks' unit (x
    itself for None, every block one strand), for the square's chain
    (``_mul_symmetrizer``) alone.
    """
    if blocks is not None:
        for k, offset in zip(blocks.parts, blocks.offsets):
            x = _block_action(x, k, offset, blocks.unit)
    return x


def _mul_word_inverse(x: _Packed, side: _Side) -> _Packed:
    """x times w_word^-1: back along the side's word with inverses."""
    for i in reversed(side.word):
        x = x.mul_generator(i, -1)
    return x


def _mul_symmetrizer(x: _Packed, side: _Side) -> _Packed:
    """
    The square's chain: x w_word^-1 first w_word second, the inverse
    steps, the first blocks, forward along the side's word, then the
    second blocks.  On the side's start x = y w_word, y the side's
    symmetrizer, it is y y w_word (see the module docstring).
    """
    x = _mul_blocks(_mul_word_inverse(x, side), side.first)
    for i in side.word:
        x = x.mul_generator(i)
    return _mul_blocks(x, side.second)


def _start(side: _Side) -> _Packed:
    """
    The side's start x = first w_word second as its own coset table, tidy
    as built: w_word second, read with the first blocks, exact since each
    w_word v is a minimal coset representative of their subgroup (see the
    module docstring).  w_word second is second w_word^-1, held as its
    coset table of one entry at the inverse of ``at``, expanded in one
    pass to the sum of u^length(v) w_{v w_word^-1} over the second blocks'
    subgroup, u their unit, and mirrored by one iota, which fixes the
    block sums and reverses the product.  An empty word, for (n) and
    (1^n), needs no iota: w_word second is the block sum itself.  When the
    first blocks are trivial the table is plain and is x itself.
    """
    one = _packed(HeckeElement.basis_element(len(side.at), perms.inverse(side.at)))
    start = one.with_blocks(side.second).expanded()
    return (start.iota() if side.word else start).with_blocks(side.first)


def _table(side: _Side) -> _Packed:
    """
    The side's symmetrizer as its own coset table: the start (``_start``),
    then the walk of w_word^-1's length(w_word) letters, each stepped or
    relabelled (``hecke._Packed.mul_word``), for ``e_lambda`` alone.  It
    is left as the walk made it; the first chain on e_lambda tidies it.
    """
    return _start(side).mul_word(reversed(side.word), -1)


def row_element(lam: Partition) -> HeckeElement:
    """
    Product of row symmetrizers placed at the row-reading offsets: R's
    one-entry coset table, R 1, with no step, kept and expanded on first
    need, so that a product on either side steps that one entry.
    """
    perms.check_size(f"the row element of lambda={lam}", lam.n)
    one = _packed(HeckeElement.unit(lam.n)).with_blocks(_side(lam, True).first)
    return _element(coset=one)


def column_element(lam: Partition) -> HeckeElement:
    """
    Product of column antisymmetrizers at the column-reading offsets,
    conjugated to row-reading strand order: w_d B, the row side's start
    read as a plain table, then the length(d) inverse steps.
    """
    perms.check_size(f"the column element of lambda={lam}", lam.n)
    side = _side(lam, True)
    return _element(_mul_word_inverse(_start(side).with_blocks(None), side))


def e_lambda(lam: Partition) -> HeckeElement:
    """
    The q-Young symmetrizer of the diagram, on exactly |diagram| strands:
    it keeps the row side's coset table, expanded on first need.  For
    (1^n), R = 1 and d = 1, so e_lambda is B = b_n, and it is built and
    kept as b_n is, as B's one-entry sign-side table.
    """
    perms.check_size(f"the symmetrizer of lambda={lam}", lam.n)
    side = _side(lam, True)
    if side.first is None:
        side = _side(lam, False)  # (1^n): R = 1 and d = 1, so e_lambda = B = f
    return _element(coset=_table(side))


def _own_table(lam: Partition) -> tuple[_Side, _Packed]:
    """
    lam's own side (``_own_side``) and the table of its start there, x =
    e_lambda w_d on the row side and f w_{d^-1} on the sign side, behind
    the size guard: no step and no tidy (``_start``).
    """
    perms.check_size(f"the symmetrizer of lambda={lam}", lam.n)
    side = _own_side(lam)
    return side, _start(side)


def _at_one(h: _Packed) -> dict[Perm, int]:
    """
    A side's table at s = 1, zeros dropped: on a coset table, the c_v'(1)
    of the representatives v'.
    """
    at_one = {v: c.eval_at_one() for v, c in _decode(h.with_blocks(None)).items()}
    return {v: c for v, c in at_one.items() if c}


def _report_on_side(
    lam: Partition,
    side: _Side,
    x: _Packed,
    chain: Callable[[_Packed, _Side], _Packed],
    held: Callable[[ScalarReport], bool],
) -> ScalarReport:
    """
    The extraction of chain(x, side) against x, for the table x of lam's
    start on the side (``_own_table``).  A sign-side report that fails
    ``held`` gives way to the row side's when that fails too: its witness
    is a permutation of the row side's start e_lambda w_d, where the sign
    side's is one of f w_{d^-1}.  Only a failure builds the row side's
    start, and e_lambda is not built.
    """
    report = _extract(x, chain(x, side))
    if not side.row and not held(report):
        side = _side(lam, True)
        x = _start(side)
        again = _extract(x, chain(x, side))
        if not held(again):
            return again
    return report


def alpha_closed_form(lam: Partition) -> LaurentPoly:
    """
    The closed form of the squaring scalar: product over cells of
    s^content * [hook].  Cross-checked against alpha_extract by the test
    suite for every diagram it can afford to square.

    It is computed as one integer product (Kronecker substitution).  With
    q = s^2, [h] = s^(1-h) (q^h - 1)/(q - 1), so

        alpha = s^(sum of contents - sum of (hook - 1)) * P(s),
        P(s) = product over cells of 1 + s^2 + s^4 + ... + s^(2 (hook - 1)).

    P's coefficients are nonnegative and sum to P(1), the hook product, so
    each is at most that product and fits in K bits for K the bit length
    of the hook product, rounded up to a multiple of 64.  At s = 2^K, P is
    the integer product of the (2^(2 K hook) - 1)/(2^(2 K) - 1), each an
    exact division, and its base-2^K digits, read back from its bytes,
    are P's coefficients, zeros at the odd powers included.

    >>> from .laurent import qint
    >>> alpha_closed_form(Partition((2, 1))) == qint(3)
    True
    """
    hooks = lam.hook_lengths()
    k = -(-math.prod(hooks).bit_length() // 64) * 64
    packed, q = 1, 1 << (2 * k)
    for hook in hooks:
        packed *= ((1 << (2 * k * hook)) - 1) // (q - 1)
    size = k // 8
    raw = packed.to_bytes((2 * (sum(hooks) - len(hooks)) + 1) * size, "little")
    digits = [int.from_bytes(raw[j : j + size], "little") for j in range(0, len(raw), size)]
    return LaurentPoly(sum(lam.contents()) - sum(hooks) + len(hooks), digits)


@dataclass(frozen=True)
class QuasiIdempotent:
    """
    A diagram's symmetrizer together with its verified squaring scalar:
    ``element`` is e_lambda, built on its first read and kept.
    """

    lam: Partition
    alpha: LaurentPoly

    @functools.cached_property
    def element(self) -> HeckeElement:
        return e_lambda(self.lam)

    def to_machine(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "alpha": self.alpha.pairs(),
            "element": self.element.to_machine(),
        }


def _alpha(lam: Partition, side: _Side, x: _Packed) -> LaurentPoly:
    """
    The squaring scalar of lam's symmetrizer y, from the table x = y w of
    its start on the side (``_own_table``): the square is a real product,
    only factored, y y w against x (``_mul_symmetrizer``), and the scalar
    is verified on every entry of x; a failure raises NotQuasiIdempotent
    since it can only mean a kernel convention bug, with a witness that is
    a permutation of x's table (``_report_on_side``).  A table of one
    entry, as x's for (n) and (1^n), holds every candidate proportional,
    so a chain fault there raises nothing and yields a wrong scalar: only
    the closed-form checks of ``invariants`` (``qyoung verify``) catch it.
    """
    if _element(x.with_blocks(None)).is_zero():  # the c_v' as a plain table
        raise NotQuasiIdempotent(f"symmetrizer of {lam} is zero")
    report = _report_on_side(
        lam,
        side,
        x,
        _mul_symmetrizer,
        lambda r: r.proportional and not r.scalar.is_zero(),
    )
    if not report.proportional:
        raise NotQuasiIdempotent(
            f"square of the {lam} symmetrizer is not proportional to it "
            f"(first mismatch at {report.witness})"
        )
    if report.scalar.is_zero():
        raise NotQuasiIdempotent(f"squaring scalar of {lam} vanishes")
    return report.scalar


def alpha_extract(lam: Partition) -> QuasiIdempotent:
    """
    Build the table of the symmetrizer's start on its side, square the
    symmetrizer there and extract the scalar by exact division against the
    start (``_alpha``), a failure's witness a permutation of the start's
    table.  The returned element is e_lambda, built, once, only when it is
    read, and expanded only when a plain table of it is needed.
    """
    return QuasiIdempotent(lam, _alpha(lam, *_own_table(lam)))
