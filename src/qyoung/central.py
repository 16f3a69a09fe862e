"""
Central elements of H_n and their eigenvalues on the symmetrizers.

The half twist is the basis braid of the order-reversing permutation; its
square, the full twist, is central.  The nested band elements
m_j = g_{j-1}..g_1 g_1..g_{j-1} (strand j swung around strands 1..j-1)
commute with one another and multiply out to the full twist, which gives a
cheap factored route to it: right multiplication by m_2 ... m_n takes
n(n-1) generator steps, where the general product with the full twist
walks the reduced words of up to n! basis braids.

The full twist acts on every symmetrizer by a monomial.  The exponent has
the closed form 2 * (sum of cell contents), but ``twist_eigenvalue`` never
asserts that: it multiplies out the action along the factored route and
extracts the scalar, keeping the closed form as a cross-check for callers.
It runs on the table of the side's start x = y w, y the side's symmetrizer
and w invertible, which holds |S_G| entries where y's fills the module;
centrality makes x ft = tau x equivalent to y ft = tau y (``_twist``).
"""

from __future__ import annotations

from . import permutations as perms
from .errors import NotEigenvector
from .hecke import HeckeElement, _element, _packed, _Packed
from .laurent import LaurentPoly
from .partitions import Partition
# e_lambda is bound here too, as ``central.e_lambda``, for callers that
# reach it through this module.
from .symmetrizers import _own_table, _report_on_side, _Side, e_lambda


def half_twist(n: int) -> HeckeElement:
    """The positive braid of the order-reversing permutation."""
    return HeckeElement.basis_element(n, perms.longest_element(n))


def full_twist(n: int) -> HeckeElement:
    """Square of the half twist; commutes with everything in H_n."""
    ht = half_twist(n)
    return ht * ht


def _band_word(j: int) -> tuple[int, ...]:
    """The generator word of the j-th nested band: j-1, ..., 1, 1, ..., j-1."""
    return tuple(range(j - 1, 0, -1)) + tuple(range(1, j))


def murphy(n: int, j: int) -> HeckeElement:
    """
    The j-th nested band element g_{j-1} ... g_1 g_1 ... g_{j-1} on n
    strands, for 2 <= j <= n.
    """
    if not 2 <= j <= n:
        raise IndexError(f"band index {j} out of range for {n} strands")
    out = _packed(HeckeElement.unit(n))
    for i in _band_word(j):
        out = out.mul_generator(i)
    return _element(out)


def _mul_full_twist(x: _Packed) -> _Packed:
    """
    x times the full twist as the band product m_2 ... m_n: n(n-1) generator
    steps on a packed chain value.
    """
    for j in range(2, x.n + 1):
        for i in _band_word(j):
            x = x.mul_generator(i)
    return x


def twist_eigenvalue(lam: Partition) -> LaurentPoly:
    """
    The scalar by which the full twist multiplies the symmetrizer of the
    given diagram, read off the table of its side's start
    (``symmetrizers._own_table``) by ``_twist``: the symmetrizer is never
    built, and it takes about half a millisecond at 7 cells.  For an
    element e already in hand, on the public API, the scalar is
    ``extract_scalar(e, full_twist(n) * e)``: the full twist's words
    fold onto e's coset representatives before any step over e's table,
    unless the side rule finds e's own words the cheaper walk (see
    ``hecke``).  On one 2-core host that product took 0.02-0.4 s for every
    6-cell diagram, at most 1.3 s for ten of the fifteen 7-cell diagrams
    and 4.9 s for (2,2,2,1).  On (3,2,1,1), (3,1^4), (2,2,1^3) and
    (2,1^5) it takes 10-23 s, and ``e * full_twist(n)`` is the faster
    order there, at 2.4-14 s.
    """
    return _twist(lam, *_own_table(lam))


def _twist(lam: Partition, side: _Side, x: _Packed) -> LaurentPoly:
    """
    The twist eigenvalue from the table x of lam's start on the side, x =
    y w for the side's symmetrizer y (e_lambda or f) and w = w_d or
    w_{d^-1}: x * ft multiplied out band by band, the scalar extracted and
    checked on every entry of x, or NotEigenvector.  Since ft is central,
    x ft = y ft w, so x ft = tau x exactly when y ft = tau y, and f ft =
    tau f gives e_lambda's tau since ft is fixed by iota.  That rests on
    the centrality of ft, which ``qyoung verify N`` checks for every
    generator on every strand count through N (``invariants.strand_checks``)
    before any diagram runs.  A failure's witness is that of
    ``symmetrizers._report_on_side``, a permutation of x's table.
    """
    report = _report_on_side(
        lam, side, x, lambda x, side: _mul_full_twist(x), lambda r: r.proportional
    )
    if not report.proportional:
        raise NotEigenvector(
            f"full twist does not act on the {lam} symmetrizer by a scalar "
            f"(first mismatch at {report.witness})"
        )
    return report.scalar


def twist_exponent(lam: Partition) -> int:
    """
    Closed-form candidate for the twist eigenvalue's exponent of s: twice
    the sum of the cell contents.  Compare with twist_eigenvalue; do not
    substitute for it.
    """
    return 2 * sum(lam.contents())
