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
asserts that: it multiplies out the action along the factored route, which
centrality makes equal to the twist times the symmetrizer, and extracts the
scalar, keeping the closed form as a cross-check for callers.
"""

from __future__ import annotations

from . import permutations as perms
from .errors import NotEigenvector
from .hecke import HeckeElement, _element, _packed, _Packed
from .laurent import LaurentPoly
from .partitions import Partition
from .symmetrizers import _report_on_side, e_lambda


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
    given diagram.  The twist is central, so ft * e = e * ft, and e * ft is
    multiplied out band by band before the scalar is extracted and checked
    as in ``twist_scalar``.
    """
    return twist_scalar(e_lambda(lam), lam)


def twist_scalar(e: HeckeElement, lam: Partition) -> LaurentPoly:
    """
    twist_eigenvalue on an already built symmetrizer e of the diagram lam:
    e * ft multiplied out band by band on the table of lam's side (see
    ``symmetrizers``), the scalar extracted and checked on every entry of
    that table.  On the row side the table is e's coset table in the left
    ideal R H_n of lam's row factor R.  On the sign side it is the coset
    table of f = iota(w_d^-1 e w_d) in B H_n, B the contiguous column
    factor, and f * ft = tau f for the same tau since ft is central and
    fixed by iota; e must then lie in H_n C, C = w_d B w_d^-1.  e_lambda(lam)
    lies in both; an element outside the one its side needs raises
    ValueError.  On a failure the witness is the row side's.  A table of
    one entry, as the sign side's for (1^n), holds every candidate
    proportional, so a chain fault there raises nothing and yields a wrong
    scalar: only the closed-form checks of ``invariants`` catch it.
    """
    report = _report_on_side(
        e, lam, lambda h, row: _mul_full_twist(h), lambda r: r.proportional
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
