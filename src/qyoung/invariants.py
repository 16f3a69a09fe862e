"""
The named invariants that ``qyoung verify`` and the acceptance tests check.

Each check is a ``(name, ok)`` pair: the name says what was compared and
on which strand count or diagram, and ``ok`` is the result of an exact
``==`` between two sides that were both multiplied out.  Nothing here
assumes a closed form; the closed forms are what the products are
compared against.

``strand_checks(n)`` covers H_n itself: the eigen-relations of the one-row
element a_n (every generator acts by s) and the one-column element b_n
(every generator acts by -s^-1), each on both sides, and the centrality of
the full twist against every generator.

``diagram_checks(lam, taus)`` covers one diagram: the squaring
scalar against its closed form and against the hook product at s = 1, the
full-twist eigenvalue against ``s^twist_exponent`` and against 1 at s = 1,
the conjugation symmetry tau(lam') = tau(lam)(s^-1) once both are known,
and, for at most 6 cells, the classical limit against the group-algebra
symmetrizer.

The classical limit needs no second product in the group algebra.  By von
Neumann's lemma (Fulton-Harris, *Representation Theory*, Lemma 4.25) the
classical Young symmetrizer of the row-reading tableau is the only x with
coefficient 1 at the identity, t*x = x for every row transposition t and
x*t = -x for every column transposition t.  The transpositions of adjacent
cells generate the row and column groups, so ``is_classical_symmetrizer``
tests only those, each as one ``==`` of tables.  The tests compare the
same limit with the group-algebra product of ``tests/oracles.py``.

The package is reached through module attributes (``symmetrizers.
alpha_extract``, ``central.twist_scalar``), not names bound at import, so
that whatever wraps those attributes sees every call made from here.
"""

from __future__ import annotations

from . import central, symmetrizers
from . import permutations as perms
from .hecke import HeckeElement
from .laurent import LaurentPoly, S
from .partitions import Partition
from .permutations import Perm

Check = tuple[str, bool]

# The largest diagram whose s = 1 specialization is compared with the
# group-algebra symmetrizer.
CLASSICAL_MAX_CELLS = 6


def strand_checks(n: int) -> list[Check]:
    """
    The eigen-relations of a_n and b_n and the centrality of the full
    twist, for every generator g_i of H_n.

    >>> checks = strand_checks(2)
    >>> for name, ok in checks:
    ...     print(ok, name)
    True eigen-relation for the row element, n=2, i=1
    True eigen-relation for the column element, n=2, i=1
    True full-twist centrality, n=2, i=1
    """
    out: list[Check] = []
    an = symmetrizers.symmetrizer(n)
    bn = symmetrizers.antisymmetrizer(n)
    an_s = an.scale(S)
    bn_neg_sinv = bn.scale(symmetrizers.NEG_S_INV)
    for i in range(1, n):
        g = HeckeElement.generator(n, i)
        out.append(
            (
                f"eigen-relation for the row element, n={n}, i={i}",
                g * an == an_s and an * g == an_s,
            )
        )
        out.append(
            (
                f"eigen-relation for the column element, n={n}, i={i}",
                g * bn == bn_neg_sinv and bn * g == bn_neg_sinv,
            )
        )
    ft = central.full_twist(n)
    for i in range(1, n):
        g = HeckeElement.generator(n, i)
        out.append((f"full-twist centrality, n={n}, i={i}", ft * g == g * ft))
    return out


def diagram_checks(lam: Partition, taus: dict[tuple[int, ...], LaurentPoly]) -> list[Check]:
    """
    The squaring-scalar, twist-eigenvalue, conjugation and classical-limit
    checks for one diagram, building its symmetrizer once.  The twist
    eigenvalue is recorded in ``taus`` under ``lam.parts``; the conjugation
    check runs when the conjugate diagram's eigenvalue is already there.
    """
    out: list[Check] = []
    qi = symmetrizers.alpha_extract(lam)
    out.append(
        (f"alpha closed form, lambda={lam}", qi.alpha == symmetrizers.alpha_closed_form(lam))
    )
    hooks = 1
    for h in lam.hook_lengths():
        hooks *= h
    out.append((f"alpha at s=1 vs hook product, lambda={lam}", qi.alpha.eval_at_one() == hooks))
    tau = central.twist_scalar(qi.element, lam)
    taus[lam.parts] = tau
    out.append(
        (
            f"twist eigenvalue closed form, lambda={lam}",
            tau == LaurentPoly.monomial(central.twist_exponent(lam)),
        )
    )
    out.append((f"twist eigenvalue at s=1, lambda={lam}", tau.eval_at_one() == 1))
    conj = lam.conjugate().parts
    if conj in taus:
        out.append(
            (
                f"twist conjugation symmetry, lambda={lam}",
                taus[conj] == tau.invert_variable(),
            )
        )
    if lam.n <= CLASSICAL_MAX_CELLS:
        out.append(
            (
                f"classical limit vs group-algebra symmetrizer, lambda={lam}",
                is_classical_symmetrizer(qi.element.specialize_at_one(), lam),
            )
        )
    return out


def is_classical_symmetrizer(x: dict[Perm, int], lam: Partition) -> bool:
    """
    Whether the integer table x is the classical Young symmetrizer of lam's
    row-reading tableau: row sum times signed column sum.

    >>> is_classical_symmetrizer({(1, 2): 1, (2, 1): 1}, Partition((2,)))
    True
    >>> is_classical_symmetrizer({(1, 2): 1, (2, 1): 1}, Partition((1, 1)))
    False
    """
    if x.get(perms.identity(lam.n)) != 1:
        return False
    label = {cell: k for k, cell in enumerate(lam.cells(), start=1)}
    for (i, j), a in label.items():
        b = label.get((i, j + 1))
        # t*x = x: the row transposition (a b) exchanges the values a and b.
        if b and {_swap_values(p, a, b): c for p, c in x.items()} != x:
            return False
        b = label.get((i + 1, j))
        # x*t = -x: the column transposition (a b) exchanges positions a and b.
        if b and {_swap_positions(p, a, b): -c for p, c in x.items()} != x:
            return False
    return True


def _swap_values(p: Perm, a: int, b: int) -> Perm:
    q = list(p)
    q[p.index(a)], q[p.index(b)] = b, a
    return tuple(q)


def _swap_positions(p: Perm, a: int, b: int) -> Perm:
    q = list(p)
    q[a - 1], q[b - 1] = p[b - 1], p[a - 1]
    return tuple(q)
