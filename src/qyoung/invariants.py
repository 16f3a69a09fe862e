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

``diagram_checks(lam, taus, max_cells)`` covers one diagram: the squaring
scalar against its closed form and against the hook product at s = 1, the
full-twist eigenvalue against ``s^twist_exponent`` and against 1 at s = 1,
the conjugation symmetry tau(lam') = tau(lam)(s^-1) once both are known,
and, for at most 6 cells, the classical limit against the group-algebra
symmetrizer.

The classical symmetrizer here is a kernel-free copy of the one in
``tests/oracles.py``.  An installed package cannot import the tests, so
``verify`` needs its own; the tests keep theirs as an oracle written
independently of this package, and a test pins the two equal.

The package is reached through module attributes (``symmetrizers.
alpha_extract``, ``central.twist_scalar``), not names bound at import, so
that whatever wraps those attributes sees every call made from here.
"""

from __future__ import annotations

import itertools
from typing import Iterable

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


def diagram_checks(
    lam: Partition, taus: dict[tuple[int, ...], LaurentPoly], max_cells: int
) -> list[Check]:
    """
    The squaring-scalar, twist-eigenvalue, conjugation and classical-limit
    checks for one diagram, building its symmetrizer once.  The twist
    eigenvalue is recorded in ``taus`` under ``lam.parts``; the conjugation
    check runs when the conjugate diagram's eigenvalue is already there.
    """
    out: list[Check] = []
    qi = symmetrizers.alpha_extract(lam, max_cells=max_cells)
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
                qi.element.specialize_at_one() == classical_symmetrizer(lam),
            )
        )
    return out


# -- the kernel-free classical oracle ------------------------------------------


def _group_product(x: dict[Perm, int], y: dict[Perm, int]) -> dict[Perm, int]:
    out: dict[Perm, int] = {}
    for p, a in x.items():
        for q, b in y.items():
            r = perms.compose(p, q)
            c = out.get(r, 0) + a * b
            if c:
                out[r] = c
            else:
                del out[r]
    return out


def _block_permutations(blocks: list[list[int]], n: int) -> Iterable[Perm]:
    """All permutations fixing each block of labels setwise."""
    pools = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*pools):
        images = list(range(1, n + 1))
        for block, reordered in zip(blocks, choice):
            for label, image in zip(block, reordered):
                images[label - 1] = image
        yield tuple(images)


def classical_symmetrizer(lam: Partition) -> dict[Perm, int]:
    """Row-sum times signed column-sum of the row-reading tableau."""
    n = lam.n
    numbering = {cell: k for k, cell in enumerate(lam.cells(), start=1)}
    rows = [
        [numbering[(i, j)] for j in range(1, part + 1)]
        for i, part in enumerate(lam.parts, start=1)
    ]
    cols = [
        [numbering[(i, j)] for i in range(1, height + 1)]
        for j, height in enumerate(lam.conjugate().parts, start=1)
    ]
    row_sum = {p: 1 for p in _block_permutations(rows, n)}
    col_sum = {p: perms.sign(p) for p in _block_permutations(cols, n)}
    return _group_product(row_sum, col_sum)
