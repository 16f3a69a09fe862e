"""
The named invariants that ``qyoung verify`` and the acceptance tests check.

Each check is a ``(name, ok)`` pair: the name says what was compared and
on which strand count or diagram, and ``ok`` is the result of an exact
comparison between two sides that were both multiplied out (or, for the
full twist's centrality, between a product and its iota).  Nothing here
assumes a closed form; the closed forms are what the products are
compared against.

``strand_checks(n)`` covers H_n itself: the eigen-relations of the one-row
element a_n (every generator acts by s) and the one-column element b_n
(every generator acts by -s^-1), each on both sides, and the centrality of
the full twist against every generator.  They run on packed tables, as the
chains do: one generator step per relation, compared as kept.  The right
relation x g_i = u x, for x = a_n, u = s or x = b_n, u = -s^-1, is one
step of x's table against u x, built once per n.  The left one is checked
mirrored.  iota fixes g_i and the scalar u and reverses products, so
iota(g_i x) = iota(x) g_i, and since iota is a bijection

    g_i x = u x   exactly when   iota(x) g_i = u iota(x).

iota fixes a_n and b_n, each a sum over S_n with weights that depend on
the length alone, and length(p^-1) = length(p); so x's table is tested
fixed by iota once per n, entry by entry against the entry at the inverse
rank, and then iota(x) = x makes the right step alone decide the left
relation too, as it does for centrality below.  Should the test fail, x is
mirrored once and stepped on the right as well, so a table that iota does
not fix gets both relations checked, each by its own step, and no result
is mirrored back.  Centrality goes the same way.  The full twist is the
square of w_w0 with w0 its own inverse, so iota fixes it whenever iota
reverses products, and that is checked first: iota(ft) = ft.  Then
iota(ft g_i) = g_i ft, so

    ft g_i = g_i ft   exactly when   ft g_i is fixed by iota,

one step per generator instead of two, each result compared entry by
entry with itself at the inverse ranks.  Should iota(ft) = ft fail, every
centrality check fails with it, since none of them then holds by this
argument.  The multiplications are real: only the full twist is built
through the general product, and every relation is a step compared with a
table built without one.  a_n and b_n themselves are the unit's one-entry
coset table for one block of n strands, expanded by rank arithmetic
(``symmetrizers``), with no step or iota; every e_lambda is built by that
expansion too, so a fault in it fails these relations.  The references,
the mirrored tables and the iota test are ``hecke._Packed``'s own
(``times_unit``, ``iota``, ``iota_fixed``): this module reads no table.

``diagram_checks(lam, taus)`` covers one diagram: the squaring
scalar against its closed form and against the hook product at s = 1, the
full-twist eigenvalue against ``s^twist_exponent`` and against 1 at s = 1,
the conjugation symmetry tau(lam') = tau(lam)(s^-1) once both are known,
and the classical limit, at every size.

The classical limit needs no second product in the group algebra, and
not even e_lambda's full table: it is read off the coset table of the
side's start x that the chains ran on, one pass per transposition over
its |S_G| entries.  By von Neumann's lemma (Fulton-Harris,
*Representation Theory*, Lemma 4.25) the classical Young symmetrizer z of
the row-reading tableau, with row group P and column group Q, is the only
element with coefficient 1 at the identity, p z = z for every p in P and
z q = sgn(q) z for every q in Q.  The transpositions of adjacent cells
generate P and Q, so only those are tested.  In one-line notation p t is
p with the two positions t exchanges swapped, and t p is p with the two
values swapped.

A side's symmetrizer is y = F w G w^-1 (see ``symmetrizers``): y = z on
the row side, y = phi(z) = iota(d^-1 z d) on the sign side, at s = 1.
phi is a bijection of the group algebra that fixes the identity and
reverses products, so by the lemma, on either side, y is the only element
with coefficient 1 at the identity, u y = eps^length(u) y for u in the
Young subgroup S_F of F's blocks and y r = -eps y for r = w t w^-1, t an
adjacent transposition within G's blocks; eps is F's block unit at s = 1,
1 on the row side and -1 on the sign side, and G's is -eps.  The chains
run on the start x = F w G = y w, and right multiplication by w is a
bijection, so with X = y w at s = 1 the three conditions read

    X has coefficient 1 at w,   u X = eps^length(u) X,   X t = -eps X,

the last since y w t = y r w: X is the only element with these three
properties, and no swap is conjugated by w.  At s = 1 the coset table c
of x stands for X = sum over u in S_F and over the representatives v of
eps^length(u) c_v(1) u v, so the second holds by construction.  t =
(a a+1) swaps the positions a and a + 1, and writing v t = u' rep(v t),
X t = -eps X becomes

    eps^length(u') c_rep(v t)(1) = -eps c_v(1),

and the coefficient at w, a representative since w is the shortest
element of S_F w S_G, must be 1.  v -> rep(v t) is an involution of the
cosets, so testing the entries of the table also covers the
representatives it lacks, whose c_v is 0.  ``is_classical_coset_table``
tests exactly this, with F's and G's blocks, eps and w read off the side's
record (``symmetrizers._side``: G's unit is -eps, and a trivial
subgroup's blocks are None); the tests compare it with the dense
predicate on the full table X stands for, taken back to y by w^-1, and
with the group-algebra product of ``tests/oracles.py`` times w.

The package is reached through module attributes (``symmetrizers.
_own_table``, ``symmetrizers._alpha``, ``central._twist``), not names
bound at import, so that whatever wraps those attributes sees every call
made from here.  ``diagram_checks`` calls none of the public
``alpha_extract`` or ``twist_eigenvalue``: it builds the table of the
side's start once and hands it to each check.
"""

from __future__ import annotations

from . import central, symmetrizers
from .hecke import HeckeElement, _element, _packed
from .laurent import NEG_S_INV, LaurentPoly, S
from .partitions import Partition
from .permutations import Perm

Check = tuple[str, bool]


def strand_checks(n: int) -> list[Check]:
    """
    The eigen-relations of a_n and b_n and the centrality of the full
    twist, for every generator g_i of H_n, on packed tables as the module
    docstring derives them: one element's tables at a time.

    >>> checks = strand_checks(2)
    >>> for name, ok in checks:
    ...     print(ok, name)
    True eigen-relation for the row element, n=2, i=1
    True eigen-relation for the column element, n=2, i=1
    True full-twist centrality, n=2, i=1
    """
    out: list[Check] = []
    rows = _eigen_relations(symmetrizers.symmetrizer(n), S)
    columns = _eigen_relations(symmetrizers.antisymmetrizer(n), NEG_S_INV)
    for i, (row, column) in enumerate(zip(rows, columns), 1):
        out.append((f"eigen-relation for the row element, n={n}, i={i}", row))
        out.append((f"eigen-relation for the column element, n={n}, i={i}", column))
    ft = _packed(central.full_twist(n))
    fixed = ft.iota_fixed()
    for i in range(1, n):
        out.append(
            (f"full-twist centrality, n={n}, i={i}", fixed and ft.mul_generator(i).iota_fixed())
        )
    return out


def _eigen_relations(x: HeckeElement, u: LaurentPoly) -> list[bool]:
    """
    For each g_i of x's H_n, whether x g_i = u x and g_i x = u x: one step
    of x's table against u x, and, unless iota fixes that table, one step
    of iota(x)'s against u iota(x), each reference built once at the
    valuation the steps keep.
    """
    plain = _packed(x)
    tables = [plain] if plain.iota_fixed() else [plain, plain.iota()]
    sides = [(t, _element(t.times_unit(u))) for t in tables]
    return [all(_element(t.mul_generator(i)) == ref for t, ref in sides) for i in range(1, x.n)]


def diagram_checks(lam: Partition, taus: dict[tuple[int, ...], LaurentPoly]) -> list[Check]:
    """
    The squaring-scalar, twist-eigenvalue, conjugation and classical-limit
    checks for one diagram, all on the table of its side's start, built
    once (``symmetrizers._own_table``).  The twist eigenvalue is recorded
    in ``taus`` under ``lam.parts``; the conjugation check runs when the
    conjugate diagram's eigenvalue is already there.
    """
    out: list[Check] = []
    side, x = symmetrizers._own_table(lam)
    alpha = symmetrizers._alpha(lam, side, x)
    out.append((f"alpha closed form, lambda={lam}", alpha == symmetrizers.alpha_closed_form(lam)))
    hooks = 1
    for hook in lam.hook_lengths():
        hooks *= hook
    out.append((f"alpha at s=1 vs hook product, lambda={lam}", alpha.eval_at_one() == hooks))
    tau = central._twist(lam, side, x)
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
    out.append(
        (
            f"classical limit vs group-algebra symmetrizer, lambda={lam}",
            is_classical_coset_table(symmetrizers._at_one(x), lam, side.row),
        )
    )
    return out


def is_classical_coset_table(c: dict[Perm, int], lam: Partition, row: bool) -> bool:
    """
    Whether c, the coset table at s = 1 of the start of lam's row side
    (``row``) or sign side, keyed by the minimal coset representatives, is
    that of y w, for y the classical Young symmetrizer of lam's row-reading
    tableau and w = d (row side), or y = iota(d^-1 y' d) for y' that
    symmetrizer and w = d^-1 (sign side), by the rule of the module
    docstring.

    >>> is_classical_coset_table({(1, 2): 1}, Partition((2,)), True)
    True
    >>> is_classical_coset_table({(1, 2): 1, (2, 1): 1}, Partition((1, 1)), True)
    False
    >>> is_classical_coset_table({(1, 2): 1}, Partition((1, 1)), False)
    True

    For (2,1), d = (1, 3, 2): the start's table, and e_lambda's own, which
    the rule rejects since d is not 1.

    >>> is_classical_coset_table({(1, 3, 2): 1, (3, 1, 2): -1}, Partition((2, 1)), True)
    True
    >>> is_classical_coset_table({(1, 2, 3): 1, (3, 1, 2): -1}, Partition((2, 1)), True)
    False
    """
    side = symmetrizers._side(lam, row)
    if c.get(side.at) != 1:
        return False
    f, g = side.first, side.second
    if g is None:
        return True  # no t to test: G's subgroup is trivial
    # t = (a a+1) within G's blocks swaps the positions a and a+1.
    swaps = [(a, a + 1) for k, at in zip(g.parts, g.offsets) for a in range(at + 1, at + k)]
    eps = -g.unit.eval_at_one()
    # first[v - 1]: the smallest value of v's block of F, v itself when F is None.
    first = list(range(1, lam.n + 1))
    if f is not None:
        first = [at + 1 for k, at in zip(f.parts, f.offsets) for _ in range(k)]
    for a, b in swaps:
        for v, cv in c.items():
            moved = list(v)
            moved[a - 1], moved[b - 1] = moved[b - 1], moved[a - 1]
            rep, odd = _representative(moved, first)
            if c.get(rep, 0) * (eps if odd else 1) != -eps * cv:
                return False
    return True


def _representative(w: list[int], first: list[int]) -> tuple[Perm, bool]:
    """
    rep(w), w with the values of each block (first[v - 1] the smallest value
    of v's block) put in increasing order at the positions the block holds,
    and whether the u with w = u rep(w) is odd: the parity of the
    inversions within the blocks.
    """
    dealt: dict[int, int] = {}
    rep, odd = [], False
    for j, v in enumerate(w):
        low = first[v - 1]
        rep.append(dealt.get(low, low))
        dealt[low] = rep[-1] + 1
        for earlier in w[:j]:
            if earlier > v and first[earlier - 1] == low:
                odd = not odd
    return tuple(rep), odd
