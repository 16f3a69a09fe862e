"""
Elements of the type-A Hecke algebra H_n over Z[s, s^-1].

An element is a finite-support table from permutations to Laurent
polynomials, the permutation p standing for its positive braid w_p (every
pair of strings crossing at most once, all crossings positive).  These
braids form a module basis of H_n, and all multiplication reduces to the
one-generator rewriting rule

    w_p * g_i = w_{p s_i}              if length(p s_i) = length(p) + 1,
    w_p * g_i = w_{p s_i} + z * w_p    otherwise,

with z = s - s^-1, which encodes the quadratic relation g_i^2 = z g_i + 1.
Inverse generators use g_i^-1 = g_i - z.

One generator step walks pairs, not terms.  For q = p s_i one length
longer than p, the rule sends w_p and w_q onto each other, so a support
holding both coefficients c_p and c_q gives

    times g_i:     c_q at p,   c_p + z c_q at q,
    times g_i^-1:  c_p at q,   c_q - z c_p at p,

and a term without its partner moves to the partner's place, leaving z c
(for g_i, when it stepped down) or -z c (for g_i^-1, when it stepped up)
behind.  Each output coefficient is built once, and only the sums with z
can cancel, so only they are checked for zero: tables stay zero-free.

The packed kernel.  Every product path (the trie walk of a general
product, conjugation, and the chains of generator steps that
``symmetrizers`` and ``central`` build) runs on packed tables: each
coefficient is one Python int, the Kronecker substitution s = 2^K of its
coefficients.  A packed table (``_Packed``, private to this module) maps
the rank of each permutation, its position in the lexicographic order of
S_n that ``permutations.all_permutations`` yields, to an int
N = sum of d_k 2^(K k), standing for s^V * sum of d_k s^k, and records

- V, the valuation shared by the whole table;
- K, the digit size in bits, a multiple of 64;
- B, a bound with |d_k| <= B for every digit of every entry;
- low, a number of low digits guaranteed to be zero in every entry.

Multiplying by s is a shift left by K bits and by s^-1 a shift right,
which is exact only while the lowest digit is zero: a step spends one of
the ``low`` digits, and a table with none left is first rebased, shifted
so that it has exactly _REBASE zero low digits, with V moved to match.
So the pair rule for g_i is

    out[p] = N_q,   out[q] = N_p + (N_q << K) - (N_q >> K),

and each step triples B.  A sum of tables adds their bounds, and adding
c * table for a Laurent polynomial c (a block sum's u^j, a product's leaf
coefficient) multiplies the bound by the sum of |c|'s coefficients.

The guard.  Digits are signed and carry into their neighbours, so a table
is readable only while B < 2^(K-1).  Before an operation that would push
B past that limit, the table is decoded, which is still exact, and
encoded again with a K large enough for its true largest digit times the
operation's growth, with room to spare; B is reset to that true value.
K is derived from the data alone: an encoded table takes the smallest
multiple of 64 that fits its largest coefficient.

Three forms, each converted at most once.  An element holds its table as
a mapping from permutation tuples to Laurent polynomials, as a packed
table, as its own coset table (``_ck``, below) when it lies in R H_n or
B H_n, or as more than one of these.  The public constructor fills only
the mapping.  A kernel result (a generator step, a product, a
conjugation, a rescaling, and the chains that ``symmetrizers`` and
``central`` build) holds one table: the coset table its build, step or
product ran on, as for e_lambda, a_n, b_n, ``row_element`` and the steps,
rescalings and right products of these, and otherwise its packed table.
The first use of an element that needs a plain packed table makes it and
keeps it (``_kept``): encoded from the mapping, or expanded from the
coset table, which is tidied first.  The first read of ``coeffs`` decodes
the packed table, or, on an element that holds only its coset table h,
reads R h (or B h) straight off h, with no packed expansion; the mapping
is kept.  ``is_zero`` reads whichever table the element holds.  A chain
starts from the kept table and never writes into it: the only table
written in place is an accumulator made fresh for one sum, so a result
may share an input's table (x * 1 holds x's own).  The first chain to
start from a kernel result tidies the table it starts from, once, and
keeps it: it drops the surplus zero low digits and resets B to the true
largest digit, as an encode would have left them, so that squaring
e_lambda steps through no longer ints than it would from a fresh encode.
A coset table is tidied before it is expanded, on its own fewer entries,
and its expansion is tidy.  Equality and scalar extraction read packed
tables as they are kept: brought to one K and one valuation, two entries
stand for the same polynomial exactly when they are equal ints, since
balanced digits below 2^(K-1) are unique.  So a result that is only
compared is never decoded, and two elements that keep coset tables with
the same blocks are compared on those, with no expansion.  Beside its
table an element keeps, each made on its first use, the iota of its
packed table (tidy, since iota moves entries without changing them) when
a left product's fold walks over it, and the word costs (L, G) of its
table that the product's side rule reads.  So a
dense factor used in many products is mirrored and scanned once.  A
product's result starts with neither, not even the table it is the iota
of, which would hold a second table as large as its own.  Every table an
element keeps is its own.

Ranks.  Encoding turns each permutation into its rank and decoding turns
it back, so inside a chain no permutation tuple is built or hashed.  The
step finds the partner rank rank(p s_i) by rank arithmetic: s_i changes
two Lehmer digits of p, so the rank moves by one of (n-i+1)(n-i) shifts,
read from a short list per (n, i) indexed by those two digits; the length
went up exactly when the partner rank is the larger, so nothing else is
stored.  The conversions, and inversion on ranks for iota, are computed
from Lehmer codes and remembered per strand count, only for the
permutations met so far.  No table covers all of S_n, but a step still
costs more as n grows: the shift list of (n, i) holds (n-i+1)(n-i) ints of
up to log2(n!) bits, so g_1 * g_1 on 500 strands takes about 0.3 s and
146 MB (2-core host, CPython 3.11.7).  Concurrent chains may fill a memo,
or an element's kept form, at once; an entry is a single store of a value
every writer computes alike, and a missing entry is computed again, so
readers never see a wrong one.

Coset tables.  For a Young diagram lambda let S_lambda be the subgroup
of S_n that permutes the values within each row block (the row-reading
strands of one row), and R = sum over u in S_lambda of s^length(u) w_u the
product of the row symmetrizers; g_j R = R g_j = s R for each s_j in
S_lambda.  Every v in S_n is u v' for one u in S_lambda and one minimal
coset representative v', the permutation in u's coset whose values of
each block stand in increasing order, with lengths adding, so that
R w_v' = sum over u of s^length(u) w_{u v'}.  Hence the left ideal R H_n
has the basis R w_v' (Dipper-James 1986), and the coefficient of w_{u v'}
in R h = sum of c_v' R w_v' is s^length(u) c_v'.  A coset table (a packed
table whose ``blocks`` are the row blocks) stores R h by the c_v' alone,
keyed by the ranks of the representatives: |S_lambda| times fewer
entries.  The same holds, word for word, for the contiguous blocks of any
Young subgroup with the other one-dimensional unit: for the column blocks
of lambda, of sizes the parts of the conjugate diagram, and
B = sum over u of (-s^-1)^length(u) w_u their antisymmetrizers, with
g_j B = B g_j = -s^-1 B, the left ideal B H_n has the basis B w_v'.  So
``blocks`` (``_Blocks``), the one record of a side's blocks, holds the
block sizes and the side, and gives the offsets and the block unit, s on
the row side and -s^-1 on the sign side; it is None when every block is
one strand, and the table plain.  Chains, ``==`` and scalar extraction
on coset tables are exact, for three reasons:

- the coefficient of w_v' in R h is c_v' itself, so two elements of the
  ideal are equal exactly when their coset tables are;
- the smallest rank in a coset is its representative, and two elements
  of the ideal differ on a whole coset or nowhere on it, so scalar
  extraction on coset tables pins the same term and reports the same
  witness;
- R h g_i is the generator step on the c_v', with one case more.  When
  v'(i) and v'(i+1) lie in one block they are j and j+1, v' s_i = s_j v'
  with s_j in S_lambda, and R w_v' g_i = R g_j w_v' = s R w_v': the term
  stays where it is, times the unit (times its inverse for
  g_i^-1 = g_i - z, which acts on R by s^-1 and on B by -s).  On packed
  ints that is c << K for g_i on the row side, -(c >> K) on the sign
  side, and the other shift for g_i^-1.  Otherwise v' s_i is a
  representative and the pair rule applies unchanged.

So the step tests the blocks only for a term whose partner is missing
(a partner inside one block is never a representative), through a memo
per (blocks, i) filled for the ranks met, and reads the unit once per
step of a coset table; a plain table's step never reads it.

Relabel runs (``_Packed.mul_word``).  A letter often only relabels a
table: every term either moves to its partner's rank with no z term left
behind (the lengthening way for g_i, the shortening way for g_i^-1, its
partner absent) or stays in its block, times the unit for g_i and its
inverse for g_i^-1.  When every term does one of these, no partner is
present: of a present pair the shorter member moves the lengthening way
and the longer the shortening way, so one of them moves the way that
leaves a z term, and neither stays, since the partner of a term inside
one block is not a representative.  Lengths add along such a letter,
which is what makes the relabelling exact.  A run of such letters then
needs no table per letter: the walk carries each entry's rank, and its
count of in-block hits, through the run and writes the run's table once,
each entry times the unit's power, s^(+-hits) negated once per hit on the
sign side.  The digits are the entries' own, so B does not grow across a
run, where each step would triple it, and K and the zero low digits stay.
Each letter of a run is checked before it is taken.  The walk tries the
first letter and every letter after a relabelled one or after a step
that only moved entries, which it reads off the step's two tables: the
entry count kept, and every rank they share an in-block hit.  Any other
letter, and one whose try fails, is stepped.  e_lambda's build walks
w_d^-1 this way: on the row side, once one letter only relabels, every
later letter does too, and on the sign side runs end and resume.

Expansion (``_Packed.expanded``) writes each entry of R h from its coset
table once, by rank arithmetic, with no step and no iota.  u in
S_lambda only relabels the values within each block, and a block's values
are contiguous, so u v' has the Lehmer digits of v' except at the
positions of block values.  There each block's values stand in
increasing order in v', and the digit at pos_t, the position of the
block's t-th smallest value, grows by c_t: the number of later values of
the block that u sends below it, that is, the t-th digit of the Lehmer
code c of u on the block.  So

    rank(u v') = rank(v') + sum over blocks and t of c_t (n-1-pos_t)!,
    length(u) = sum of c_t,

and the entry at u v' is c_v' << K length(u) on the row side.  On the
sign side V drops by the longest length, top = sum of m(m-1)/2 over the
block sizes m, and the entry is (-1)^length(u) (c_v' << K (top - length(u))).
The digits are those of the c_v', so K, B, the zero low digits and a tidy
table's tidiness carry over.  A coset table is never an element's packed
table: iota, which does not keep the ideal, refuses one, and so does
``_element`` as a packed table.  An element of the ideal keeps its coset
table as its own: the one the chain that built it, or the product that
made it, ran on, so a coset table comes from a build or a product alone.
It is the element's only table until a plain one is needed (``_kept``).
A chain on an element starts from the table it keeps (``_chain_start``):
that coset table, or else its packed table.

A product takes one of two paths, each a walk of one factor's reduced
words over the other's table, sharing common prefixes so that dense
products cost one generator step per distinct prefix rather than per term.
Only the right action is implemented: the anti-involution iota:
w_p -> w_{p^-1} fixes each g_i and reverses products, so the left factor
is walked through iota.  Which path to take is judged by a bound on the
walk's work.

The direct walk: y's words over the table x keeps (``_chain_start``).
Every table of the walk is x w_u for a prefix u, and |w_p w_u| <=
2^length(p), since each letter of p, applied on the left, splits a term at
most once.  So it costs at most L(y) min(n!, G(x)) term updates, where L
is the sum of the word lengths and G the sum of 2^length over the terms,
both read off the ranks (a length is the sum of its Lehmer digits).  When
x keeps its own coset table h, x y = R (h y) (B (h y) on the sign side),
so the walk runs on h, whose tables hold at most n!/|S_lambda| entries,
and nothing is expanded.  Its bound reads h: L(y) min(n!/|S_lambda|,
G(h)), since w_v' w_u has at most 2^length(v') terms, so R w_v' w_u meets
at most that many cosets; x's own (L, G) are read off h as well
(``_costs``).  The result keeps h y alone, so a chain of right products
stays on it, and x * 1, which walks no word, holds the very table x keeps.
A lone step or rescaling of such an x runs on h too and keeps its result,
so a chain of ``mul_generator`` calls on e_lambda steps h's entries, not
e_lambda's.  A one-term factor +-s^k w_q walked (a basis braid w_q among
them) costs its length(q) steps and nothing else: the chain of steps
along its word, with s^k moving V and the sign negating the entries, is
the product itself, with no sum to accumulate.

The fold (``_folded``): x folded onto y's coset representatives.  Write
y = F h, where F is y's block sum (R or B, with block unit u) and h its own
coset table, or F = 1, with trivial blocks, for a y that keeps no coset
table.  iota fixes F, since S_F is closed under inverses and keeps
lengths, so iota(y) = iota(h) F and x y = iota(iota(h) F iota(x)).  Write
iota(x) = sum of c_q w_q.  Each q is u' v' with u' in S_F and v' a minimal
coset representative, lengths adding, so F w_q = u^length(u') F w_v' and

    F iota(x) = F z',   z' = sum over v' of (sum over u' in S_F of
                             u^length(u') c_{u' v'}) w_v',

with z' supported on the representatives.  Hence x y = iota(iota(h) F z')
= iota(iota(y) z').  z' is the coset table of F iota(x), and the coset
walk computes it: iota(x)'s words walked over F's one-entry unit table,
every table of which is F w_u for a prefix u, one entry.  That walk is the
fold, at most L(x) steps of one entry.  With trivial blocks every
permutation is its own representative and z' = iota(x), with no walk.
Then z''s words are walked over iota(y), the iota y keeps, and the result
is mirrored.  z' has at most r = n!/|S_F| terms (n! for trivial blocks),
each of length at most n(n-1)/2, and L(z') <= L(x), since a
representative is no longer than the q folded onto it.  So the side rule
prices the fold at

    steps + min(L(x), r n(n-1)/2) min(n!, G(y)),

with steps = L(x), or 0 for trivial blocks, against L(y) min(size, G(x))
for the direct walk.  For trivial blocks L(x) <= n! n(n-1)/2, so the
price is L(x) min(n!, G(y)), the bound of walking iota(x)'s words over
iota(y).  A long braid against a dense element is thus the factor
walked, on either side: the dense element's many words, walked over it,
would grow the tables toward 2^length terms; on the left the dense
factor's iota is the one it keeps, so only the result is mirrored.  A fold
that comes out empty, such as (g_j - s) e_lambda for s_j inside a row
block, gives zero with no walk over iota(y).  w_p e_lambda folds to one
term u^k w_p', which the walk over iota(e_lambda) takes as the one-term
chain above: length(p) steps of one entry, length(p') steps of
iota(e_lambda)'s table and one iota of the result, with no sum.

Call y c F when its own coset table has exactly one entry, at the
identity (rank 0): a_n and b_n (``symmetrizer(n)`` and
``antisymmetrizer(n)`` keep the unit's one-entry table alone), e_lambda
of (n) and (1^n), ``row_element``, and their
rescalings.  Then the fold starts from y's own entry instead of the
unit's, and is the coset table of c F iota(x) = iota(x y) itself: the
whole product, priced L(x), expanded once and mirrored once.  When it ends
at one entry at the identity again, the result is c' F, which iota fixes:
it keeps that one-entry table alone, neither expanded nor mirrored.  For a
single block, as for a_n and b_n, F H_n is Z[s, s^-1] F, so that is every
nonzero result, and w_p a_6 steps one entry length(p) times and keeps it,
as a_6 w_p does.  The full twist keeps no coset table, so a left product
with it folds with trivial blocks.

Elements are immutable values.  ``coeffs`` is a read-only view keyed by
permutation tuples, and the constructor rejects any key that is not a
permutation of 1..n.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import permutations as perms
from .laurent import MAX_EXPONENT_SPAN, LaurentPoly, NEG_S_INV, ONE, S, ZERO
from .permutations import Perm

# The quadratic-relation parameter z = s - s^-1.
Z = LaurentPoly(-1, (-1, 0, 1))


# The one writer of a HeckeElement's slots, past its immutability: the
# constructors write every slot once (``_fill``), and the kernel keeps its
# forms of an element (_coeffs, _pk, _ck, _ik, _wc) as it makes them.
_keep = object.__setattr__


def _acc(table: dict[Perm, LaurentPoly], key: Perm, value: LaurentPoly) -> None:
    """Accumulate into a coefficient table, pruning exact zeros."""
    cur = table.get(key)
    if cur is None:
        table[key] = value
    else:
        cur = cur + value
        if cur.coeffs:
            table[key] = cur
        else:
            del table[key]


class HeckeElement:
    """
    An element of H_n: a strand count plus a zero-free coefficient table
    keyed by permutations, held as a mapping, a packed table, its own
    coset table, or more than one of these (see the module docstring).
    Instances are immutable: assigning or deleting an attribute raises
    AttributeError, and all operations return new elements.  Only the
    constructors and the kernel's kept forms write the slots, through
    ``_keep``.
    """

    __slots__ = ("n", "_coeffs", "_pk", "_ck", "_ik", "_wc")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"HeckeElement is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"HeckeElement is immutable: cannot delete {name!r}")

    def __init__(self, n: int, coeffs: Mapping[Perm, LaurentPoly]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        table = {p: c for p, c in coeffs.items() if c.coeffs}
        # Built once a key of length n is seen: a zero element costs nothing.
        strands = None
        for p in table:
            if len(p) != n:
                raise ValueError(f"permutation {p} does not act on {n} strands")
            if strands is None:
                strands = set(range(1, n + 1))
            if set(p) != strands:
                raise ValueError(f"{p} is not a permutation of 1..{n}")
        # Equal values pass the set test (2.0 == 2, True == 1); one pass over
        # all entries rules out every type but int.
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(table))):
            raise ValueError(f"a key with a non-int entry is not a permutation of 1..{n}")
        _fill(self, n, MappingProxyType(table))

    @property
    def coeffs(self) -> Mapping[Perm, LaurentPoly]:
        """
        The read-only table from permutations to nonzero coefficients,
        decoded on the first read and kept: from the packed table, or
        straight from the coset table of an element that holds only that.
        """
        view = self._coeffs
        if view is None:
            view = MappingProxyType(_decode(self._pk or self._ck))
            _keep(self, "_coeffs", view)
        return view

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> HeckeElement:
        return HeckeElement(n, {})

    @staticmethod
    def unit(n: int) -> HeckeElement:
        return HeckeElement(n, {perms.identity(n): ONE})

    @staticmethod
    def basis_element(n: int, p: Perm) -> HeckeElement:
        """The basis braid w_p with coefficient 1."""
        if len(p) != n:
            raise ValueError(f"permutation {p} does not act on {n} strands")
        return HeckeElement(n, {perms.as_perm(p): ONE})

    @staticmethod
    def generator(n: int, i: int) -> HeckeElement:
        """The generator g_i = w_{s_i}."""
        if not 1 <= i <= n - 1:
            raise IndexError(f"generator index {i} out of range for {n} strands")
        return HeckeElement.basis_element(n, perms.right_mult_gen(perms.identity(n), i))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        pk = self._pk or self._ck
        return not (self._coeffs if pk is None else pk.table)

    def support(self) -> list[Perm]:
        return sorted(self.coeffs)

    def coeff(self, p: Perm) -> LaurentPoly:
        return self.coeffs.get(tuple(p), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.n != other.n:
            return False
        a, b = self._ck, other._ck
        # Two coset tables of one ideal are compared as they are, since they
        # are faithful; two mappings, neither packed, as mappings.
        if a is None or b is None or a.blocks != b.blocks:
            mine, theirs = self._coeffs, other._coeffs
            if mine is not None and theirs is not None and not (self._pk or other._pk):
                return mine == theirs
            a, b = _kept(self), _kept(other)
        if len(a.table) != len(b.table):
            return False
        mine, theirs = _aligned(a, b)
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: HeckeElement) -> HeckeElement:
        self._check_same_n(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            _acc(out, p, c)
        return _trusted(self.n, out)

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        self._check_same_n(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            _acc(out, p, -c)
        return _trusted(self.n, out)

    def __neg__(self) -> HeckeElement:
        return _trusted(self.n, {p: -c for p, c in self.coeffs.items()})

    def scale(self, a: LaurentPoly | int) -> HeckeElement:
        if isinstance(a, int):
            a = LaurentPoly.from_int(a)
        if a.is_zero() or self.is_zero():
            return HeckeElement.zero(self.n)
        out = _Packed.zero(self.n)
        out.add_times(_chain_start(self), a)
        return _element(coset=out)

    # -- multiplication ------------------------------------------------------

    def mul_generator(self, i: int, sign: int = 1) -> HeckeElement:
        """
        Right multiplication by g_i (sign=+1) or g_i^-1 (sign=-1), pair by
        pair through the rewriting rule: the one-step packed chain, on
        self's own coset table when it keeps one, as in ``__mul__``.
        """
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range for {self.n} strands")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return _element(coset=_chain_start(self).mul_generator(i, sign))

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        """
        The algebra product, by the path whose walk has the smaller bound
        on its term updates (see the module docstring).  The direct walk
        expands other over the table self keeps (``_chain_start``), its own
        coset table when it keeps one, priced L(other) min(size, G(self)),
        with L the sum of word lengths, G the sum of 2^length and size the
        entries a table of the walk can hold.  The fold (``_folded``)
        expands self onto other = F h's coset representatives: iota(self)'s
        words walked over one entry with F's blocks, L(self) steps, none
        for the trivial blocks of an other that keeps no coset table; then
        the fold's r or fewer terms walked over iota(other), priced
        min(L(self), r n(n-1)/2) min(n!, G(other)) more, for r = n!/|S_F|
        cosets.  When other is c F, its own entry starts the fold, which
        is then the whole product, priced L(self).
        """
        self._check_same_n(other)
        if self.is_zero() or other.is_zero():
            return HeckeElement.zero(self.n)
        words_x, spread_x = _costs(self)
        words_y, spread_y = _costs(other)
        size = walked = math.factorial(self.n)
        own = self._ck
        if own is not None:
            walked //= len(_length_pattern(own.blocks.parts))
            spread_x = _word_costs(own)[1]
        fold = other._ck
        steps, cosets = 0, size  # trivial blocks: n! cosets, and the fold takes no step
        if fold is not None:
            steps, cosets = words_x, size // len(_length_pattern(fold.blocks.parts))
        left = steps + min(words_x, cosets * self.n * (self.n - 1) // 2) * min(size, spread_y)
        if fold is not None and fold.table.keys() == {0}:
            left = words_x  # other is c F: the fold is the whole product
        if words_y * min(walked, spread_x) <= left:
            return _element(coset=_expand_right(_chain_start(self), other))
        return _folded(self, other)

    # -- embeddings and conjugation -------------------------------------------

    def shift_embed(self, offset: int, m: int) -> HeckeElement:
        """
        The image under the algebra embedding H_n -> H_m that sends g_i to
        g_{i+offset}: basis permutations act on offset+1..offset+n and fix
        everything else.
        """
        if offset < 0 or offset + self.n > m:
            raise ValueError(
                f"cannot place {self.n} strands at offset {offset} inside {m} strands"
            )
        head = tuple(range(1, offset + 1))
        tail = tuple(range(offset + self.n + 1, m + 1))
        out = {
            head + tuple(v + offset for v in p) + tail: c
            for p, c in self.coeffs.items()
        }
        return _trusted(m, out)

    def conjugate_by_braid(self, p: Perm) -> HeckeElement:
        """w_p * self * w_p^-1, going through the reduced word of p."""
        if len(p) != self.n:
            raise ValueError(f"permutation {p} does not act on {self.n} strands")
        word = perms.reduced_word(tuple(p))
        out = _packed(self).iota()  # w_p x = iota(iota(x) g_{i_k} ... g_{i_1})
        for letter in reversed(word):
            out = out.mul_generator(letter)
        out = out.iota()
        for letter in reversed(word):
            out = out.mul_generator(letter, -1)
        return _element(out)

    # -- specialization -------------------------------------------------------

    def specialize_at_one(self) -> dict[Perm, int]:
        """
        The classical limit s -> 1, where the braid basis collapses onto the
        group algebra of S_n: a zero-free integer table keyed by permutations.
        """
        out: dict[Perm, int] = {}
        for p, c in self.coeffs.items():
            v = c.eval_at_one()
            if v:
                out[p] = v
        return out

    # -- serialization and rendering -------------------------------------------

    def to_machine(self) -> dict:
        """JSON-ready form: {n, terms: [{perm, coeff}]} sorted by permutation."""
        return {
            "n": self.n,
            "terms": [
                {"perm": list(p), "coeff": self.coeffs[p].pairs()}
                for p in sorted(self.coeffs)
            ],
        }

    @staticmethod
    def from_machine(data: object) -> HeckeElement:
        """
        The inverse of to_machine; any other shape raises ValueError,
        among them a repeated permutation, a repeated exponent within one
        coefficient and a zero coefficient or pair, and so do terms whose
        exponents together span more than MAX_EXPONENT_SPAN, since a packed
        table holds every coefficient densely from the lowest exponent of
        the whole element.
        """
        try:
            n = _machine_int(data["n"])
            table: dict[Perm, LaurentPoly] = {}
            for term in data["terms"]:
                p = perms.as_perm([_machine_int(v) for v in term["perm"]])
                if p in table:
                    raise ValueError(f"duplicate basis permutation {list(p)}")
                pairs = dict(_machine_pair(pair) for pair in term["coeff"])
                if len(pairs) != len(term["coeff"]):
                    raise ValueError(f"repeated exponent in the coefficient of {list(p)}")
                if not pairs or 0 in pairs.values():
                    raise ValueError(f"zero coefficient in the term of {list(p)}")
                table[p] = LaurentPoly.from_pairs(pairs.items())
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed machine-format element ({exc!r})") from None
        if table:
            lo = min(c.min_exp() for c in table.values())
            hi = max(c.max_exp() for c in table.values())
            if hi - lo > MAX_EXPONENT_SPAN:
                raise ValueError(
                    f"exponents {lo}..{hi} across the terms span more than "
                    f"{MAX_EXPONENT_SPAN}; coefficients are stored densely"
                )
        return HeckeElement(n, table)

    def __str__(self) -> str:
        """
        Terms sorted by permutation, e.g. ``w[1,2] + s·w[2,1]``.  One-term
        coefficients attach directly; longer ones are parenthesised.
        """
        if not self.coeffs:
            return "0"
        out: list[str] = []
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            basis = "w[" + ",".join(map(str, p)) + "]"
            if c == ONE:
                body, negative = basis, False
            elif c == LaurentPoly(0, (-1,)):
                body, negative = basis, True
            else:
                text = str(c)
                negative = c.is_monomial() and text.startswith("-")
                if negative:
                    text = text[1:]
                body = f"{text}·{basis}" if c.is_monomial() else f"({text})·{basis}"
            if not out:
                out.append(f"-{body}" if negative else body)
            else:
                out.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"HeckeElement({self.n}, '{self}')"

    # -- internals -------------------------------------------------------------

    def _check_same_n(self, other: HeckeElement) -> None:
        if self.n != other.n:
            raise ValueError(f"strand counts differ: {self.n} vs {other.n}")


def _trusted(n: int, table: dict[Perm, LaurentPoly]) -> HeckeElement:
    """
    The element of a zero-free table keyed by permutations of 1..n, taken as
    it is: the constructor's key checks are skipped, so only code that
    builds its keys as permutations by construction calls this.
    """
    elem = object.__new__(HeckeElement)
    _fill(elem, n, MappingProxyType(table))
    return elem


def _fill(
    elem: HeckeElement,
    n: int,
    coeffs: Optional[Mapping[Perm, LaurentPoly]],
    pk: Optional[_Packed] = None,
    ck: Optional[_Packed] = None,
) -> None:
    """Every slot of a new element, written once: no mirror and no costs yet."""
    _keep(elem, "n", n)
    _keep(elem, "_coeffs", coeffs)
    _keep(elem, "_pk", pk)
    _keep(elem, "_ck", ck)
    _keep(elem, "_ik", None)
    _keep(elem, "_wc", None)


def _machine_int(value: object) -> int:
    if type(value) is not int:  # JSON true and false are Python ints too
        raise ValueError(f"expected an integer in the machine format, got {value!r}")
    return value


def _machine_pair(pair: object) -> tuple[int, int]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"malformed machine-format element (bad coefficient pair {pair!r})")
    return _machine_int(pair[0]), _machine_int(pair[1])


def _iota(x: HeckeElement) -> HeckeElement:
    """The anti-involution w_p -> w_{p^-1}; it fixes each g_i and reverses products."""
    return _trusted(x.n, {perms.inverse(p): c for p, c in x.coeffs.items()})


def _expand_right(x: _Packed, y: HeckeElement) -> _Packed:
    """
    x * y for a packed chain value x: y expanded through its reduced words,
    one generator step per distinct word prefix.  For one term +-s^k w_q
    (a basis braid w_q among them) that is the chain of steps along q's
    word, with s^k moving V and the sign negating the entries: a sum would
    only copy it into a fresh table.
    """
    items = sorted((perms.reduced_word(q), c) for q, c in y.coeffs.items())
    if len(items) == 1 and items[0][1].coeffs in ((1,), (-1,)):
        word, c = items[0]
        for letter in word:
            x = x.mul_generator(letter)
        if c == ONE:
            return x
        table = x.table
        if c.coeffs[0] < 0:
            table = dict(zip(table, map(operator.neg, table.values())))
        return _Packed(x.n, table, x.val + c.val, x.k, x.bound, x.low, x.tidy, x.blocks)
    out = _Packed.zero(x.n)
    _descend(items, out, 0, len(items), 0, x)
    return out


def _folded(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """
    x * y as iota(iota(y) z'), where y = F h and F iota(x) = F z' (see
    the module docstring): the fold, iota(x)'s words walked over F's
    one-entry unit table, is the coset table of F iota(x), whose entries
    are z' on the coset representatives.  A y that keeps no coset table
    has trivial blocks, F = 1, and z' = iota(x) with no walk.  When y is
    c F the fold starts from y's own entry instead and is the coset table
    of iota(x y) itself: kept as it is when it ends at one entry at the
    identity, c' F, which iota fixes, and otherwise expanded and mirrored.
    A fold that comes out empty gives zero, with no walk over iota(y).
    """
    own, z = y._ck, _iota(x)
    if own is not None:
        whole = own.table.keys() == {0}
        start = _chain_start(y) if whole else _Packed.basis(x.n, blocks=own.blocks)
        h = _expand_right(start, z)
        if not h.table:
            return HeckeElement.zero(x.n)
        if whole:
            return _element(coset=h) if h.table.keys() == {0} else _element(h.expanded().iota())
        z = _element(h.with_blocks(None))
    return _element(_expand_right(_mirrored(y), z).iota())


def _descend(items: list, out: _Packed, lo: int, hi: int, depth: int, elem: _Packed) -> None:
    """
    The trie walk of _expand_right: items[lo:hi] share a word prefix of size
    depth, and elem is x times the braid of that prefix.  A module function
    rather than a closure, so that no reference cycle keeps the tables of a
    finished product alive until the garbage collector runs.
    """
    if len(items[lo][0]) == depth:
        out.add_times(elem, items[lo][1])
        lo += 1
    while lo < hi:
        letter = items[lo][0][depth]
        j = lo
        while j < hi and items[j][0][depth] == letter:
            j += 1
        _descend(items, out, lo, j, depth + 1, elem.mul_generator(letter))
        lo = j


# -- the packed kernel -----------------------------------------------------------

# Zero low digits put under a table when a step finds none left.
_REBASE = 4
# Bits a widened table keeps free above its true largest digit times the
# growth that forced the widening: room for about twenty more steps.
_SPARE_BITS = 32


def _digit_bits(top: int) -> int:
    """The smallest digit size, a multiple of 64, with top < 2^(K-1)."""
    return 64 * (top.bit_length() // 64 + 1)


def _pack(digits: Sequence[int], k: int) -> int:
    """The Kronecker value sum of digits[j] * 2^(k j)."""
    out = 0
    for d in reversed(digits):
        out = (out << k) + d
    return out


def _digit_reader(k: int) -> Callable[[int], tuple[int, list[int]]]:
    """
    Reads packed ints whose digits are below 2^(k-1) in size: the reader
    returns (z, digits), z the number of zero low digits, found from the
    lowest set bit, and digits the balanced digits from the first nonzero
    one up.  Adding the bias sum of 2^(k-1) 2^(k j) makes every digit
    nonnegative without a carry, so the digits are the bytes of the sum,
    read as words, minus 2^(k-1).
    """
    half = 1 << (k - 1)
    size = k // 8
    order = sys.byteorder
    biases: dict[int, int] = {}

    def read(n: int) -> tuple[int, list[int]]:
        z = ((n & -n).bit_length() - 1) // k
        n >>= k * z
        if -half < n < half:
            return z, [n]
        width = n.bit_length() // k + 1
        bias = biases.get(width)
        if bias is None:
            bias = biases[width] = half * ((1 << (k * width)) - 1) // ((1 << k) - 1)
        raw = (n + bias).to_bytes(width * size, order)
        if k == 64:
            return z, [w - half for w in memoryview(raw).cast("Q")]
        return z, [
            int.from_bytes(raw[j : j + size], order) - half
            for j in range(0, len(raw), size)
        ]

    return read


def _rank(p: Perm) -> int:
    """
    The rank of p in the lexicographic order of S_n, from its Lehmer code:
    the digit at position j counts the smaller values after it, that is
    p[j] - 1 less the smaller values before it, read off a bit set.
    """
    n, r, seen = len(p), 0, 0
    for j, v in enumerate(p):
        r = r * (n - j) + v - 1 - (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
    return r


def _unrank(n: int, r: int) -> Perm:
    """The permutation of rank r in the lexicographic order of S_n."""
    left = list(range(1, n + 1))
    out = []
    for f in _factorials(n):
        d, r = divmod(r, f)
        out.append(left.pop(d))
    return tuple(out)


@functools.cache
def _factorials(n: int) -> tuple[int, ...]:
    """(n-1)!, (n-2)!, ..., 0!: the weights of the Lehmer digits of a rank."""
    return tuple(math.factorial(j) for j in range(n - 1, -1, -1))


# Memos of the two conversions and of inversion on ranks, one dict per
# strand count, holding only the permutations met so far.
@functools.cache
def _rank_memo(n: int) -> dict[Perm, int]:
    return {}


@functools.cache
def _perm_memo(n: int) -> dict[int, Perm]:
    return {}


@functools.cache
def _inverse_memo(n: int) -> dict[int, int]:
    return {}


@functools.cache
def _length_memo(n: int) -> dict[int, int]:
    return {}


def _perm_of(n: int, r: int) -> Perm:
    """The permutation of rank r in S_n, through the memos."""
    p = _perm_memo(n).get(r)
    if p is None:
        p = _perm_memo(n)[r] = _unrank(n, r)
        _rank_memo(n)[p] = r
    return p


def _inverse_rank(n: int, r: int) -> int:
    """The rank of p^-1 for the p of rank r in S_n, through the inverse memo, stored both ways."""
    inverse = _inverse_memo(n)
    q = inverse.get(r)
    if q is None:
        q = inverse[r] = _rank_of_inverse(n, r)
        inverse[q] = r
    return q


def _rank_of_inverse(n: int, r: int) -> int:
    """
    The rank of p^-1 for the p of rank r in S_n, read off r's Lehmer
    digits with no permutation built.  Digit j of r picks p[j] = v from the
    values still unplaced, kept in order.  The Lehmer digit of p^-1 at v
    counts the u > v with p^-1(u) < p^-1(v): the larger values placed
    before v, which are the n - v larger values less those still unplaced
    after v is, len(left) - d of them.  That digit weighs (n - v)!.
    """
    weights, left, q = _factorials(n), list(range(1, n + 1)), 0
    for f in weights:
        d, r = divmod(r, f)
        v = left.pop(d)
        q += (n - v - len(left) + d) * weights[v - 1]
    return q


def _costs(x: HeckeElement) -> tuple[int, int]:
    """
    x's (L, G) for the side rule, scanned on the first use and kept on x:
    from x's own coset table when it keeps one, never expanded for it.  An
    entry c_v' of R h stands for the w_{u v'} of length length(u) +
    length(v'), u in S_lambda, so L(R h) = |S_lambda| L(h) + |h| times the
    sum of length(u), and G(R h) = G(h) times the sum of 2^length(u).
    """
    wc = x._wc
    if wc is None:
        own = x._ck
        if own is None:
            wc = _word_costs(_kept(x))
        else:
            (words, spread), pattern = _word_costs(own), _length_pattern(own.blocks.parts)
            words = len(pattern) * words + len(own.table) * sum(pattern)
            wc = words, spread * sum(1 << ell for ell in pattern)
        _keep(x, "_wc", wc)
    return wc


def _word_costs(pk: _Packed) -> tuple[int, int]:
    """
    (L, G) for a packed table: L the sum of the lengths of its permutations,
    G the sum of 2^length.  A length is the sum of the Lehmer digits of the
    rank, which are the rank's digits in the factorial base.
    """
    lengths, n, total, spread = _length_memo(pk.n), pk.n, 0, 0
    for r in pk.table:
        ell = lengths.get(r)
        if ell is None:
            ell, rest = 0, r
            for m in range(2, n + 1):
                rest, d = divmod(rest, m)
                ell += d
            lengths[r] = ell
        total += ell
        spread += 1 << ell
    return total, spread


@functools.cache
def _partner_shifts(n: int, i: int) -> tuple[int, int, list[int]]:
    """
    The partner rank rank(p s_i) as rank(p) + shifts[rank(p) // weight % size];
    returns (weight, size, shifts).  Right multiplication by s_i swaps
    positions i and i+1, which changes only the Lehmer digits (a, b) of
    those positions, weighted (n-i)! and weight = (n-i-1)! in the rank: to
    (b + 1, a) when a <= b (p[i-1] < p[i], the length goes up) and to
    (b, a - 1) otherwise.  rank // weight % size is a (n-i) + b, so shifts
    has one entry per digit pair.  An ascent moves p later in the order and
    a descent earlier, so the length went up exactly when the partner rank
    is the larger.
    """
    weight = math.factorial(n - i - 1)
    weight_a = (n - i) * weight
    shifts = [
        (b + 1 - a) * weight_a + (a - b) * weight
        if a <= b
        else (b - a) * weight_a + (a - 1 - b) * weight
        for a in range(n - i + 1)
        for b in range(n - i)
    ]
    return weight, len(shifts), shifts


class _Blocks(NamedTuple):
    """
    The blocks of a coset table, the one record of a side's blocks: the
    sizes of its contiguous blocks of strand values, and its side, which
    fixes the block unit: s for the row blocks (row=True), -s^-1 for the
    column blocks (row=False).  ``of`` gives None when every block is one
    strand: the subgroup is trivial and the table plain.
    """

    parts: tuple[int, ...]
    row: bool

    @staticmethod
    def of(parts: tuple[int, ...], row: bool) -> Optional[_Blocks]:
        return _Blocks(parts, row) if max(parts) > 1 else None

    @property
    def offsets(self) -> tuple[int, ...]:
        """The strand offset of each block: the sum of the sizes before it."""
        return tuple(itertools.accumulate(self.parts[:-1], initial=0))

    @property
    def unit(self) -> LaurentPoly:
        return S if self.row else NEG_S_INV


@functools.cache
def _block_of(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The block of each value 1..n, at index value - 1."""
    return tuple(b for b, part in enumerate(parts) for _ in range(part))


@functools.cache
def _inside_memo(blocks: _Blocks, i: int) -> dict[int, bool]:
    """Per (blocks, i): whether p[i-1] and p[i] share a block, by rank."""
    return {}


def _within_block(blocks: _Blocks, i: int, p: Perm) -> bool:
    block = _block_of(blocks.parts)
    return block[p[i - 1] - 1] == block[p[i] - 1]


@functools.cache
def _weights_memo(parts: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Per block sizes: the weights of each representative's movable digits, by rank."""
    return {}


@functools.cache
def _movable_digits(parts: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """
    The Lehmer digits that S_lambda moves in a representative, as (block,
    t, range) for the position of the t-th smallest value of the block,
    which takes range = m - t values in a block of m (the largest value's
    never moves).  Ordered by range, so that ``expanded`` writes the
    widest digit last and loops least over the entries so far.
    """
    digits = [(b, t, m - t) for b, m in enumerate(parts) for t in range(m - 1)]
    return tuple(sorted(digits, key=lambda digit: digit[2]))


def _movable_weights(parts: tuple[int, ...], p: Perm) -> tuple[int, ...]:
    """The rank weights (n-1-pos)! of the movable digits of a representative p, in order."""
    block, weights = _block_of(parts), _factorials(len(p))
    at: list[list[int]] = [[] for _ in parts]
    for pos, v in enumerate(p):
        at[block[v - 1]].append(weights[pos])
    return tuple(at[b][t] for b, t, _ in _movable_digits(parts))


@functools.cache
def _length_pattern(parts: tuple[int, ...]) -> tuple[int, ...]:
    """
    length(u), the sum of u's movable digits, for the u in S_lambda in the
    order ``expanded`` writes their runs: the first digit varying fastest.
    """
    pattern = [0]
    for _, _, m in _movable_digits(parts):
        pattern = [ell + j for j in range(m) for ell in pattern]
    return tuple(pattern)


def _expanded_ranks(h: _Packed) -> list[int]:
    """
    The ranks of R h's entries (B h's on the sign side) from its coset
    table h, by the rank rule (see the module docstring): one run of h's
    ranks, in h's order, per u in S_lambda, in the order of
    ``_length_pattern``.  All representatives move one digit at a time:
    each rank r so far becomes r + j w for j below the digit's range, w
    the digit's weight in its representative.
    """
    n, parts = h.n, h.blocks.parts
    memo = _weights_memo(parts)
    ranks, weights = list(h.table), []
    for r in ranks:
        w = memo.get(r)
        if w is None:
            w = memo[r] = _movable_weights(parts, _perm_of(n, r))
        weights.append(w)
    # ranks holds one run of the representatives per choice of the digits
    # so far, so the run for j at the next digit is the run for j - 1 plus
    # that digit's weights, repeated once per run.
    for (_, _, m), column in zip(_movable_digits(parts), zip(*weights)):
        spread, run = column * (len(ranks) // len(column)), ranks
        for _ in range(1, m):
            run = list(map(operator.add, run, spread))
            ranks += run
    return ranks


def _zero_low_digits(values: Iterable[int], k: int) -> int:
    """
    The fewest zero low K-bit digits among nonzero ints, read once off the
    lowest set bit of their OR: that bit is the lowest of their lowest set
    bits, since a negative int has as many trailing zero bits as its
    absolute value.
    """
    bits = functools.reduce(operator.or_, values)
    return ((bits & -bits).bit_length() - 1) // k


class _Packed:
    """
    A coefficient table in Kronecker form (see the module docstring): a
    strand count, the table from permutation ranks to packed ints, V, K,
    the digit bound B, the guaranteed zero low digits, whether the table
    is tidy (as an encode leaves it, with exactly _REBASE zero low digits
    and B its true largest digit), and the blocks of a coset table (None
    on a plain one).  Chains start from ``_packed(x)``, or from a basis
    braid's one-entry table (``basis``), the start of every idempotent
    and of every fold, and end in ``_element(result)``; only this module
    builds one or reads the fields.  Steps return new tables;
    ``add_times`` accumulates into its own table in place, so an
    accumulator starts as ``copy()`` or ``zero(n)``, never as a table an
    element holds.
    """

    __slots__ = ("n", "table", "val", "k", "bound", "low", "tidy", "blocks")

    def __init__(
        self,
        n: int,
        table: dict,
        val: int,
        k: int,
        bound: int,
        low: int,
        tidy: bool = False,
        blocks: Optional[_Blocks] = None,
    ):
        self.n = n
        self.table = table
        self.val = val
        self.k = k
        self.bound = bound
        self.low = low
        self.tidy = tidy
        self.blocks = blocks

    @staticmethod
    def zero(n: int) -> _Packed:
        return _Packed(n, {}, 0, 64, 0, _REBASE, tidy=True)

    @staticmethod
    def basis(n: int, p: Optional[Perm] = None, blocks: Optional[_Blocks] = None) -> _Packed:
        """
        The one-entry table of w_p, the identity for p None, read with
        blocks, as an encode of w_p leaves it: K 64, _REBASE zero low
        digits, B 1, tidy.  p is one the kernel computed, never checked,
        and a minimal coset representative of blocks, so that the table
        stands for F w_p for F the blocks' sum.
        """
        r = 0 if p is None else _rank(p)
        return _Packed(n, {r: 1 << (64 * _REBASE)}, -_REBASE, 64, 1, _REBASE, True, blocks)

    def copy(self) -> _Packed:
        return _Packed(
            self.n, dict(self.table), self.val, self.k, self.bound, self.low, blocks=self.blocks
        )

    def with_blocks(self, blocks: Optional[_Blocks]) -> _Packed:
        """
        The same entries read with other blocks, sharing the table: a plain
        table h keyed by coset representatives as the coset table of R h
        (or B h), or a coset table of R h as the plain table h (blocks None).
        """
        return _Packed(
            self.n, self.table, self.val, self.k, self.bound, self.low, self.tidy, blocks
        )

    def iota(self) -> _Packed:
        """
        The anti-involution w_p -> w_{p^-1} on a packed table.  Entries move
        unchanged, so the result is tidy when this table is.
        """
        if self.blocks is not None:
            raise ValueError("iota does not act on a coset table")
        n, inverse = self.n, _inverse_memo(self.n)
        table: dict[int, int] = {}
        for p, c in self.table.items():
            q = inverse.get(p)
            if q is None:
                q = _inverse_rank(n, p)
            table[q] = c
        return _Packed(self.n, table, self.val, self.k, self.bound, self.low, self.tidy)

    def iota_fixed(self) -> bool:
        """
        Whether iota fixes a plain packed table: each entry against the entry
        at its inverse rank, read through the inverse-rank memo, so that no
        mirrored table is built.  iota moves entries unchanged, so V and K
        already agree.
        """
        n, inverse, table = self.n, _inverse_memo(self.n), self.table
        for r, c in table.items():
            q = inverse.get(r)
            if q is None:
                q = _inverse_rank(n, r)
            if table.get(q) != c:
                return False
        return True

    def times_unit(self, u: LaurentPoly) -> _Packed:
        """
        u times a tidy packed table, for u = s or -s^-1, at the table's own
        valuation: each entry shifted by one digit, the sign applied, and one
        zero low digit gained or spent.
        """
        (sign,), e, k = u.coeffs, u.val, self.k
        values = {c: sign * (c << k if e > 0 else c >> k) for c in set(self.table.values())}
        table = {r: values[c] for r, c in self.table.items()}
        return _Packed(self.n, table, self.val, k, self.bound, self.low + e)

    def expanded(self) -> _Packed:
        """
        R h (B h on the sign side) as a plain table, from its coset table
        h; a plain table is its own expansion.  Each entry is written once,
        at the rank ``_expanded_ranks`` gives it (the rank rule of the
        module docstring).  The entry of u v' is c_v' times the unit to the
        length(u), one int per representative and length, shared by its
        entries.  On the sign side V drops by the longest length, so that
        (-s^-1)^l is a shift left.  The digits are those of h, so K, B, the
        zero low digits and ``tidy`` carry over.
        """
        blocks = self.blocks
        if blocks is None:
            return self
        k, parts = self.k, blocks.parts
        top, entries, powers = sum(m * (m - 1) // 2 for m in parts), self.table.values(), []
        for ell in range(top + 1):
            shift = k * (ell if blocks.row else top - ell)
            power = list(map(operator.lshift, entries, itertools.repeat(shift)))
            if not blocks.row and ell % 2:
                power = list(map(operator.neg, power))
            powers.append(power)
        values = itertools.chain.from_iterable(map(powers.__getitem__, _length_pattern(parts)))
        val = self.val if blocks.row else self.val - top
        table = dict(zip(_expanded_ranks(self), values))
        return _Packed(self.n, table, val, k, self.bound, self.low, self.tidy)

    def mul_generator(self, i: int, sign: int = 1) -> _Packed:
        """
        The packed step: right multiplication by g_i (sign=+1) or g_i^-1
        (sign=-1) through the pair rule, widening first if tripling the
        bound would pass the digit limit.  On a coset table a term whose
        partner is missing first asks whether positions i and i+1 hold
        values of one block; if so it stays, times the block unit (s or
        -s^-1) for g_i and times its inverse for g_i^-1.
        """
        pk = self
        if 3 * pk.bound >= 1 << (pk.k - 1):
            pk = pk._widened(3)
        if pk.low < 1 and pk.table:
            pk = pk._rebased()
        k, coeffs, blocks = pk.k, pk.table, pk.blocks
        weight, size, shifts = _partner_shifts(pk.n, i)
        plus = sign == 1
        if blocks is None:
            inside = None
        else:
            inside = _inside_memo(blocks, i)
            # A staying term is shifted up for s and down for s^-1, and
            # negated on the sign side, whose unit is -s^-1.
            up, negated = plus == blocks.row, not blocks.row
        out: dict[int, int] = {}
        for p, c in coeffs.items():
            q = p + shifts[p // weight % size]
            if q in coeffs:
                # Only the shorter member p < q of the pair acts; its
                # partner q takes no branch.
                if q > p:
                    partner = coeffs[q]
                    if plus:
                        out[p] = partner
                        moved, at = c + (partner << k) - (partner >> k), q
                    else:
                        out[q] = c
                        moved, at = partner - (c << k) + (c >> k), p
                    if moved:
                        out[at] = moved
            else:
                if inside is not None:
                    within = inside.get(p)
                    if within is None:
                        within = inside[p] = _within_block(blocks, i, _perm_of(pk.n, p))
                    if within:
                        # p s_i = s_j p with s_j in the blocks' subgroup, and
                        # R g_j = s R, B g_j = -s^-1 B.
                        c = c << k if up else c >> k
                        out[p] = -c if negated else c
                        continue
                out[q] = c
                if (q > p) != plus:
                    zc = (c << k) - (c >> k)
                    out[p] = zc if plus else -zc
        return _Packed(pk.n, out, pk.val, k, 3 * pk.bound, pk.low - 1, blocks=blocks)

    def mul_word(self, word: Iterable[int], sign: int = 1) -> _Packed:
        """
        Right multiplication by g_i (sign=+1) or g_i^-1 (sign=-1) for each
        letter i of word in turn, in relabel runs (see the module
        docstring).  The first letter, and each letter after one that only
        moved entries, is tried as a relabelling of the ranks so far
        (``_moved``), which carries every entry's count of in-block hits.
        A letter that fails, or follows a step that did more, is stepped
        (``mul_generator``) on the run's table, written once
        (``_relabelled``), and so is the last run's at the end.
        """
        pk, ranks, hits, tried = self, None, None, True  # ranks is None while no run is open
        for i in word:
            moved = pk._moved(pk.table if ranks is None else ranks, i, sign) if tried else None
            if moved is None:
                if ranks is not None:
                    pk, ranks, hits = pk._relabelled(ranks, hits, sign), None, None
                before, pk = pk, pk.mul_generator(i, sign)
                tried = pk._only_moved(before, i)
                continue
            ranks, inner = moved
            if inner:
                if hits is None:
                    hits = [0] * len(ranks)
                for j in inner:
                    hits[j] += 1
        return pk if ranks is None else pk._relabelled(ranks, hits, sign)

    def _only_moved(self, before: _Packed, i: int) -> bool:
        """
        Whether this table, the step of before by letter i, met no pair and
        left no z term, read off the two tables without a flag in the step:
        such a step keeps the number of entries, and every rank the two
        share is an in-block hit.  A z term leaves its rank shared, and so
        does the longer member of a pair, which is never in-block.
        """
        if len(self.table) != len(before.table):
            return False
        shared = filter(before.table.__contains__, self.table)
        if self.blocks is None:
            return next(shared, None) is None
        return all(map(_inside_memo(self.blocks, i).get, shared))

    def _moved(
        self, ranks: Iterable[int], i: int, sign: int
    ) -> Optional[tuple[list[int], list[int]]]:
        """
        One letter of a relabel run on this table's entries, now at ranks:
        where g_i^sign takes each, and the positions of those that stay in
        their block, or None as soon as one entry would leave a z term, so
        that the letter must be stepped.  A term that moves the lengthening
        way for g_i, or the shortening way for g_i^-1, leaves none; when
        every term does that or stays, no partner is present, since of a
        present pair one member moves the other way and neither stays.
        """
        weight, size, shifts = _partner_shifts(self.n, i)
        blocks, plus = self.blocks, sign == 1
        inside = None if blocks is None else _inside_memo(blocks, i)
        moved: list[int] = []
        inner: list[int] = []
        move = moved.append
        for j, p in enumerate(ranks):
            q = p + shifts[p // weight % size]
            if q > p:
                # Only a lengthening partner can lie in one block: a
                # representative's block values stand in increasing order.
                if inside is not None:
                    within = inside.get(p)
                    if within is None:
                        within = inside[p] = _within_block(blocks, i, _perm_of(self.n, p))
                    if within:
                        move(p)
                        inner.append(j)
                        continue
                if not plus:
                    return None
            elif plus:
                return None
            move(q)
        return moved, inner

    def _relabelled(self, ranks: list[int], hits: Optional[list[int]], sign: int) -> _Packed:
        """
        The table a relabel run ends at: this table's j-th entry at
        ranks[j], times the block unit to the power hits[j] for g_i and
        its inverse's for g_i^-1 (no power when hits is None), that is
        s^(e hits[j]) with e = +-1, negated for each hit on the sign side.
        V moves to the least power, so that every entry is shifted left,
        and B, K and the zero low digits carry over: a relabelling writes
        the digits unchanged.
        """
        entries, blocks, k = self.table.values(), self.blocks, self.k
        if hits is None:
            table = dict(zip(ranks, entries))
            return _Packed(self.n, table, self.val, k, self.bound, self.low, self.tidy, blocks)
        e = 1 if (sign == 1) == blocks.row else -1
        base = min(hits) if e > 0 else -max(hits)
        table = {}
        for r, c, h in zip(ranks, entries, hits):
            c <<= k * (e * h - base)
            table[r] = -c if h & 1 and not blocks.row else c
        return _Packed(self.n, table, self.val + base, k, self.bound, self.low, blocks=blocks)

    def add_times(self, other: _Packed, c: LaurentPoly) -> None:
        """
        self += c * other in place, for a nonzero Laurent polynomial c: a
        block sum's u^j times a step, or a product's leaf coefficient times
        its prefix.  Both tables are widened to one digit size first when
        they differ or the summed bound would pass the digit limit.
        """
        if not other.table:
            return
        self.tidy = False
        weight = sum(map(abs, c.coeffs))
        if not self.table:
            self.val, self.k, self.bound, self.low = other.val + c.val, other.k, 0, other.low
            self.blocks = other.blocks
        if self.k != other.k or self.bound + other.bound * weight >= 1 << (self.k - 1):
            wide = self._widened(1, other.k)
            other = other._widened(weight, wide.k)
            if other.k != wide.k:
                wide = wide._widened(1, other.k)
            self.table, self.k, self.bound = wide.table, wide.k, wide.bound
        k, table = self.k, self.table
        d = other.val + c.val - self.val
        if d < 0:
            # Rebase in place: this accumulator owns its table.
            r = max(-d, _REBASE)
            for p, n in table.items():
                table[p] = n << (k * r)
            self.val, self.low, d = self.val - r, self.low + r, d + r
        mult, shift = _pack(c.coeffs, k), k * d
        for p, n in other.table.items():
            n = n * mult << shift
            cur = table.get(p)
            if cur is None:
                table[p] = n
            else:
                cur += n
                if cur:
                    table[p] = cur
                else:
                    del table[p]
        self.bound += other.bound * weight
        self.low = min(self.low, other.low + d)

    def _rebased(self) -> _Packed:
        """
        The same values with exactly _REBASE zero low digits, for a step
        that found none guaranteed.  The true count is read from the lowest
        set bits, so zero digits the guaranteed count lost track of are
        dropped, not kept under every entry.
        """
        k = self.k
        true_low = _zero_low_digits(self.table.values(), k)
        shift = k * (_REBASE - true_low)
        if shift >= 0:
            table = {p: c << shift for p, c in self.table.items()}
        else:
            table = {p: c >> -shift for p, c in self.table.items()}
        return _Packed(
            self.n, table, self.val + true_low - _REBASE, k, self.bound, _REBASE, blocks=self.blocks
        )

    def _tidied(self) -> _Packed:
        """
        The same values, tidy.  A chain's result keeps the zero low digits
        its sums piled up past the steps' count and a bound multiplied up
        step by step, often tens of bits above its true digits; a chain
        started from it as it is would carry the longer ints through every
        step and widen again and again.
        """
        if not self.table:
            return _Packed.zero(self.n).with_blocks(self.blocks)
        out = self._rebased()._widened(1)
        out.tidy = True
        return out

    def _widened(self, growth: int, k: int = 64) -> _Packed:
        """
        The guard: the same values with B reset to the true largest digit,
        read exactly while the old bound still holds, and K the smallest
        digit size of at least k that fits growth times that digit with
        _SPARE_BITS to spare.
        """
        read = _digit_reader(self.k)
        digits = {c: read(c) for c in set(self.table.values())}
        top = max((abs(d) for _, ds in digits.values() for d in ds), default=0)
        k = max(k, _digit_bits((top * growth) << _SPARE_BITS))
        table = self.table
        if k != self.k:
            recoded = {c: _pack(ds, k) << (k * z) for c, (z, ds) in digits.items()}
            table = {p: recoded[c] for p, c in table.items()}
        return _Packed(self.n, table, self.val, k, top, self.low, blocks=self.blocks)


def _packed(x: HeckeElement) -> _Packed:
    """
    x's packed table as a chain starts from it, tidy and kept: as ``_kept``
    gives it, tidied on the first use if it is a kernel result.
    """
    pk = _kept(x)
    if not pk.tidy:
        pk = pk._tidied()
        _keep(x, "_pk", pk)
    return pk


def _kept(x: HeckeElement) -> _Packed:
    """
    x's packed table as it is kept, for reading without a chain, made on
    the first use: encoded from x's mapping, or, for a kernel result that
    holds only its own coset table, that table tidied (``_chain_start``)
    and expanded, both kept.
    """
    pk = x._pk
    if pk is None:
        pk = _encode(x) if x._ck is None else _chain_start(x).expanded()
        _keep(x, "_pk", pk)
    return pk


def _mirrored(x: HeckeElement) -> _Packed:
    """
    iota of x's packed table, as a chain starts from it, tidy and kept on x:
    made on the first use, as the right factor a fold's last walk runs on.
    """
    ik = x._ik
    if ik is None:
        ik = _packed(x).iota()
        _keep(x, "_ik", ik)
    return ik


def _element(pk: Optional[_Packed] = None, coset: Optional[_Packed] = None) -> HeckeElement:
    """
    The element a kernel result stands for, holding only the one table
    given: its packed table pk, or ``coset``, its own coset table h, the
    table a build, step or product of an element of R H_n (or B H_n) ran
    on, expanded on the first need of a plain table (``_kept``).  A plain
    h is the packed table.  A coset table stands for R h (or B h), not for
    its own entries, so it is refused as pk.
    """
    if coset is not None:
        pk, coset = (coset, None) if coset.blocks is None else (None, coset)
    elif pk.blocks is not None:
        raise ValueError("a coset table is not an element; expand it first")
    elem = object.__new__(HeckeElement)
    _fill(elem, (pk or coset).n, None, pk, coset)
    return elem


def _chain_start(x: HeckeElement) -> _Packed:
    """
    The table a chain on x starts from, tidy and kept on x: x's own coset
    table when it keeps one, tidied on the first use if it is a product's,
    or else x's packed table (``_packed``).
    """
    ck = x._ck
    if ck is None:
        return _packed(x)
    if not ck.tidy:
        ck = ck._tidied()
        _keep(x, "_ck", ck)
    return ck


def _encode(x: HeckeElement) -> _Packed:
    """
    The packed table of x, with the smallest digit size that fits its
    largest coefficient and _REBASE zero low digits.
    """
    coeffs = x.coeffs
    if not coeffs:
        return _Packed.zero(x.n)
    top = max(max(map(abs, c.coeffs)) for c in coeffs.values())
    k = _digit_bits(top)
    val = min(c.val for c in coeffs.values()) - _REBASE
    ranks, found = _rank_memo(x.n), _perm_memo(x.n)
    packed: dict[LaurentPoly, int] = {}
    table: dict[int, int] = {}
    for p, c in coeffs.items():
        r = ranks.get(p)
        if r is None:
            r = ranks[p] = _rank(p)
            found[r] = p
        n = packed.get(c)
        if n is None:
            n = packed[c] = _pack(c.coeffs, k) << (k * (c.val - val))
        table[r] = n
    return _Packed(x.n, table, val, k, top, _REBASE, tidy=True)


def _check_readable(pk: _Packed) -> None:
    if pk.bound >= 1 << (pk.k - 1):
        # The guard widens before any operation that could get here.
        raise ArithmeticError(f"packed digits may reach {pk.bound}, past 2^{pk.k - 1}")


def _decode(pk: _Packed) -> dict[Perm, LaurentPoly]:
    """
    The mapping a packed table stands for: each rank back to its
    permutation, each int to its Laurent polynomial, equal ints to one
    shared polynomial.  A coset table h stands for R h (B h on the sign
    side), read straight off h: the entry of u v' is c_v' times the unit
    to the length(u), at the rank ``_expanded_ranks`` gives it, one
    polynomial per distinct entry and length, in the order of h's
    expansion.
    """
    _check_readable(pk)
    read, n, val, blocks = _digit_reader(pk.k), pk.n, pk.val, pk.blocks
    found = _perm_memo(n)  # read inline: a rank met before costs no call
    if blocks is None:
        coeffs: dict[Perm, LaurentPoly] = {}
        polys: dict[int, LaurentPoly] = {}
        for r, c in pk.table.items():
            poly = polys.get(c)
            if poly is None:
                z, digits = read(c)
                poly = polys[c] = LaurentPoly(val + z, digits)
            coeffs[found.get(r) or _perm_of(n, r)] = poly
        return coeffs
    digits = {c: read(c) for c in set(pk.table.values())}
    pattern, entries, runs = _length_pattern(blocks.parts), pk.table.values(), []
    for ell in range(max(pattern) + 1):
        # u^ell c for the unit u: s^ell on the row side, (-1)^ell s^-ell on the sign side.
        shift, negated = (ell, False) if blocks.row else (-ell, ell % 2 == 1)
        at = {
            c: LaurentPoly(val + z + shift, [-d for d in ds] if negated else ds)
            for c, (z, ds) in digits.items()
        }
        runs.append(list(map(at.__getitem__, entries)))
    values = itertools.chain.from_iterable(map(runs.__getitem__, pattern))
    ranks = _expanded_ranks(pk)
    return {found.get(r) or _perm_of(n, r): poly for r, poly in zip(ranks, values)}


def _aligned(a: _Packed, b: _Packed) -> tuple[dict[int, int], dict[int, int]]:
    """
    The tables of a and b at one digit size and one valuation, so that two
    entries stand for the same polynomial exactly when they are equal ints.
    The narrower table is recoded to the wider K; its digits are below
    2^(K-1) by 64 bits and more, so the guard's spare bits fit and it lands
    on exactly that K.  The table with the higher valuation is re-expressed
    at the other's, lower one.
    """
    _check_readable(a)
    _check_readable(b)
    if a.k < b.k:
        a = a._widened(1, b.k)
    elif b.k < a.k:
        b = b._widened(1, a.k)
    mine, theirs = a.table, b.table
    if a.val > b.val:
        shift = a.k * (a.val - b.val)
        mine = {r: c << shift for r, c in mine.items()}
    elif b.val > a.val:
        shift = a.k * (b.val - a.val)
        theirs = {r: c << shift for r, c in theirs.items()}
    return mine, theirs


@dataclass(frozen=True)
class ScalarReport:
    """
    Outcome of a proportionality extraction: the scalar, whether the whole
    candidate really is scalar * reference, and if not, the first basis
    permutation where that failed.
    """

    scalar: LaurentPoly
    proportional: bool
    witness: Optional[Perm] = None


def extract_scalar(reference: HeckeElement, candidate: HeckeElement) -> ScalarReport:
    """
    Find the Laurent scalar a with candidate == a * reference, if it exists.

    The scalar is pinned from the lexicographically smallest basis term of
    the reference by exact division, then verified on every coefficient; any
    mismatch reports proportional=False with a witness permutation, the
    smallest in either support where the two sides differ.  Both run on
    packed tables (``_extract``).
    """
    reference._check_same_n(candidate)
    return _extract(_kept(reference), _kept(candidate))


def _extract(ref: _Packed, cand: _Packed) -> ScalarReport:
    """
    extract_scalar on packed tables: the smallest permutation is the
    smallest rank, and scalar * reference is compared with the candidate
    entry by entry once the two are aligned.  On the coset tables of two
    elements of one ideal it reports what it reports on the elements: the
    smallest rank of a coset is its representative, and the two elements
    differ on a whole coset or nowhere on it.
    """
    if not ref.table:
        raise ValueError("reference element is zero")
    if not cand.table:
        return ScalarReport(ZERO, True)
    pinned = min(ref.table)
    top = cand.table.get(pinned)
    if top is None:
        return ScalarReport(ZERO, False, witness=_perm_of(ref.n, min(cand.table)))
    _check_readable(ref)
    _check_readable(cand)
    try:
        scalar = _poly(cand, top).exact_div(_poly(ref, ref.table[pinned]))
    except ArithmeticError:
        return ScalarReport(ZERO, False, witness=_perm_of(ref.n, pinned))
    scaled = _Packed.zero(ref.n)
    scaled.add_times(ref, scalar)
    mine, theirs = _aligned(scaled, cand)
    if mine == theirs:
        return ScalarReport(scalar, True)
    witness = min(r for r in mine.keys() | theirs.keys() if mine.get(r) != theirs.get(r))
    return ScalarReport(scalar, False, _perm_of(ref.n, witness))


def _poly(pk: _Packed, c: int) -> LaurentPoly:
    """The Laurent polynomial of one entry c of a readable packed table."""
    z, digits = _digit_reader(pk.k)(c)
    return LaurentPoly(pk.val + z, digits)
