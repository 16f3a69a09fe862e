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

Two forms, each converted at most once.  An element holds its table as a
mapping from permutation tuples to Laurent polynomials, as a packed table,
or as both.  The public constructor fills only the mapping; every kernel
result (a generator step, a product, a conjugation, a rescaling, and the
chains that ``symmetrizers`` and ``central`` build) holds only its packed
table.  The first kernel use of an element encodes its mapping and keeps
the packed table; the first read of ``coeffs`` decodes the packed table and
keeps the mapping.  A chain starts from the kept table and never writes
into it: the only table written in place is an accumulator made fresh for
one sum.  The first chain to start from a kernel result tidies the kept
table, once: it drops the surplus zero low digits and resets B to the true
largest digit, as an encode would have left them, so that squaring
e_lambda steps through no longer ints than it would from a fresh encode.
Equality and scalar extraction read packed tables as they are kept:
brought to one K and one valuation, two entries stand for the same
polynomial exactly when they are equal ints, since balanced digits below
2^(K-1) are unique.  So a result that is only compared is never decoded.

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
``blocks`` (``_Blocks``) carries the block sizes and the block unit, s on
the row side and -s^-1 on the sign side.  A coset table is faithful on
three counts:

- restriction to the representatives is injective on the ideal, since the
  coefficient at w_v' is c_v' itself;
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
step of a coset table; a plain table's step never reads it.  A
coset table is never an element: iota, which does not keep the ideal, and
``_element`` refuse one, and ``symmetrizers`` expands it as a plain table
first.  An element of the ideal may keep its coset table beside its
packed table: the one the chain that built it ran on, or the restriction
made on the first use, which checks membership in the ideal.  So no
element is restricted twice.

A general product expands one factor through reduced words, sharing common
prefixes so that dense products cost one generator step per distinct
prefix rather than per term.  Only the right action is implemented: the
anti-involution iota: w_p -> w_{p^-1} fixes each g_i and reverses
products, so x * y = iota(iota(y) * iota(x)).  Which factor to expand is
judged by a bound on the walk's work.  Walking y's words over x, every
table is x w_u for a prefix u, and |w_p w_u| <= 2^length(p), since each
letter of p, applied on the left, splits a term at most once.  So
expanding y costs at most L(y) min(n!, G(x)) term updates, where L is the
sum of the word lengths and G the sum of 2^length over the terms, both
read off the ranks (a length is the sum of its Lehmer digits).  y is
expanded directly when that bound is at most the mirrored one,
L(x) min(n!, G(y)), and x through iota otherwise.  A long braid against a
dense element is thus the factor expanded, on either side: the dense
element's many words, walked over it, would grow the tables toward
2^length terms.

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
from .laurent import MAX_EXPONENT_SPAN, LaurentPoly, ONE, ZERO
from .permutations import Perm

# The quadratic-relation parameter z = s - s^-1.
Z = LaurentPoly(-1, (-1, 0, 1))


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
    keyed by permutations, held as a mapping, a packed table or both (see
    the module docstring).  Instances are immutable; all operations return
    new elements.
    """

    __slots__ = ("n", "_coeffs", "_pk", "_ck")

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
        self.n = n
        self._coeffs = MappingProxyType(table)
        self._pk = self._ck = None

    @property
    def coeffs(self) -> Mapping[Perm, LaurentPoly]:
        """
        The read-only table from permutations to nonzero coefficients,
        decoded from the packed table on the first read and kept.
        """
        view = self._coeffs
        if view is None:
            view = self._coeffs = MappingProxyType(_decode(self._pk))
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
        pk = self._pk
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
        if self._pk is None and other._pk is None:
            return self._coeffs == other._coeffs
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
        out.add_times(_packed(self), a)
        return _element(out)

    # -- multiplication ------------------------------------------------------

    def mul_generator(self, i: int, sign: int = 1) -> HeckeElement:
        """
        Right multiplication by g_i (sign=+1) or g_i^-1 (sign=-1), pair by
        pair through the rewriting rule: the one-step packed chain.
        """
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range for {self.n} strands")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return _element(_packed(self).mul_generator(i, sign))

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        """
        The algebra product.  Expands the factor whose walk has the smaller
        bound on its term updates, L(expanded) min(n!, G(other)) with L the
        sum of word lengths and G the sum of 2^length (see the module
        docstring): the right one directly, the left one as
        iota(iota(other) * iota(self)).
        """
        self._check_same_n(other)
        if self.is_zero() or other.is_zero():
            return HeckeElement.zero(self.n)
        x, y = _packed(self), _packed(other)
        words_x, spread_x = _word_costs(x)
        words_y, spread_y = _word_costs(y)
        size = math.factorial(self.n)
        if words_y * min(size, spread_x) <= words_x * min(size, spread_y):
            return _element(_expand_right(x, other))
        return _element(_expand_right(y.iota(), _iota(self)).iota())

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
    elem.n, elem._coeffs, elem._pk, elem._ck = n, MappingProxyType(table), None, None
    return elem


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
    one generator step per distinct word prefix.
    """
    items = sorted((perms.reduced_word(q), c) for q, c in y.coeffs.items())
    out = _Packed.zero(x.n)
    _descend(items, out, 0, len(items), 0, x)
    return out


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
    The blocks of a coset table: the sizes of its contiguous blocks of
    strand values, and its side, which fixes the block unit: s for the row
    blocks (row=True), -s^-1 for the column blocks (row=False).
    """

    parts: tuple[int, ...]
    row: bool


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


def _restricted(pk: _Packed, blocks: _Blocks) -> _Packed:
    """
    The coset table of a plain table x of the ideal of the blocks (R H_n
    on the row side, B H_n on the sign side): its entries at the minimal
    coset representatives of the blocks' Young subgroup.  A table outside
    the ideal is refused.  x lies in R H_n exactly when g_j x = s x for
    every s_j in the subgroup, that is, when y = iota(x) has
    y[p s_j] = s y[p] whenever p s_j is the longer: the pair rule's
    out[p s_j] = y[p] + z y[p s_j] then equals s y[p s_j] by itself.  In the
    same way x lies in B H_n exactly when y[p] = -s y[p s_j].  The same pass
    finds the representatives: v is one when each block's values stand in
    increasing order, so when iota(v) steps up under every such s_j.
    """
    _check_readable(pk)
    n, k, mirror = pk.n, pk.k, pk.iota().table
    lower: set[int] = set()
    start = 0
    for part in blocks.parts:
        for j in range(start + 1, start + part):
            weight, size, shifts = _partner_shifts(n, j)
            for p, c in mirror.items():
                q = p + shifts[p // weight % size]
                if q < p:
                    lower.add(p)
                    held = q in mirror
                elif blocks.row:
                    held = mirror.get(q) == c << k
                else:
                    held = -(mirror.get(q, 0) << k) == c
                if not held:
                    ideal = "R H_n for the row" if blocks.row else "B H_n for the column"
                    raise ValueError(f"the table is not in {ideal} blocks {blocks.parts}")
        start += part
    inverse = _inverse_memo(n)  # holds every rank of x since the iota above
    out = {r: c for r, c in pk.table.items() if inverse[r] not in lower}
    return _Packed(n, out, pk.val, k, pk.bound, pk.low, blocks=blocks)


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
    on a plain one).  Chains start from ``_packed(x)`` and end in
    ``_element(result)``; only this module reads the fields.  Steps return
    new tables; ``add_times`` accumulates into its own table in place, so
    an accumulator starts as ``copy()`` or ``zero(n)``, never as a table an
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
        """The anti-involution w_p -> w_{p^-1} on a packed table."""
        if self.blocks is not None:
            raise ValueError("iota does not act on a coset table")
        n, inverse = self.n, _inverse_memo(self.n)
        table: dict[int, int] = {}
        for p, c in self.table.items():
            q = inverse.get(p)
            if q is None:
                q = inverse[p] = _rank(perms.inverse(_unrank(n, p)))
                inverse[q] = p
            table[q] = c
        return _Packed(self.n, table, self.val, self.k, self.bound, self.low)

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
    x's packed table as a chain starts from it, tidy and kept: encoded from
    x's mapping, or x's kernel result tidied, on the first use.
    """
    pk = x._pk
    if pk is None:
        pk = x._pk = _encode(x)
    elif not pk.tidy:
        pk = x._pk = pk._tidied()
    return pk


def _kept(x: HeckeElement) -> _Packed:
    """x's packed table as it is kept, for reading without a chain."""
    return _packed(x) if x._pk is None else x._pk


def _element(pk: _Packed, coset: Optional[_Packed] = None) -> HeckeElement:
    """
    The element a kernel result stands for, holding only its packed table,
    and keeping ``coset``, when given, as its tidy coset table: the chain
    that built pk as the expansion of ``coset`` passes it.  A coset table
    stands for R h (or B h), not for its own entries, so it is refused as
    pk.
    """
    if pk.blocks is not None:
        raise ValueError("a coset table is not an element; expand it first")
    elem = object.__new__(HeckeElement)
    elem.n, elem._coeffs, elem._pk, elem._ck = pk.n, None, pk, coset
    return elem


def _coset_kept(
    x: HeckeElement,
    blocks: _Blocks,
    into: Optional[Callable[[_Packed], _Packed]] = None,
) -> _Packed:
    """
    The coset table for the blocks of x, or of the chain ``into`` run on
    x's packed table, tidy and kept on x: the one x was built with, or else
    a restriction made on the first use, which refuses a table outside the
    ideal of the blocks.  x keeps one coset table; the blocks tell which.
    """
    ck = x._ck
    if ck is None or ck.blocks != blocks:
        pk = _kept(x) if into is None else into(_packed(x))
        ck = x._ck = _restricted(pk, blocks)._tidied()
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
    shared polynomial.
    """
    _check_readable(pk)
    coeffs: dict[Perm, LaurentPoly] = {}
    read = _digit_reader(pk.k)
    polys: dict[int, LaurentPoly] = {}
    n, val = pk.n, pk.val
    for r, c in pk.table.items():
        poly = polys.get(c)
        if poly is None:
            z, digits = read(c)
            poly = polys[c] = LaurentPoly(val + z, digits)
        coeffs[_perm_of(n, r)] = poly
    return coeffs


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
