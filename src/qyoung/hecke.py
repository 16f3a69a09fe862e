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
Inverse generators use g_i^-1 = g_i - z.  A general product expands one
factor through reduced words, sharing common prefixes so that dense
products cost one generator step per distinct prefix rather than per term.
Only the right action is implemented: the anti-involution iota: w_p -> w_{p^-1}
fixes each g_i and reverses products, so x * y = iota(iota(y) * iota(x)).

Per-strand-count lookup tables for the generator action are built lazily
and cached; a table row is fully built before it is published, so
concurrent readers never see a partial row.  Elements themselves are
immutable values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from . import permutations as perms
from .laurent import LaurentPoly, ONE, ZERO
from .permutations import Perm

# The quadratic-relation parameter z = s - s^-1.
Z = LaurentPoly(-1, (-1, 0, 1))
NEG_Z = LaurentPoly(-1, (1, 0, -1))

# Use the cached action tables only when the support is a sizable fraction
# of S_n; for sparse elements the direct swap is cheaper than building them.
_TABLE_THRESHOLD = 8


@functools.cache
def _right_action(n: int, i: int) -> dict[Perm, tuple[Perm, bool]]:
    """p -> (p s_i, length went up) for all of S_n."""
    row: dict[Perm, tuple[Perm, bool]] = {}
    for p in perms.all_permutations(n):
        row[p] = (perms.right_mult_gen(p, i), p[i - 1] < p[i])
    return row


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
    keyed by permutations.  Treat instances as immutable; all operations
    return new elements.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[Perm, LaurentPoly]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        table = {p: c for p, c in coeffs.items() if c.coeffs}
        for p in table:
            if len(p) != n:
                raise ValueError(f"permutation {p} does not act on {n} strands")
        self.n = n
        self.coeffs = table

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
        return not self.coeffs

    def support(self) -> list[Perm]:
        return sorted(self.coeffs)

    def coeff(self, p: Perm) -> LaurentPoly:
        return self.coeffs.get(tuple(p), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: HeckeElement) -> HeckeElement:
        self._check_same_n(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            _acc(out, p, c)
        return self._wrap(out)

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        self._check_same_n(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            _acc(out, p, -c)
        return self._wrap(out)

    def __neg__(self) -> HeckeElement:
        return self._wrap({p: -c for p, c in self.coeffs.items()})

    def scale(self, a: LaurentPoly | int) -> HeckeElement:
        if isinstance(a, int):
            a = LaurentPoly.from_int(a)
        if a.is_zero():
            return HeckeElement.zero(self.n)
        return self._wrap({p: c * a for p, c in self.coeffs.items()})

    # -- multiplication ------------------------------------------------------

    def mul_generator(self, i: int, sign: int = 1) -> HeckeElement:
        """
        Right multiplication by g_i (sign=+1) or g_i^-1 (sign=-1), term by
        term through the rewriting rule.
        """
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range for {self.n} strands")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.coeffs) * _TABLE_THRESHOLD >= math.factorial(self.n):
            act = _right_action(self.n, i).__getitem__
        else:
            act = lambda p: (perms.right_mult_gen(p, i), p[i - 1] < p[i])
        out: dict[Perm, LaurentPoly] = {}
        for p, c in self.coeffs.items():
            q, up = act(p)
            _acc(out, q, c)
            if sign == 1:
                if not up:
                    _acc(out, p, c * Z)
            else:
                if up:
                    _acc(out, p, c * NEG_Z)
        return self._wrap(out)

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        """
        The algebra product.  Expands whichever factor promises less work
        (sum of word lengths times the other side's support size) through
        its reduced words, the left one as iota(iota(other) * iota(self)).
        """
        self._check_same_n(other)
        if not self.coeffs or not other.coeffs:
            return HeckeElement.zero(self.n)
        work_right = sum(perms.length(q) for q in other.coeffs)
        work_left = sum(perms.length(p) for p in self.coeffs)
        if work_right * len(self.coeffs) <= work_left * len(other.coeffs):
            return self._mul_expanding_right(other)
        return _iota(_iota(other)._mul_expanding_right(_iota(self)))

    def _mul_expanding_right(self, other: HeckeElement) -> HeckeElement:
        items = sorted(
            (perms.reduced_word(q), c) for q, c in other.coeffs.items()
        )
        out: dict[Perm, LaurentPoly] = {}

        def descend(lo: int, hi: int, depth: int, elem: HeckeElement) -> None:
            # items[lo:hi] share a word prefix of size depth; elem = self * w_prefix.
            if len(items[lo][0]) == depth:
                c = items[lo][1]
                for p, cc in elem.coeffs.items():
                    _acc(out, p, cc * c)
                lo += 1
            while lo < hi:
                letter = items[lo][0][depth]
                j = lo
                while j < hi and items[j][0][depth] == letter:
                    j += 1
                descend(lo, j, depth + 1, elem.mul_generator(letter))
                lo = j

        descend(0, len(items), 0, self)
        return self._wrap(out)

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
        return HeckeElement(m, out)

    def conjugate_by_braid(self, p: Perm) -> HeckeElement:
        """w_p * self * w_p^-1, going through the reduced word of p."""
        if len(p) != self.n:
            raise ValueError(f"permutation {p} does not act on {self.n} strands")
        word = perms.reduced_word(tuple(p))
        out = _iota(self)  # w_p x = iota(iota(x) g_{i_k} ... g_{i_1})
        for letter in reversed(word):
            out = out.mul_generator(letter)
        out = _iota(out)
        for letter in reversed(word):
            out = out.mul_generator(letter, sign=-1)
        return out

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
        """The inverse of to_machine; any other shape raises ValueError."""
        try:
            n = _machine_int(data["n"])
            table: dict[Perm, LaurentPoly] = {}
            for term in data["terms"]:
                p = perms.as_perm([_machine_int(v) for v in term["perm"]])
                if p in table:
                    raise ValueError(f"duplicate basis permutation {list(p)}")
                pairs = [(_machine_int(e), _machine_int(c)) for e, c in term["coeff"]]
                table[p] = LaurentPoly.from_pairs(pairs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed machine-format element ({exc!r})") from None
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

    def _wrap(self, table: dict[Perm, LaurentPoly]) -> HeckeElement:
        elem = object.__new__(HeckeElement)
        elem.n = self.n
        elem.coeffs = table
        return elem

    def _check_same_n(self, other: HeckeElement) -> None:
        if self.n != other.n:
            raise ValueError(f"strand counts differ: {self.n} vs {other.n}")


def _machine_int(value: object) -> int:
    if type(value) is not int:  # JSON true and false are Python ints too
        raise ValueError(f"expected an integer in the machine format, got {value!r}")
    return value


def _iota(x: HeckeElement) -> HeckeElement:
    """The anti-involution w_p -> w_{p^-1}; it fixes each g_i and reverses products."""
    return x._wrap({perms.inverse(p): c for p, c in x.coeffs.items()})


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
    mismatch reports proportional=False with a witness permutation.
    """
    reference._check_same_n(candidate)
    if reference.is_zero():
        raise ValueError("reference element is zero")
    if candidate.is_zero():
        return ScalarReport(ZERO, True)
    pinned = min(reference.coeffs)
    top = candidate.coeffs.get(pinned)
    if top is None:
        return ScalarReport(ZERO, False, witness=min(candidate.coeffs))
    try:
        scalar = top.exact_div(reference.coeffs[pinned])
    except ArithmeticError:
        return ScalarReport(ZERO, False, witness=pinned)
    diff = candidate - reference.scale(scalar)
    if diff.is_zero():
        return ScalarReport(scalar, True)
    return ScalarReport(scalar, False, witness=min(diff.coeffs))
