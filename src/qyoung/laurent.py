"""
Exact arithmetic in the ring of integer Laurent polynomials Z[s, s^-1].

This is the coefficient ring for the whole package: Hecke algebra elements
carry one Laurent polynomial per basis term, and the scalars attached to
symmetrizers (normalisation factors, twist eigenvalues) live here too.
The q that appears in q-factorials is not a second variable: q = s^2
throughout, so a single variable suffices.

Coefficients are Python ints, so nothing overflows or rounds.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

from .errors import NotDivisible

# The widest exponent range from_pairs accepts.  The package's own values
# span well under a thousand exponents; a dense tuple over 10^8 would not fit
# in memory.
MAX_EXPONENT_SPAN = 10_000


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class LaurentPoly:
    """
    A Laurent polynomial over the integers, stored as a valuation and a dense
    tuple of coefficients starting at that exponent.  Construction trims
    leading and trailing zeros, so the representation is canonical and
    equality is plain structural equality.  The zero polynomial is
    ``LaurentPoly(0, ())``.

    Values are immutable once built; share them freely between threads.

    >>> LaurentPoly(-1, (1, 0, 1))
    LaurentPoly('s^-1 + s')
    >>> LaurentPoly(0, (1, 1)) * LaurentPoly(0, (1, -1, 1))
    LaurentPoly('1 + s^3')
    >>> (qint(2) * qint(2)).exact_div(qint(2)) == qint(2)
    True
    """

    val: int
    coeffs: tuple[int, ...]

    def __init__(self, val: int, coeffs: Sequence[int]):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            val += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.val = 0
            self.coeffs = ()
        else:
            self.val = val
            self.coeffs = tuple(coeffs[lo:hi])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(0, (1,))

    @staticmethod
    def from_int(c: int) -> LaurentPoly:
        return LaurentPoly(0, (c,))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> LaurentPoly:
        """The single term coeff * s^exp."""
        return LaurentPoly(exp, (coeff,))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
        """
        Build from (exponent, coefficient) pairs; repeats accumulate.  Pairs
        whose nonzero terms span more than MAX_EXPONENT_SPAN exponents raise
        ValueError before the dense tuple is allocated.
        """
        table: dict[int, int] = {}
        for exp, c in pairs:
            table[exp] = table.get(exp, 0) + c
        table = {exp: c for exp, c in table.items() if c}
        if not table:
            return LaurentPoly(0, ())
        lo = min(table)
        hi = max(table)
        if hi - lo > MAX_EXPONENT_SPAN:
            raise ValueError(
                f"exponents {lo}..{hi} span more than {MAX_EXPONENT_SPAN}; "
                "coefficients are stored densely"
            )
        dense = [table.get(e, 0) for e in range(lo, hi + 1)]
        return LaurentPoly(lo, dense)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def min_exp(self) -> int:
        """Lowest occurring exponent (0 for the zero polynomial)."""
        return self.val

    def max_exp(self) -> int:
        """Highest occurring exponent (-1 for the zero polynomial)."""
        return self.val + len(self.coeffs) - 1

    def terms(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + i, c

    def pairs(self) -> list[list[int]]:
        """Machine form: a list of [exponent, coefficient] pairs."""
        return [[e, c] for e, c in self.terms()]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        dense = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            dense[self.val + i - lo] += c
        for i, c in enumerate(other.coeffs):
            dense[other.val + i - lo] += c
        return LaurentPoly(lo, dense)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.val, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly(0, ())
            return LaurentPoly(self.val, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return LaurentPoly(0, ())
        dense = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        dense[i + j] += a * b
        return LaurentPoly(self.val + other.val, dense)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if self.is_monomial() and self.coeffs[0] in (1, -1):
                return LaurentPoly(-self.val, self.coeffs) ** (-n)
            raise NotDivisible("only unit monomials have negative powers")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: LaurentPoly) -> LaurentPoly:
        """
        The quotient q with q * other == self, if one exists over Z[s, s^-1].

        Plain long division from the top exponent down; any non-integral step
        or a nonzero remainder means no exact quotient exists, which raises
        NotDivisible.  Dividing by zero raises ZeroDivisionError.

        >>> top = LaurentPoly(-2, (-1, 0, 0, 0, 1))   # s^2 - s^-2
        >>> top.exact_div(LaurentPoly(-1, (-1, 0, 1)))
        LaurentPoly('s^-1 + s')
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly(0, ())
        rem = list(self.coeffs)
        div = other.coeffs
        width = len(rem) - len(div) + 1
        if width <= 0:
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        lead = div[-1]
        quot = [0] * width
        for k in range(width - 1, -1, -1):
            c = rem[k + len(div) - 1]
            if c % lead:
                raise NotDivisible(f"({self}) is not divisible by ({other})")
            d = c // lead
            if d:
                quot[k] = d
                for j, b in enumerate(div):
                    rem[k + j] -= d * b
        if any(rem):
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        return LaurentPoly(self.val - other.val, quot)

    # -- specializations and involutions ------------------------------------

    def eval_at_one(self) -> int:
        """Sum of all coefficients: the classical specialization s -> 1."""
        return sum(self.coeffs)

    def invert_variable(self) -> LaurentPoly:
        """The substitution s -> s^-1."""
        return LaurentPoly(-self.max_exp(), tuple(reversed(self.coeffs)))

    def negate_variable(self) -> LaurentPoly:
        """The substitution s -> -s."""
        return LaurentPoly(
            self.val,
            tuple(c if (self.val + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)),
        )

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """
        Terms in increasing exponent order, e.g. ``s^-1 + 2 + s^3``.

        >>> str(LaurentPoly(-1, (1, 2, 0, 0, 1)))
        's^-1 + 2 + s^3'
        >>> str(LaurentPoly(0, (-3, 1)))
        '-3 + s'
        >>> str(LaurentPoly.zero())
        '0'
        """
        if not self.coeffs:
            return "0"
        out: list[str] = []
        for exp, c in self.terms():
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                power = "s" if exp == 1 else f"s^{exp}"
                body = power if mag == 1 else f"{mag}{power}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))
S = LaurentPoly(1, (1,))


def qint(k: int) -> LaurentPoly:
    """
    The balanced quantum integer [k] = s^(k-1) + s^(k-3) + ... + s^(1-k),
    equal to (s^k - s^-k)/(s - s^-1).

    >>> qint(3)
    LaurentPoly('s^-2 + 1 + s^2')
    >>> qint(1) == ONE
    True
    """
    if k < 1:
        raise ValueError(f"quantum integer needs k >= 1, got {k}")
    return LaurentPoly(1 - k, tuple(1 if i % 2 == 0 else 0 for i in range(2 * k - 1)))
