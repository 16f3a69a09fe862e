"""
Permutations of {1..n} in one-line notation, as plain tuples.

A permutation ``p`` is the tuple ``(p(1), ..., p(n))``.  These tuples index
the positive-braid basis of the Hecke algebra, and the combinatorics here
(inversion counts, reduced words in the adjacent transpositions s_i) drives
the algebra kernel.

Composition is fixed once and inherited everywhere: ``compose(p, q)`` is the
function i -> p(q(i)), so multiplying on the right by s_i swaps the entries
in *positions* i, i+1, and multiplying on the left swaps the *values* i, i+1.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from .errors import TooLarge

Perm = tuple[int, ...]

# The one size guard: at most 8! basis braids in any table a request holds.
MAX_ENTRIES = 40_320


def as_perm(images: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple."""
    p = tuple(images)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{list(images)} is not a permutation of 1..{len(p)}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def length(p: Perm) -> int:
    """
    Number of inversions, which is also the crossing number of the positive
    braid of p.

    >>> length((2, 1, 3))
    1
    >>> length((4, 3, 2, 1))
    6
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def compose(p: Perm, q: Perm) -> Perm:
    """The composite i -> p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[j - 1] for j in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def right_mult_gen(p: Perm, i: int) -> Perm:
    """p composed with s_i on the right: swap positions i, i+1 (1-based)."""
    return p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]


@functools.cache
def reduced_word(p: Perm) -> tuple[int, ...]:
    """
    A reduced word (i_1, ..., i_k) with p = s_{i_1} o ... o s_{i_k} and
    k = length(p).  Deterministic: repeatedly strip the smallest descent.

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> reduced_word((1, 2, 3))
    ()
    """
    word: list[int] = []
    w = list(p)
    n = len(w)
    while True:
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                break
        else:
            break
    word.reverse()
    return tuple(word)


def check_size(request: str, n: int) -> None:
    """
    Refuse a request on n strands, whose tables can hold n! basis braids,
    when n! > MAX_ENTRIES; n! itself is never formed.
    """
    entries = 1
    for k in range(2, n + 1):
        entries *= k
        if entries > MAX_ENTRIES:
            raise TooLarge(
                f"{request} is refused: a table on {n} strands can hold {n}! "
                f"basis braids, more than the bound of {MAX_ENTRIES}"
            )


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order (stable for golden files)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_size(f"the enumeration of S_{n}", n)
    return itertools.permutations(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation, with the maximal n(n-1)/2 inversions."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tuple(range(n, 0, -1))
