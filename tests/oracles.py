"""
Independent oracles the tests check the library against.

Everything here is deliberately written from scratch against the classical
definitions — integer group algebra by direct convolution, standard-tableau
counting by brute-force filling — and never calls into the kernel paths it
is used to judge.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(p[j - 1] for j in q)


def length(p: Perm) -> int:
    """Number of inversions."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def sign(p: Perm) -> int:
    return -1 if length(p) % 2 else 1


def transposition(n: int, i: int) -> Perm:
    """The adjacent transposition s_i of 1..n, exchanging i and i + 1."""
    images = list(range(1, n + 1))
    images[i - 1], images[i] = i + 1, i
    return tuple(images)


def group_algebra_mul(x: dict[Perm, int], y: dict[Perm, int]) -> dict[Perm, int]:
    """Convolution product in the integer group algebra of S_n."""
    out: dict[Perm, int] = {}
    for p, a in x.items():
        for q, b in y.items():
            r = compose(p, q)
            c = out.get(r, 0) + a * b
            if c:
                out[r] = c
            elif r in out:
                del out[r]
    return out


def block_permutations(blocks: Sequence[Sequence[int]], n: int) -> Iterable[Perm]:
    """All permutations of 1..n preserving each block of labels setwise."""
    pools = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*pools):
        images = list(range(1, n + 1))
        for block, reordered in zip(blocks, choice):
            for label, image in zip(block, reordered):
                images[label - 1] = image
        yield tuple(images)


def tableau_rows_and_columns(parts: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Row and column label blocks of the row-reading tableau of a diagram."""
    rows: list[list[int]] = []
    counter = itertools.count(1)
    for part in parts:
        rows.append([next(counter) for _ in range(part)])
    width = parts[0]
    cols = [
        [rows[i][j] for i in range(len(parts)) if parts[i] > j]
        for j in range(width)
    ]
    return rows, cols


def classical_young_symmetrizer(parts: Sequence[int]) -> dict[Perm, int]:
    """Row-sum times signed column-sum, straight from the definition."""
    n = sum(parts)
    rows, cols = tableau_rows_and_columns(parts)
    row_sum = {p: 1 for p in block_permutations(rows, n)}
    col_sum = {p: sign(p) for p in block_permutations(cols, n)}
    return group_algebra_mul(row_sum, col_sum)


def count_standard_tableaux(parts: Sequence[int]) -> int:
    """
    Brute force: place 1..n one at a time, each in any row that still has
    room and stays strictly shorter than the row above.
    """
    rows = len(parts)

    def rec(filled: tuple[int, ...], remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for r in range(rows):
            if filled[r] < parts[r] and (r == 0 or filled[r] < filled[r - 1]):
                total += rec(filled[:r] + (filled[r] + 1,) + filled[r + 1 :], remaining - 1)
        return total

    return rec((0,) * rows, sum(parts))
