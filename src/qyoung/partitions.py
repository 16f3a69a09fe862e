"""
Partitions as Young diagrams: hooks, contents, conjugates, and the strand
reorderings that connect row-wise and column-wise cell numberings.

Cells are addressed (row, column), 1-based, rows drawn top-down (English
style), so the hook of cell (i, j) is arm + leg + 1 and its content is
j - i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import permutations as perms
from .permutations import Perm


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        ps = tuple(parts)
        if not ps:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in ps):
            raise ValueError(f"parts must be positive: {list(ps)}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {list(ps)}")
        object.__setattr__(self, "parts", ps)

    @staticmethod
    def parse(text: str) -> Partition:
        """
        Parse a comma-separated part list such as ``"3,2,1"``.  Input that is
        not weakly decreasing is an error, never silently sorted.
        """
        try:
            parts = [int(piece) for piece in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse partition from {text!r}") from None
        return Partition(parts)

    @property
    def n(self) -> int:
        """Total number of cells."""
        return sum(self.parts)

    def conjugate(self) -> Partition:
        """
        The transposed diagram: part j is the height of column j, the
        number of rows of length at least j, read off the rows from the
        bottom in one pass.

        >>> Partition((3, 1)).conjugate()
        Partition((2, 1, 1))
        """
        parts, heights, rows = self.parts, [], len(self.parts)
        for j in range(1, parts[0] + 1):
            while parts[rows - 1] < j:
                rows -= 1
            heights.append(rows)
        return Partition(heights)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All (row, column) cells in row-reading order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def hook_length(self, i: int, j: int) -> int:
        arm = self.parts[i - 1] - j
        leg = sum(1 for p in self.parts[i:] if p >= j)
        return arm + leg + 1

    def hook_lengths(self) -> list[int]:
        """Hook lengths in row-reading cell order, each leg read off the
        conjugate: cell (i, j) has leg lambda'_j - i.

        >>> Partition((2, 2)).hook_lengths()
        [3, 2, 2, 1]
        """
        heights = self.conjugate().parts
        return [
            p - j + heights[j - 1] - i + 1
            for i, p in enumerate(self.parts, start=1)
            for j in range(1, p + 1)
        ]

    def contents(self) -> list[int]:
        """Cell contents j - i in row-reading cell order.

        >>> Partition((2, 1)).contents()
        [0, 1, -1]
        """
        return [j - i for i, j in self.cells()]

    def row_reading_offsets(self) -> list[int]:
        """Strand offset of each row when cells are numbered along rows."""
        out, acc = [], 0
        for p in self.parts:
            out.append(acc)
            acc += p
        return out

    def column_reading_offsets(self) -> list[int]:
        """Strand offset of each column when cells are numbered along columns."""
        return self.conjugate().row_reading_offsets()

    def column_reading_permutation(self) -> Perm:
        """
        The permutation taking column-reading strand positions to row-reading
        numbers: entry k is the row-reading number of the k-th cell in
        column-reading order.

        >>> Partition((2, 1)).column_reading_permutation()
        (1, 3, 2)
        """
        row_number = {
            cell: k for k, cell in enumerate(self.cells(), start=1)
        }
        columns = self.conjugate().parts
        images = [
            row_number[(i, j)]
            for j, height in enumerate(columns, start=1)
            for i in range(1, height + 1)
        ]
        return perms.as_perm(images)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


def all_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest first part first (reverse lexicographic)."""

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    yield from rec(n, n, [])
