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


def is_classical_symmetrizer(x: dict[Perm, int], parts: Sequence[int]) -> bool:
    """
    Whether the integer table x is the classical Young symmetrizer of the
    row-reading tableau, by von Neumann's lemma on the full table: the
    coefficient 1 at the identity, t x = x for each row transposition t of
    adjacent cells (the values a and b exchanged in every key) and
    x t = -x for each column one (the positions a and b exchanged).
    """
    n = sum(parts)
    if x.get(tuple(range(1, n + 1))) != 1:
        return False
    rows, cols = tableau_rows_and_columns(parts)
    for row in rows:
        for a, b in zip(row, row[1:]):
            t = transposition_of(n, a, b)
            if {compose(t, p): c for p, c in x.items()} != x:
                return False
    for col in cols:
        for a, b in zip(col, col[1:]):
            t = transposition_of(n, a, b)
            if {compose(p, t): -c for p, c in x.items()} != x:
                return False
    return True


def transposition_of(n: int, a: int, b: int) -> Perm:
    """The transposition of 1..n exchanging a and b."""
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def coset_expansion_at_one(c: dict[Perm, int], parts: Sequence[int], unit: int) -> dict[Perm, int]:
    """
    The full table at s = 1 of the element whose coset table at s = 1 is c,
    for the contiguous value blocks of the given sizes: unit^length(u) c_v
    at u v for every u permuting the values within each block, unit 1 for
    the row symmetrizers and -1 for the column antisymmetrizers.  Every key
    of c must be a minimal coset representative, each block's values
    standing in increasing position order; any other key raises
    ValueError, so a plain table passed for a coset table fails at once
    instead of being expanded again, |S_lambda| times larger.
    """
    n = sum(parts)
    blocks, start = [], 1
    for part in parts:
        blocks.append(list(range(start, start + part)))
        start += part
    for v in c:
        position = {value: i for i, value in enumerate(v)}
        for block in blocks:
            if any(position[a] > position[b] for a, b in zip(block, block[1:])):
                raise ValueError(f"{v} is not a minimal coset representative of blocks {parts}")
    out: dict[Perm, int] = {}
    for u in block_permutations(blocks, n):
        factor = unit ** length(u)
        for v, cv in c.items():
            out[compose(u, v)] = factor * cv
    return out


def unconjugated(y: dict[Perm, int], d: Perm) -> dict[Perm, int]:
    """x with y = iota(d^-1 x d) in the group algebra: x = d iota(y) d^-1."""
    d_inv = inverse(d)
    return {compose(compose(d, inverse(w)), d_inv): c for w, c in y.items()}


def classical_start(parts: Sequence[int], d: Perm, row: bool) -> dict[Perm, int]:
    """
    The start of a diagram's row side (``row``) or sign side at s = 1, from
    the classical Young symmetrizer z and the column-reading permutation d:
    z d on the row side, iota(d^-1 z d) d^-1 on the sign side.
    """
    z = classical_young_symmetrizer(parts)
    if row:
        return group_algebra_mul(z, {d: 1})
    d_inv = inverse(d)
    y = {inverse(compose(compose(d_inv, p), d)): c for p, c in z.items()}
    return group_algebra_mul(y, {d_inv: 1})


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


# Laurent polynomials below are zero-free dicts {exponent: coefficient}, and
# elements of H_n zero-free dicts {permutation: polynomial}.


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in a.items():
        for f, d in b.items():
            v = out.get(e + f, 0) + c * d
            if v:
                out[e + f] = v
            else:
                out.pop(e + f, None)
    return out


def alpha_cell_by_cell(parts: Sequence[int]) -> dict[int, int]:
    """
    The closed form of the squaring scalar, the product over cells (i, j)
    of s^(j - i) [hook], one cell at a time: [h] = s^(1-h) + s^(3-h) + ...
    + s^(h-1), and the hook arm + leg + 1 counted from the rows.
    """
    out = {0: 1}
    for i, part in enumerate(parts):
        for j in range(part):
            hook = part - j + sum(1 for below in parts[i + 1 :] if below > j)
            cell = {j - i + 1 - hook + 2 * t: 1 for t in range(hook)}
            out = poly_mul(out, cell)
    return out


def poly_exact_div(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """
    The q with q * b == a for a nonzero b, by long division from the lowest
    exponent up, or None if there is none.
    """
    low, lead = min(b), b[min(b)]
    highest = max(a) - max(b) if a else 0  # the quotient's top exponent, if any
    rem, quot = dict(a), {}
    while rem:
        e = min(rem)
        exp = e - low
        if exp > highest or rem[e] % lead:
            return None
        q = quot[exp] = rem[e] // lead
        for f, d in b.items():
            v = rem.get(exp + f, 0) - q * d
            if v:
                rem[exp + f] = v
            else:
                rem.pop(exp + f, None)
    return quot


def proportionality(reference: dict, candidate: dict) -> tuple[dict[int, int], bool, Perm | None]:
    """
    (scalar, proportional, witness) for candidate == scalar * reference, the
    reference nonzero: the scalar by exact division at the smallest
    permutation of the reference (zero when that fails or the candidate
    lacks the term), the witness the smallest permutation in either support
    where the two sides differ.
    """
    if not candidate:
        return {}, True, None
    pinned = min(reference)
    if pinned not in candidate:
        return {}, False, min(candidate)
    scalar = poly_exact_div(candidate[pinned], reference[pinned])
    if scalar is None:
        return {}, False, pinned
    mismatches = [
        p
        for p in set(reference) | set(candidate)
        if candidate.get(p, {}) != poly_mul(reference.get(p, {}), scalar)
    ]
    return scalar, not mismatches, min(mismatches, default=None)
