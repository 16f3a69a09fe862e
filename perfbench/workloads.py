"""
The three benchmark workloads: their seeded inputs, the timed operation of
each item, and the exact check each result must pass before it counts.

A workload hands out *passes*, lists of items.  Pass k is drawn afresh from
the seed and k: the seed picks the item order and the random elements,
while which diagrams, which element shapes and how many items a pass holds
never depend on it, so every pass does the same kind and amount of work.
Fresh random elements in every pass average their cost over a run, which
keeps the figures of runs with different seeds close.  Operations reach
the package through module attributes at call time (``sym.alpha_extract``,
not a name bound at import), so that the traced run sees every call
through the tracer's wrappers.

Checks use the kernel-free oracles in ``tests/oracles.py``, exact
eigen-relations and closed forms, plus the small kernel-free helpers below.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import qyoung.cli as qcli
import qyoung.symmetrizers as sym
from qyoung.hecke import HeckeElement
from qyoung.laurent import LaurentPoly
from qyoung.partitions import Partition, all_partitions
from tests.oracles import classical_young_symmetrizer, group_algebra_mul


@dataclass(frozen=True)
class Item:
    """One timed operation and the exact check on its result."""

    label: str
    op: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Workload:
    seed: int
    make_pass: Callable[[random.Random], list[Item]]
    warmup: Item

    def items(self, k: int) -> list[Item]:
        """Pass k; the same seed and k always give the same items."""
        return self.make_pass(random.Random(f"{self.seed}:{k}"))


def _shuffled(items: list[Item]) -> Callable[[random.Random], list[Item]]:
    return lambda rng: rng.sample(items, len(items))


# -- kernel-free helpers --------------------------------------------------------


def inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def at_one(x: HeckeElement) -> dict[tuple[int, ...], int]:
    """The classical limit s -> 1 as an integer group-algebra table."""
    out = {}
    for p, c in x.coeffs.items():
        v = sum(c.coeffs)
        if v:
            out[p] = v
    return out


def iota(x: HeckeElement) -> HeckeElement:
    """The anti-involution w_p -> w_{p^-1}; it fixes each g_i and reverses products."""
    return HeckeElement(x.n, {inverse(p): c for p, c in x.coeffs.items()})


def perms_by_length(n: int) -> dict[int, list[tuple[int, ...]]]:
    out: dict[int, list[tuple[int, ...]]] = {}
    for p in itertools.permutations(range(1, n + 1)):
        out.setdefault(inversions(p), []).append(p)
    return out


# -- verify5 --------------------------------------------------------------------


def _run_verify5() -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return qcli.main(["verify", "5"])


def verify5():
    """``qyoung verify 5`` in-process, output captured; it must exit 0."""
    item = Item("qyoung verify 5", _run_verify5, lambda code: code == 0)
    return _shuffled([item]), item


# -- products6 ------------------------------------------------------------------

# Lengths of the random basis braids.  The kernel expands whichever factor
# promises less work, so a short braid against a_6 takes one expansion path
# and a long one the other; fixing the lengths keeps the cost of a pass the
# same for every seed while the seed still picks the braids.
EIGEN_LENGTHS = (3, 9)
# Word lengths of the terms of the random sparse factors.
SPARSE_BY_DIAGRAM = (2, 4)
SPARSE_PAIRS = (2, 5, 8)
# Enough cheap pairs that the median and the 90th percentile of a pass fall
# inside a group of similar items, not on the step between two groups.
SPARSE_PAIR_COUNT = 50


def _random_coeff(rng: random.Random) -> LaurentPoly:
    """A nonzero Laurent polynomial with one or two terms, |coeff| <= 3."""
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 2))]
    return LaurentPoly(rng.randint(-2, 2), coeffs)


def _random_sparse(rng: random.Random, by_length, lengths) -> HeckeElement:
    table = {}
    for ell in lengths:
        table[rng.choice(by_length[ell])] = _random_coeff(rng)
    return HeckeElement(6, table)


def _eigen_item(label: str, op, base: HeckeElement, p: tuple[int, ...], row: bool) -> Item:
    """w_p a = s^l(p) a for the row element a, (-s^-1)^l(p) b for the column one."""
    shift = inversions(p)
    if row:
        expected = {q: LaurentPoly(c.val + shift, c.coeffs) for q, c in base.coeffs.items()}
    else:
        sign = -1 if shift % 2 else 1
        expected = {
            q: LaurentPoly(c.val - shift, tuple(sign * v for v in c.coeffs))
            for q, c in base.coeffs.items()
        }
    want = HeckeElement(6, expected)
    return Item(label, op, lambda result: result == want)


def _product_item(label: str, x: HeckeElement, y: HeckeElement) -> Item:
    """x*y, checked at s -> 1 against the group algebra and by iota(xy) = iota(y) iota(x)."""
    classical = group_algebra_mul(at_one(x), at_one(y))

    def check(result: HeckeElement) -> bool:
        return at_one(result) == classical and iota(result) == iota(y) * iota(x)

    return Item(label, lambda: x * y, check)


def products6():
    """Seeded products in H_6 without any squaring of symmetrizers."""
    by_length = perms_by_length(6)
    a6, b6 = sym.symmetrizer(6), sym.antisymmetrizer(6)
    diagrams = [(lam, sym.e_lambda(lam)) for lam in all_partitions(6)]

    def make_pass(rng: random.Random) -> list[Item]:
        items = []
        for ell in EIGEN_LENGTHS:
            p = rng.choice(by_length[ell])
            w = HeckeElement.basis_element(6, p)
            items += [
                _eigen_item(f"w{p} * a6", lambda w=w: w * a6, a6, p, True),
                _eigen_item(f"a6 * w{p}", lambda w=w: a6 * w, a6, p, True),
                _eigen_item(f"w{p} * b6", lambda w=w: w * b6, b6, p, False),
                _eigen_item(f"b6 * w{p}", lambda w=w: b6 * w, b6, p, False),
            ]
        for lam, e in diagrams:
            x = _random_sparse(rng, by_length, SPARSE_BY_DIAGRAM)
            y = _random_sparse(rng, by_length, SPARSE_BY_DIAGRAM)
            items += [_product_item(f"x * e{lam}", x, e), _product_item(f"e{lam} * y", e, y)]
        for k in range(SPARSE_PAIR_COUNT):
            x = _random_sparse(rng, by_length, SPARSE_PAIRS)
            y = _random_sparse(rng, by_length, SPARSE_PAIRS)
            items.append(_product_item(f"sparse pair {k}", x, y))
        rng.shuffle(items)
        return items

    # A Coxeter element: its reduced word uses every generator once, so the
    # warm-up meets each generator's action on the dense a_6.
    coxeter = (2, 3, 4, 5, 6, 1)
    wc = HeckeElement.basis_element(6, coxeter)
    return make_pass, _eigen_item("a6 * w(coxeter)", lambda: a6 * wc, a6, coxeter, True)


# -- build7 ---------------------------------------------------------------------


def _build_item(lam: Partition, oracle: dict) -> Item:
    def check(e: HeckeElement) -> bool:
        if lam not in oracle:
            oracle[lam] = classical_young_symmetrizer(lam.parts)
        return at_one(e) == oracle[lam]

    return Item(f"e_lambda {lam}", lambda: sym.e_lambda(lam), check)


def build7():
    """Build e_lambda for every 7-cell diagram; at s -> 1 it must be the classical one."""
    oracle: dict = {}
    items = [_build_item(lam, oracle) for lam in all_partitions(7)]
    return _shuffled(items), _build_item(Partition((4, 3)), oracle)


# Each entry makes the workload's fixed inputs and returns (make_pass, warmup).
WORKLOADS = {
    "verify5": verify5,
    "products6": products6,
    "build7": build7,
}


def make(name: str, seed: int) -> Workload:
    make_pass, warmup = WORKLOADS[name]()
    return Workload(seed, make_pass, warmup)
