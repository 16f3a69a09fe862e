"""
Per-layer timings of the generator kernel, for the committed BENCH_*.json files.

Measures whatever ``qyoung`` is importable, so one script times two trees:

    PYTHONPATH=src python3 tools/bench_kernel.py --repeat 9

prints one JSON object mapping each layer to ``{"s": ..., "at_ref_s": ...}``:
its median seconds over the repeats (one call per repeat, after one untimed
warm-up call that fills the lazy caches), and the median of the same calls
scaled to reference speed.  Each layer is timed in a fresh process of its
own, one layer at a time, so that the heap and the caches earlier layers
leave behind cannot skew a later one's timings.  The processes run with
glibc's mmap and trim thresholds fixed (``FIXED_MALLOC``): by default each
large free moves them, so whether a layer's large tables are page-faulted
afresh on every call depends on what the process allocated before, even
at import.  (8)'s expansion read 5.8-10.6 ms in fresh processes of one
tree as the allocations before it varied, and 8.3-8.7 ms with the
thresholds fixed (2-core host, CPython 3.11.7, glibc 2.36).  A fixed
reference loop of pure-Python work is timed after every call, and each
call's time is multiplied by REFERENCE_NOMINAL_S over the loop's, so that
a host running slower or faster from one run to the next does not read as
a difference between trees.  Compare ``at_ref_s`` between two trees.  The layers:

- ``mul_generator_s6`` / ``mul_generator_s7``: g_i and g_i^-1 for every i,
  applied to e_lambda of (3,3) (504 of 720 terms) and of (4,3) (2016 of
  5040 terms), each as a lone ``HeckeElement.mul_generator`` call, which
  steps the 14 entries of the coset table e_lambda keeps; the result
  keeps the stepped coset table alone and is never expanded;
- ``block_action_43``: the first row block of squaring e_lambda (4,3), as
  one chain from the element to the element;
- ``long_braid_a6`` / ``a6_long_braid`` and ``long_braid_b6`` /
  ``b6_long_braid``: the products w_p * a_6, a_6 * w_p, w_p * b_6 and
  b_6 * w_p for p = LONG_BRAID, of length 9.  a_6 and b_6 keep the unit's
  one-entry coset table, so on either side w_p's 9 letters step that one
  entry, with no iota, and the result keeps that one entry alone;
- ``long_braid_ft6`` / ``ft6_long_braid``: the products w_p * ft_6 and
  ft_6 * w_p for the longest p, of length 15.  The full twist keeps no
  coset table, and the side rule expands the one-term w_p on either side:
  as the left factor by the fold with trivial blocks, iota(w_p)'s 15
  steps walked over iota(ft_6) with no fold walk before them, and as the
  right factor directly, so these layers time both paths;
- ``e6_long_braid`` / ``e6_sparse``: the products e_lambda(3,3) * w_p for
  p = LONG_BRAID and e_lambda(3,3) * y for SPARSE_Y, two terms of lengths
  2 and 4 as in the benchmark's sparse factors.  y is expanded directly,
  its words walked over the 20-entry coset table that e_lambda keeps, and
  the result keeps the walked table alone, never expanded;
- ``left_fold_33`` / ``ft_left_33``: the left products y * e_lambda(3,3)
  for the same y and ft_6 * e_lambda(3,3).  e_lambda keeps a coset table
  of 20 entries, so iota(y)'s or iota(ft_6)'s words are first folded over
  the unit's one-entry table with (3,3)'s row blocks, onto at most 20
  coset representatives, and only those are walked over iota(e_lambda);
- ``sparse_e1x6`` / ``e1x6_sparse``: the products y * e_lambda(1^6) and
  e_lambda(1^6) * y for the same y.  e_lambda(1^6) is b_6 and keeps its
  one-entry sign-side table, so y's words are walked over that one entry
  on either side, and B H_6 is Z[s, s^-1] b_6, so the walk ends at one
  entry at the identity, which the result keeps alone;
- ``alpha_extract_43`` / ``twist_eigenvalue_43``: the public calls;
- ``alpha_extract_44`` / ``twist_44``: the same calls on the 8-cell diagram
  (4,4), whose e_lambda holds 24192 of the 40320 basis braids of H_8; the
  warm-up call fills the S_8 rank memos;
- ``build_43`` / ``build_7`` / ``build_2x1x5`` / ``build_1x7``: ``e_lambda``
  of the 7-cell diagrams (4,3), (7), (2,1^5) and (1^7): the start w_d B
  expanded from one entry, one iota and the walk of w_d^-1's length(d)
  letters on R's coset table, stepped or relabelled
  (``hecke._Packed.mul_word``), which e_lambda keeps as it is, with no
  tidy and no expansion to R h; (7) and (1^7) are the one-entry start
  alone.  (4,3) steps 4 letters and relabels 2, (2,1^5) relabels all 5;
- ``build_2x1x6``: the same build for the 8-cell diagram (2,1^6), whose 6
  letters all relabel its 5040 entries;
- ``build_all_7``: ``e_lambda`` of all 15 diagrams of 7 cells, with no
  decode: the builds alone, as the benchmark's build7 workload times them;
- ``build_read_7``: ``e_lambda`` and then ``coeffs`` for all 15 diagrams
  of 7 cells, timed together: each build and the decode of R h (B h for
  (1^7)) straight from its coset table, as the benchmark's build7
  workload builds and checks them;
- ``row_element_8``: ``row_element`` of (8), R's one-entry coset table,
  kept as it is, with no step and no expansion;
- ``expand_8``: one expansion alone, from the coset table that
  e_lambda's build of (8) keeps (one entry) to its 40320 entries, as the
  first need of a plain table of a_8 runs it;
- ``one_dimensional_8``: ``symmetrizer(8)`` and ``antisymmetrizer(8)``,
  a_8 and b_8, each the unit's one-entry coset table for one block of 8
  strands, kept with no expansion;
- ``start_44`` / ``start_8`` / ``start_1x8`` / ``start_2x1x6``: the table
  of the side's start x = F w G (``symmetrizers._own_table``) for (4,4),
  (8), (1^8) and (2,1^6): one expansion of a one-entry table to w G's
  |S_G| entries and one iota, with no step, as ``qyoung verify`` builds it;
- ``square_44`` / ``square_8`` / ``square_1x8`` / ``square_2x1x6`` and
  ``twist_table_44`` / ``twist_table_8`` / ``twist_table_1x8`` /
  ``twist_table_2x1x6``: squaring and twist-checking on the same start
  for the same diagrams, from x to the extracted scalar.  The square is
  what ``alpha_extract`` runs after the build: the chain x w^-1 F w G
  (``symmetrizers._mul_symmetrizer``) and the extraction against x,
  through ``symmetrizers._report_on_side``.  The twist is
  ``central._twist`` on x, as ``qyoung verify`` runs it;
- ``sign_table_2x2x2x2`` / ``sign_table_1x8``: the sign side's build of
  f's own coset table (``symmetrizers._table`` of the sign side, the
  start and the walk of its length(d) inverse letters), for (2,2,2,2) and
  (1^8);
- ``classical_4x4`` / ``classical_2x2x2x2``: the classical-limit check of
  ``qyoung verify`` on the start for (4,4) (row side) and (2,2,2,2) (sign
  side): x read at s = 1 (``symmetrizers._at_one``) and tested by
  ``invariants.is_classical_coset_table``;
- ``strand_checks_5`` / ``strand_checks_8``: ``invariants.strand_checks``
  on 5 and 8 strands, the eigen-relations of a_n and b_n and the
  centrality of the full twist, each one generator step of a dense packed
  table of n! entries: a_n's and b_n's, each tested fixed by iota first,
  so that one right step decides both relations, and the full twist's
  (checked fixed by iota); every call expands its a_n and b_n from one
  entry and builds its full twist afresh, as ``qyoung verify`` does;
- ``closed_forms_8``: ``symmetrizers.alpha_closed_form`` and
  ``central.twist_exponent`` for all 66 diagrams of 1-8 cells, the closed
  forms ``qyoung verify 8`` compares with, each alpha one packed product;
- ``verify_main_5``: one in-process ``cli.main(["verify", "5"])`` with its
  stdout captured, as the verify5 benchmark workload runs it: the parser
  (built once per process, so the warm-up call builds it) and every check
  of every strand count and diagram up to 5 cells.

The chain layer starts from the element's kept packed table and ends in an
element holding the result's (``hecke._packed`` and ``hecke._element``), so
results the layers never read are never decoded.  An element of R H_n or
B H_n that the kernel made holds its coset table alone, so the layers
that make one and never read it expand nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import statistics
from time import perf_counter

from qyoung import central, cli, hecke, invariants
from qyoung import symmetrizers as sym
from qyoung.hecke import HeckeElement
from qyoung.laurent import LaurentPoly, S
from qyoung.partitions import Partition, all_partitions

# A permutation of length 9 in S_6, and the longest one, of length 15.
LONG_BRAID = (3, 6, 4, 1, 5, 2)
LONGEST = (6, 5, 4, 3, 2, 1)
# A sparse factor in H_6: two terms, of lengths 2 and 4.
SPARSE_Y = {(2, 1, 3, 5, 4, 6): S, (1, 4, 2, 6, 3, 5): LaurentPoly(-1, (2, 0, -1))}
# The reference loop's seconds at reference speed: about its time on a
# 2-core host running CPython 3.11.7.
REFERENCE_NOMINAL_S = 0.010
# 32 MB, the largest mmap threshold glibc accepts on 64-bit hosts; setting
# either turns off glibc's moving thresholds.  Other C libraries ignore both.
FIXED_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "33554432"}


def reference_loop() -> float:
    """
    Seconds taken by a fixed mix of pure-Python work of the kinds the
    kernel does (int shifts and sums, int-keyed dicts, small tuples),
    which no change to the package changes.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i * 7919 % 4099
        table[key] = (table.get(key, 0) << 64) + i >> 60
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 13
    pairs = [(i, i % 17) for i in range(10_000)]
    for a, b in pairs:
        acc ^= a * b
    return perf_counter() - t0


def _every_generator(x):
    def run():
        for i in range(1, x.n):
            x.mul_generator(i)
            x.mul_generator(i, -1)

    return run


def _chain(action):
    """action as one chain from element to element."""
    return lambda x: hecke._element(action(hecke._packed(x)))


def _lazy(make):
    """A layer whose inputs make() builds on the first, untimed, call."""
    made = []

    def run():
        if not made:
            made.append(make())
        return made[0]()

    return run


def _square(lam):
    """The square of lam's symmetrizer on its side's start x, and its scalar."""
    side, x = sym._own_table(lam)
    return lambda: sym._report_on_side(lam, side, x, sym._mul_symmetrizer, lambda r: r.proportional)


def _twist(lam):
    side, x = sym._own_table(lam)
    return lambda: central._twist(lam, side, x)


def _classical(lam):
    side, x = sym._own_table(lam)
    return lambda: invariants.is_classical_coset_table(sym._at_one(x), lam, side.row)


def _build_all(cells: int):
    """e_lambda, never read, for every diagram of ``cells`` cells."""
    lams = list(all_partitions(cells))
    return lambda: [sym.e_lambda(lam) for lam in lams]


def _build_read(cells: int):
    """e_lambda and its decoded coefficients, for every diagram of ``cells`` cells."""
    lams = list(all_partitions(cells))
    return lambda: [sym.e_lambda(lam).coeffs for lam in lams]


def _closed_forms(cells: int):
    """Every closed form verify compares with, for the diagrams of 1..cells cells."""
    lams = [lam for k in range(1, cells + 1) for lam in all_partitions(k)]
    return lambda: [(sym.alpha_closed_form(lam), central.twist_exponent(lam)) for lam in lams]


def _verify_main(n: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", str(n)])


def layers() -> dict:
    lam6, lam7, lam8 = Partition((3, 3)), Partition((4, 3)), Partition((4, 4))
    e6, e7 = sym.e_lambda(lam6), sym.e_lambda(lam7)
    first_row_block = _chain(lambda x: sym._block_action(x, 4, 0, S))
    a6, b6, ft6 = sym.symmetrizer(6), sym.antisymmetrizer(6), central.full_twist(6)
    e1x6 = sym.e_lambda(Partition((1,) * 6))
    w = HeckeElement.basis_element(6, LONG_BRAID)
    w0 = HeckeElement.basis_element(6, LONGEST)
    y = HeckeElement(6, SPARSE_Y)
    out = {
        "mul_generator_s6": _every_generator(e6),
        "mul_generator_s7": _every_generator(e7),
        "block_action_43": lambda: first_row_block(e7),
        "long_braid_a6": lambda: w * a6,
        "a6_long_braid": lambda: a6 * w,
        "long_braid_b6": lambda: w * b6,
        "b6_long_braid": lambda: b6 * w,
        "long_braid_ft6": lambda: w0 * ft6,
        "ft6_long_braid": lambda: ft6 * w0,
        "e6_long_braid": lambda: e6 * w,
        "e6_sparse": lambda: e6 * y,
        "left_fold_33": lambda: y * e6,
        "ft_left_33": lambda: ft6 * e6,
        "sparse_e1x6": lambda: y * e1x6,
        "e1x6_sparse": lambda: e1x6 * y,
        "alpha_extract_43": lambda: sym.alpha_extract(lam7),
        "twist_eigenvalue_43": lambda: central.twist_eigenvalue(lam7),
        "alpha_extract_44": lambda: sym.alpha_extract(lam8),
        "twist_44": lambda: central.twist_eigenvalue(lam8),
        "build_43": lambda: sym.e_lambda(lam7),
        "build_7": lambda: sym.e_lambda(Partition((7,))),
        "build_2x1x5": lambda: sym.e_lambda(Partition((2, 1, 1, 1, 1, 1))),
        "build_1x7": lambda: sym.e_lambda(Partition((1,) * 7)),
        "build_2x1x6": lambda: sym.e_lambda(Partition((2,) + (1,) * 6)),
        "build_all_7": _build_all(7),
        "build_read_7": _build_read(7),
        "row_element_8": lambda: sym.row_element(Partition((8,))),
        "expand_8": _lazy(lambda: sym.e_lambda(Partition((8,)))._ck.expanded),
        "one_dimensional_8": lambda: (sym.symmetrizer(8), sym.antisymmetrizer(8)),
        "strand_checks_5": lambda: invariants.strand_checks(5),
        "strand_checks_8": lambda: invariants.strand_checks(8),
        "closed_forms_8": _closed_forms(8),
        "verify_main_5": lambda: _verify_main(5),
    }
    shapes = {"44": (4, 4), "8": (8,), "1x8": (1,) * 8, "2x1x6": (2,) + (1,) * 6}
    for tag, parts in shapes.items():
        lam = Partition(parts)
        out[f"start_{tag}"] = lambda lam=lam: sym._own_table(lam)
        out[f"square_{tag}"] = _lazy(lambda lam=lam: _square(lam))
        out[f"twist_table_{tag}"] = _lazy(lambda lam=lam: _twist(lam))
    for tag, parts in {"2x2x2x2": (2, 2, 2, 2), "1x8": (1,) * 8}.items():
        out[f"sign_table_{tag}"] = lambda side=sym._side(Partition(parts), False): sym._table(side)
    for tag, parts in {"4x4": (4, 4), "2x2x2x2": (2, 2, 2, 2)}.items():
        out[f"classical_{tag}"] = _lazy(lambda lam=Partition(parts): _classical(lam))
    return out


def _time_layer(name: str, repeat: int) -> dict[str, float]:
    """One layer's median seconds, raw and at reference speed."""
    run = layers()[name]
    run()
    times, scaled = [], []
    for _ in range(repeat):
        t0 = perf_counter()
        run()
        times.append(perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_NOMINAL_S / reference_loop())
    return {"s": statistics.median(times), "at_ref_s": statistics.median(scaled)}


def measure(repeat: int) -> dict[str, dict[str, float]]:
    """Every layer's timings, each layer in a fresh process, one at a time."""
    os.environ.update(FIXED_MALLOC)  # read by each spawned process's C library at start
    spawn = multiprocessing.get_context("spawn")
    out = {}
    for name in layers():
        with spawn.Pool(1) as pool:
            out[name] = pool.apply(_time_layer, (name, repeat))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=9, help="timed calls per layer")
    args = parser.parse_args()
    print(json.dumps(measure(args.repeat)))


if __name__ == "__main__":
    main()
