"""
Per-layer timings of the generator kernel, for the committed BENCH_*.json files.

Measures whatever ``qyoung`` is importable, so one script times two trees:

    PYTHONPATH=src python3 tools/bench_kernel.py --repeat 9

prints one JSON object mapping each layer to ``{"s": ..., "at_ref_s": ...}``:
its median seconds over the repeats (one call per repeat, after one untimed
warm-up call that fills the lazy caches), and the median of the same calls
scaled to reference speed.  A fixed reference loop of pure-Python work is
timed after every call, and each call's time is multiplied by
REFERENCE_NOMINAL_S over the loop's, so that a host running slower or
faster from one run to the next does not read as a difference between
trees.  Compare ``at_ref_s`` between two trees.  The layers:

- ``mul_generator_s6`` / ``mul_generator_s7``: g_i and g_i^-1 for every i,
  applied to e_lambda of (3,3) (504 of 720 terms) and of (4,3) (2016 of
  5040 terms), each as a lone ``HeckeElement.mul_generator`` call;
- ``block_action_43``: the first row block of squaring e_lambda (4,3), as
  one chain from the element to the element;
- ``long_braid_a6`` / ``a6_long_braid``: the products w_p * a_6 and
  a_6 * w_p for p = LONG_BRAID, of length 9, and ``long_braid_ft6``: the
  product w_p * ft_6 for the longest p, of length 15.  The side rule
  expands the one-term w_p, through iota when it is the left factor and
  directly when it is the right one, so these layers time both branches;
- ``alpha_extract_43`` / ``twist_eigenvalue_43``: the public calls;
- ``alpha_extract_44`` / ``twist_44``: the same calls on the 8-cell diagram
  (4,4), whose e_lambda holds 24192 of the 40320 basis braids of H_8; the
  warm-up call fills the S_8 rank memos;
- ``build_43``: ``e_lambda`` of the 7-cell diagram (4,3);
- ``square_44`` / ``square_8`` / ``square_1x8`` / ``square_2x1x6`` and
  ``twist_scalar_44`` / ``twist_scalar_8`` / ``twist_scalar_1x8`` /
  ``twist_scalar_2x1x6``: squaring and twist-checking an already built
  e_lambda of (4,4), (8), (1^8) and (2,1^6), from the element to the
  extracted scalar.  The square is what ``alpha_extract`` runs after the
  build: the table of the diagram's side (on the sign side derived from e
  and restricted, every call, since each call starts from the table the
  build kept), the chain on it and the extraction against it, through
  ``symmetrizers._report_on_side``.  The twist is
  ``central.twist_scalar(e, lam)``, on the table its warm-up call kept.

The chain layer starts from the element's kept packed table and ends in an
element holding the result's (``hecke._packed`` and ``hecke._element``), so
results the layers never read are never decoded.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

from qyoung import central, hecke
from qyoung import symmetrizers as sym
from qyoung.hecke import HeckeElement
from qyoung.laurent import S
from qyoung.partitions import Partition

# A permutation of length 9 in S_6, and the longest one, of length 15.
LONG_BRAID = (3, 6, 4, 1, 5, 2)
LONGEST = (6, 5, 4, 3, 2, 1)
# The reference loop's seconds at reference speed: about its time on a
# 2-core host running CPython 3.11.7.
REFERENCE_NOMINAL_S = 0.010


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
    """The square of e_lambda(lam) and its scalar, from the built element."""
    e = sym.e_lambda(lam)
    built = e._ck  # the coset table the build kept, if any

    def run():
        e._ck = built
        return sym._report_on_side(
            e, lam, lambda h, row: sym._mul_symmetrizer(h, lam, row), lambda r: r.proportional
        )

    return run


def _twist(lam):
    e = sym.e_lambda(lam)
    return lambda: central.twist_scalar(e, lam)


def layers() -> dict:
    lam6, lam7, lam8 = Partition((3, 3)), Partition((4, 3)), Partition((4, 4))
    e6, e7 = sym.e_lambda(lam6), sym.e_lambda(lam7)
    first_row_block = _chain(lambda x: sym._block_action(x, 4, 0, S))
    a6, ft6 = sym.symmetrizer(6), central.full_twist(6)
    w = HeckeElement.basis_element(6, LONG_BRAID)
    w0 = HeckeElement.basis_element(6, LONGEST)
    out = {
        "mul_generator_s6": _every_generator(e6),
        "mul_generator_s7": _every_generator(e7),
        "block_action_43": lambda: first_row_block(e7),
        "long_braid_a6": lambda: w * a6,
        "a6_long_braid": lambda: a6 * w,
        "long_braid_ft6": lambda: w0 * ft6,
        "alpha_extract_43": lambda: sym.alpha_extract(lam7),
        "twist_eigenvalue_43": lambda: central.twist_eigenvalue(lam7),
        "alpha_extract_44": lambda: sym.alpha_extract(lam8),
        "twist_44": lambda: central.twist_eigenvalue(lam8),
        "build_43": lambda: sym.e_lambda(lam7),
    }
    shapes = {"44": (4, 4), "8": (8,), "1x8": (1,) * 8, "2x1x6": (2,) + (1,) * 6}
    for tag, parts in shapes.items():
        lam = Partition(parts)
        out[f"square_{tag}"] = _lazy(lambda lam=lam: _square(lam))
        out[f"twist_scalar_{tag}"] = _lazy(lambda lam=lam: _twist(lam))
    return out


def measure(repeat: int) -> dict[str, dict[str, float]]:
    out = {}
    for name, run in layers().items():
        run()
        times, scaled = [], []
        for _ in range(repeat):
            t0 = perf_counter()
            run()
            times.append(perf_counter() - t0)
            scaled.append(times[-1] * REFERENCE_NOMINAL_S / reference_loop())
        out[name] = {"s": statistics.median(times), "at_ref_s": statistics.median(scaled)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=9, help="timed calls per layer")
    args = parser.parse_args()
    print(json.dumps(measure(args.repeat)))


if __name__ == "__main__":
    main()
