"""
Command-line front end.

Commands mirror the library: ``sym``/``antisym`` print the one-row and
one-column elements, ``elam``/``alpha`` build a symmetrizer and report its
squaring scalar (extracted and closed-form, with a match flag), ``twist``
reports the full-twist eigenvalue, ``mul`` multiplies two elements stored in
the machine format, and ``verify`` reruns the identity suite up to a size
bound.

Exit codes: 0 success, 1 a verified identity failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Iterable, Optional, Sequence

from . import central, symmetrizers
from . import permutations as perms
from .errors import NotEigenvector, NotQuasiIdempotent, TooLarge
from .hecke import HeckeElement
from .laurent import LaurentPoly, S
from .partitions import Partition, all_partitions
from .permutations import Perm


def _render_q_power(value: LaurentPoly) -> str:
    """Monomials with even exponent print as a power of q = s^2."""
    if value.is_monomial() and value.coeffs[0] == 1 and value.val % 2 == 0:
        return "1" if value.val == 0 else f"q^{value.val // 2}"
    return str(value)


def _print_element(elem: HeckeElement, fmt: str) -> None:
    if fmt == "machine":
        print(json.dumps(elem.to_machine()))
    else:
        print(elem)


def _cmd_symmetrizer(args: argparse.Namespace, anti: bool) -> int:
    if args.n < 1:
        print(f"error: need a strand count >= 1, got {args.n}", file=sys.stderr)
        return 2
    build = symmetrizers.antisymmetrizer if anti else symmetrizers.symmetrizer
    guard = args.max_strands if args.max_strands else symmetrizers.DEFAULT_MAX_ROW
    _print_element(build(args.n, max_n=guard), args.format)
    return 0


def _cmd_elam(args: argparse.Namespace, with_element: bool) -> int:
    lam = Partition.parse(args.partition)
    guard = args.max_strands if args.max_strands else symmetrizers.DEFAULT_MAX_CELLS
    qi = symmetrizers.alpha_extract(lam, max_cells=guard)
    closed = symmetrizers.alpha_closed_form(lam)
    match = qi.alpha == closed
    if args.format == "machine":
        payload = {
            "lambda": list(lam.parts),
            "alpha": qi.alpha.pairs(),
            "alpha_closed_form": closed.pairs(),
            "match": match,
        }
        if with_element:
            payload["element"] = qi.element.to_machine()
        print(json.dumps(payload))
    else:
        if with_element:
            print(f"e = {qi.element}")
        print(f"alpha = {qi.alpha}")
        print(f"alpha_closed_form = {closed}")
        print(f"match = {'yes' if match else 'no'}")
    return 0 if match else 1


def _cmd_twist(args: argparse.Namespace) -> int:
    lam = Partition.parse(args.partition)
    guard = args.max_strands if args.max_strands else symmetrizers.DEFAULT_MAX_CELLS
    tau = central.twist_eigenvalue(lam, max_cells=guard)
    exponent = central.twist_exponent(lam)
    match = tau == LaurentPoly.monomial(exponent)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "lambda": list(lam.parts),
                    "tau": tau.pairs(),
                    "closed_form_exponent": exponent,
                    "match": match,
                }
            )
        )
    else:
        print(f"tau = {_render_q_power(tau)}")
        print(f"closed_form = {_render_q_power(LaurentPoly.monomial(exponent))}")
        print(f"match = {'yes' if match else 'no'}")
    return 0 if match else 1


def _cmd_mul(args: argparse.Namespace) -> int:
    elems = []
    for path in (args.left, args.right):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply") from None
        elems.append(HeckeElement.from_machine(data))
    _print_element(elems[0] * elems[1], args.format)
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


# -- the verify command -------------------------------------------------------


def _group_product(x: dict[Perm, int], y: dict[Perm, int]) -> dict[Perm, int]:
    out: dict[Perm, int] = {}
    for p, a in x.items():
        for q, b in y.items():
            r = perms.compose(p, q)
            c = out.get(r, 0) + a * b
            if c:
                out[r] = c
            else:
                del out[r]
    return out


def _block_permutations(blocks: list[list[int]], n: int) -> Iterable[Perm]:
    """All permutations fixing each block of labels setwise."""
    pools = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*pools):
        images = list(range(1, n + 1))
        for block, reordered in zip(blocks, choice):
            for label, image in zip(block, reordered):
                images[label - 1] = image
        yield tuple(images)


def _classical_symmetrizer(lam: Partition) -> dict[Perm, int]:
    """Row-sum times signed column-sum of the row-reading tableau."""
    n = lam.n
    numbering = {cell: k for k, cell in enumerate(lam.cells(), start=1)}
    rows = [
        [numbering[(i, j)] for j in range(1, part + 1)]
        for i, part in enumerate(lam.parts, start=1)
    ]
    cols = [
        [numbering[(i, j)] for i in range(1, height + 1)]
        for j, height in enumerate(lam.conjugate().parts, start=1)
    ]
    row_sum = {p: 1 for p in _block_permutations(rows, n)}
    col_sum = {p: perms.sign(p) for p in _block_permutations(cols, n)}
    return _group_product(row_sum, col_sum)


def _verify(max_n: int, guard: int) -> int:
    failures: list[str] = []

    def check(ok: bool, name: str) -> None:
        if not ok:
            failures.append(name)
            print(f"FAIL  {name}")

    for n in range(2, max_n + 1):
        an = symmetrizers.symmetrizer(n)
        bn = symmetrizers.antisymmetrizer(n)
        neg_sinv = LaurentPoly.monomial(-1, -1)
        for i in range(1, n):
            g = HeckeElement.generator(n, i)
            check(
                g * an == an.scale(S) and an * g == an.scale(S),
                f"eigen-relation for the row element, n={n}, i={i}",
            )
            check(
                g * bn == bn.scale(neg_sinv) and bn * g == bn.scale(neg_sinv),
                f"eigen-relation for the column element, n={n}, i={i}",
            )
        ft = central.full_twist(n)
        for i in range(1, n):
            g = HeckeElement.generator(n, i)
            check(ft * g == g * ft, f"full-twist centrality, n={n}, i={i}")
        if failures:
            break

    taus: dict[tuple[int, ...], LaurentPoly] = {}
    for k in range(1, max_n + 1):
        if failures:
            break
        for lam in all_partitions(k):
            started = time.perf_counter()
            qi = symmetrizers.alpha_extract(lam, max_cells=guard)
            check(
                qi.alpha == symmetrizers.alpha_closed_form(lam),
                f"alpha closed form, lambda={lam}",
            )
            hooks = 1
            for h in lam.hook_lengths():
                hooks *= h
            check(
                qi.alpha.eval_at_one() == hooks,
                f"alpha at s=1 vs hook product, lambda={lam}",
            )
            tau = central.twist_eigenvalue(lam, max_cells=guard)
            taus[lam.parts] = tau
            check(
                tau == LaurentPoly.monomial(central.twist_exponent(lam)),
                f"twist eigenvalue closed form, lambda={lam}",
            )
            check(tau.eval_at_one() == 1, f"twist eigenvalue at s=1, lambda={lam}")
            conj = lam.conjugate().parts
            if conj in taus:
                check(
                    taus[conj] == tau.invert_variable(),
                    f"twist conjugation symmetry, lambda={lam}",
                )
            if k <= 4:
                check(
                    qi.element.specialize_at_one() == _classical_symmetrizer(lam),
                    f"classical limit vs group-algebra symmetrizer, lambda={lam}",
                )
            print(f"ok    lambda={str(lam):12s} ({time.perf_counter() - started:.2f}s)")
            if failures:
                break

    if failures:
        print(f"verification failed: {failures[0]}")
        return 1
    print("all invariants verified")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    guard = args.max_strands if args.max_strands else symmetrizers.DEFAULT_MAX_CELLS
    if args.max_n > guard:
        print(
            f"error: verify up to {args.max_n} exceeds the guard of {guard} "
            "(raise --max-strands deliberately if you mean it)",
            file=sys.stderr,
        )
        return 2
    if args.max_n < 1:
        print(f"error: need a bound >= 1, got {args.max_n}", file=sys.stderr)
        return 2
    return _verify(args.max_n, guard)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output as readable text or as JSON (default: text)",
    )
    common.add_argument(
        "--max-strands",
        type=_positive_int,
        default=None,
        metavar="K",
        help="override the size guards (default: 7 cells, 8 strands per row)",
    )

    parser = argparse.ArgumentParser(
        prog="qyoung",
        description="Exact q-Young symmetrizers in the type-A Hecke algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sym", parents=[common], help="print the one-row element")
    p.add_argument("n", type=int)
    p.set_defaults(func=lambda a: _cmd_symmetrizer(a, anti=False))

    p = sub.add_parser("antisym", parents=[common], help="print the one-column element")
    p.add_argument("n", type=int)
    p.set_defaults(func=lambda a: _cmd_symmetrizer(a, anti=True))

    p = sub.add_parser(
        "elam", parents=[common], help="symmetrizer of a diagram plus its scalar"
    )
    p.add_argument("partition", help='comma-separated parts, e.g. "3,2,1"')
    p.set_defaults(func=lambda a: _cmd_elam(a, with_element=True))

    p = sub.add_parser(
        "alpha", parents=[common], help="squaring scalar only, extracted and closed form"
    )
    p.add_argument("partition")
    p.set_defaults(func=lambda a: _cmd_elam(a, with_element=False))

    p = sub.add_parser(
        "twist", parents=[common], help="full-twist eigenvalue on a symmetrizer"
    )
    p.add_argument("partition")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser(
        "mul", parents=[common], help="multiply two machine-format elements"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser(
        "verify", parents=[common], help="rerun the identity suite up to a size"
    )
    p.add_argument("max_n", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TooLarge, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotQuasiIdempotent, NotEigenvector) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
