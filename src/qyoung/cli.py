"""
Command-line front end.

Commands mirror the library: ``sym``/``antisym`` print the one-row and
one-column elements, ``elam``/``alpha`` build a symmetrizer and report its
squaring scalar (extracted and closed-form, with a match flag), ``twist``
reports the full-twist eigenvalue, ``mul`` multiplies two elements stored in
the machine format, and ``verify`` runs the named invariants of
``qyoung.invariants`` (the list the acceptance tests run too) for every
strand count and diagram up to a size bound, stopping at the first strand
count or diagram with a failed check.  With ``--format machine`` it prints
one JSON object per strand count and per diagram (``n`` or ``lambda``,
``side``: the side of the diagram's coset tables, ``"row"`` or ``"sign"``,
null for a strand count, ``seconds`` and ``checks``: a list of
``{name, ok}``), then ``{ok, failed}`` with the names of the failed checks.
Every diagram's checks end with the classical limit, on 7 and 8 cells too:
it is read off the side's coset table, and no e_lambda is expanded.

Every command but ``mul`` refuses more than 8 strands or cells before it
builds anything (``permutations.check_size``, the one size guard).

Exit codes: 0 success, 1 a verified identity failed, 2 usage or parse error.

``main`` builds its parser once per process and reuses it on every call;
parsing keeps nothing from one call to the next.  Each command is bound
by name and its ``_cmd_*`` function looked up when it runs, so a
replaced one is the one reached.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from . import central, invariants, symmetrizers
from . import permutations as perms
from .errors import NotEigenvector, NotQuasiIdempotent, TooLarge
from .hecke import HeckeElement
from .laurent import LaurentPoly
from .partitions import Partition, all_partitions


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
    _print_element(build(args.n), args.format)
    return 0


def _cmd_elam(args: argparse.Namespace, with_element: bool) -> int:
    lam = Partition.parse(args.partition)
    qi = symmetrizers.alpha_extract(lam)
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
    tau = central.twist_eigenvalue(lam)
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


# -- the verify command -------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    perms.check_size(f"verify {args.max_n}", args.max_n)
    if args.max_n < 1:
        print(f"error: need a bound >= 1, got {args.max_n}", file=sys.stderr)
        return 2
    machine = args.format == "machine"

    def record(checks: list[tuple[str, bool]], started: float, **what) -> list[str]:
        """
        Print the checks of one strand count or diagram: in text mode a
        FAIL line for each that did not hold, in machine mode one JSON
        object.  Returns the names of the failed checks.
        """
        failed = [name for name, ok in checks if not ok]
        if machine:
            what["seconds"] = round(time.perf_counter() - started, 6)
            what["checks"] = [{"name": name, "ok": ok} for name, ok in checks]
            print(json.dumps(what))
        else:
            for name in failed:
                print(f"FAIL  {name}")
        return failed

    failures: list[str] = []
    for n in range(2, args.max_n + 1):
        started = time.perf_counter()
        failures = record(invariants.strand_checks(n), started, n=n, side=None)
        if failures:
            break

    taus: dict[tuple[int, ...], LaurentPoly] = {}
    for k in range(1, args.max_n + 1):
        if failures:
            break
        for lam in all_partitions(k):
            started = time.perf_counter()
            side = "row" if symmetrizers._own_side(lam).row else "sign"
            checks = invariants.diagram_checks(lam, taus)
            failures = record(checks, started, **{"lambda": list(lam.parts), "side": side})
            if failures:
                break
            if not machine:
                print(f"ok    lambda={str(lam):12s} ({time.perf_counter() - started:.2f}s)")

    if machine:
        print(json.dumps({"ok": not failures, "failed": failures}))
    elif failures:
        print(f"verification failed: {failures[0]}")
    else:
        print("all invariants verified")
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other error."""

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    """
    A fresh parser.  Every command's ``func`` calls its ``_cmd_*`` through
    the module's globals, so that a parser built once reaches the function
    bound at call time.
    """
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output as readable text or as JSON (default: text)",
    )

    parser = _Parser(
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
    p.set_defaults(func=lambda a: _cmd_twist(a))

    p = sub.add_parser(
        "mul", parents=[common], help="multiply two machine-format elements"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=lambda a: _cmd_mul(a))

    p = sub.add_parser(
        "verify", parents=[common], help="rerun the identity suite up to a size"
    )
    p.add_argument("max_n", type=int)
    p.set_defaults(func=lambda a: _cmd_verify(a))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call in the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
