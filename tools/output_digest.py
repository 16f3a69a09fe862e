"""
SHA-256 digests of qyoung's outputs, to show that a change keeps them
byte-identical.

Measures whatever ``qyoung`` is importable, so one script checks two trees:

    PYTHONPATH=src python3 tools/output_digest.py 8

prints one JSON object mapping each output to the sha256 of its canonical
JSON over every diagram of at most N cells, in the order of
``all_partitions``:

- ``e_lambda``, ``row_element``, ``column_element``: their ``to_machine``;
- ``alpha_extract``: the ``to_machine`` of the ``QuasiIdempotent``, its
  element expanded;
- ``tau``: the ``pairs`` of ``twist_eigenvalue``;
- ``verify``: the stdout of ``qyoung verify N --format machine``, each
  line's ``seconds`` masked to null.

``tests/test_digests.py`` pins these digests; a change that moves one
changes an output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json

from qyoung import central, cli
from qyoung import symmetrizers as sym
from qyoung.partitions import all_partitions

OUTPUTS = {
    "e_lambda": lambda lam: sym.e_lambda(lam).to_machine(),
    "alpha_extract": lambda lam: sym.alpha_extract(lam).to_machine(),
    "tau": lambda lam: central.twist_eigenvalue(lam).pairs(),
    "row_element": lambda lam: sym.row_element(lam).to_machine(),
    "column_element": lambda lam: sym.column_element(lam).to_machine(),
}


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verify_stdout(n: int) -> list[str]:
    """The lines ``qyoung verify n --format machine`` prints, seconds masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", str(n), "--format", "machine"])
    lines = []
    for line in out.getvalue().splitlines():
        record = json.loads(line)
        if "seconds" in record:
            record["seconds"] = None
        lines.append(json.dumps(record))
    return lines


def digests(n: int) -> dict[str, str]:
    """The sha256 of each output over every diagram of at most n cells."""
    diagrams = [lam for k in range(1, n + 1) for lam in all_partitions(k)]
    out = {
        name: _sha([json.dumps(make(lam), sort_keys=True) for lam in diagrams])
        for name, make in OUTPUTS.items()
    }
    out["verify"] = _sha(verify_stdout(n))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the largest number of cells")
    args = parser.parse_args()
    print(json.dumps(digests(args.n), indent=1))


if __name__ == "__main__":
    main()
