"""
Acceptance gate: every exit criterion, exact equality, with its time budget.

Each test is one criterion and prints its own pass line (visible with -s);
budgets are asserted, not aspirational.  The 6-, 7- and 8-cell gates and
the memory gate of ``qyoung verify 8`` are the slow suite; deselect them
with -m 'not slow' when iterating.

The eigen-relations, full-twist centrality, closed forms, twist eigenvalues
and classical limit are the named checks of ``qyoung.invariants``, the same
list ``qyoung verify`` runs; the tests here assert that every check holds.
What ``verify`` does not check (the general product e * e, the basis
relations, the band product, the sandwich property and the slow gates) is
asserted here directly.
"""

import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import qyoung
from qyoung import invariants
from qyoung import permutations as perms
from qyoung.central import full_twist, murphy, twist_eigenvalue
from qyoung.hecke import HeckeElement, extract_scalar
from qyoung.laurent import LaurentPoly, ONE, S
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import alpha_closed_form, alpha_extract, e_lambda


def partitions_up_to(k_max):
    for k in range(1, k_max + 1):
        yield from all_partitions(k)


def failed(checks):
    """The names of the checks that did not hold."""
    return [name for name, ok in checks if not ok]


def report(name, started, budget):
    elapsed = time.monotonic() - started
    print(f"PASS  {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_basis_and_counting():
    started = time.monotonic()
    for n in range(2, 7):
        for i in range(1, n):
            g = HeckeElement.generator(n, i)
            z_term = g.scale(S - S**-1)
            assert g * g == HeckeElement.unit(n) + z_term
        for i in range(1, n - 1):
            a, b = HeckeElement.generator(n, i), HeckeElement.generator(n, i + 1)
            assert a * b * a == b * a * b
        for i, j in itertools.combinations(range(1, n), 2):
            if j - i >= 2:
                gi, gj = HeckeElement.generator(n, i), HeckeElement.generator(n, j)
                assert gi * gj == gj * gi
    for n in range(1, 8):
        q_factorial = ONE
        for k in range(1, n + 1):
            q_factorial = q_factorial * LaurentPoly.from_pairs(
                (2 * j, 1) for j in range(k)
            )
        enumerated = LaurentPoly.from_pairs(
            (2 * perms.length(p), 1) for p in perms.all_permutations(n)
        )
        assert enumerated == q_factorial
    report("basis and counting (relations n<=6, q-factorial n<=7)", started, 10)


def test_eigen_relations():
    started = time.monotonic()
    for n in range(2, 7):
        assert failed(invariants.strand_checks(n)) == []
    report("eigen-relations and full-twist centrality, n<=6", started, 30)


def test_quasi_idempotency():
    started = time.monotonic()
    for lam in partitions_up_to(5):
        qi = alpha_extract(lam)
        assert qi.element * qi.element == qi.element.scale(qi.alpha)
        assert not qi.alpha.is_zero()
    report("quasi-idempotency by the general product, |cells|<=5", started, 60)


def test_diagram_invariants():
    started = time.monotonic()
    taus = {}
    for lam in partitions_up_to(5):
        assert failed(invariants.diagram_checks(lam, taus)) == []
    report(
        "alpha closed form and hook products, twist eigenvalues and conjugation "
        "|cells|<=5; classical limit |cells|<=5",
        started,
        60,
    )


def test_murphy_product_identity():
    started = time.monotonic()
    for n in range(2, 6):
        product = HeckeElement.unit(n)
        for j in range(2, n + 1):
            product = product * murphy(n, j)
        assert product == full_twist(n)
    report("nested-band product equals full twist, n<=5", started, 60)


def test_sandwich_property():
    started = time.monotonic()
    rng = random.Random(97)
    for lam in partitions_up_to(4):
        n = lam.n
        e = e_lambda(lam)
        for _ in range(20):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            x = HeckeElement.basis_element(n, tuple(images))
            assert extract_scalar(e, e * x * e).proportional
    report("sandwich property, 20 random braids per diagram, |cells|<=4", started, 60)


@pytest.mark.slow
def test_performance_gate_six_cells():
    started = time.monotonic()
    for lam in all_partitions(6):
        qi = alpha_extract(lam)
        assert qi.alpha == alpha_closed_form(lam)
        assert not qi.alpha.is_zero()
    report("slow suite: quasi-idempotency at 6 cells", started, 900)


@pytest.mark.slow
def test_performance_gate_seven_cells():
    started = time.monotonic()
    for lam in all_partitions(7):
        assert alpha_extract(lam).alpha == alpha_closed_form(lam)
        assert twist_eigenvalue(lam) == LaurentPoly.monomial(2 * sum(lam.contents()))
    report("slow suite: quasi-idempotency and twist eigenvalues at 7 cells", started, 300)


@pytest.mark.slow
def test_performance_gate_eight_cells():
    started = time.monotonic()
    for lam in all_partitions(8):
        assert alpha_extract(lam).alpha == alpha_closed_form(lam)
        assert twist_eigenvalue(lam) == LaurentPoly.monomial(2 * sum(lam.contents()))
    report("slow suite: quasi-idempotency and twist eigenvalues at 8 cells", started, 60)


# full_twist(7) * e_(4,3): 0.29-0.36 s measured (2-core host, CPython
# 3.11.7) with iota(ft_7)'s words folded onto (4,3)'s 35 coset
# representatives first; 24.3 s while they were walked over iota(e) itself.
LEFT_TWIST_SEVEN_S = 3


@pytest.mark.slow
def test_left_full_twist_on_a_seven_cell_symmetrizer():
    started = time.monotonic()
    lam = Partition((4, 3))
    e = e_lambda(lam)
    assert full_twist(7) * e == e.scale(twist_eigenvalue(lam))
    report("slow suite: full_twist(7) * e_(4,3) = tau e_(4,3)", started, LEFT_TWIST_SEVEN_S)


# The peak of `qyoung verify 8` in its own process: 103 MB measured (2-core
# host, CPython 3.11.7), set by the strand checks on 8 strands; 133 MB while
# their products copied each result into an accumulator and mirrored every
# dense factor afresh, 191 MB while every diagram ran on the row side.
VERIFY_EIGHT_PEAK_MB = 115
# Each of the two most column-heavy 8-cell diagrams: 1.1 ms and 1.8 ms
# measured on the sign side with f's table from its own chain (0.30 s and
# 0.18 s while it was derived from e_lambda's), 6.7 s and 1.7 s on the row
# side.  The bound is the aim itself.
COLUMN_HEAVY_LINE_S = 0.5

# The child's own peak, in KiB: VmHWM, which execve resets.  ru_maxrss
# keeps the peak of the process it was forked from, so under a large test
# session it reads that session's size (163 MB against a VmHWM of 13 MB for
# a child of a 163 MB process that does nothing), not verify's.  It is read
# only where /proc/self/status is missing.
_PEAK_SCRIPT = """
import resource, sys
from qyoung.cli import main
code = main(["verify", "8"])
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.slow
def test_verify_eight_memory_gate():
    started = time.monotonic()
    src = str(pathlib.Path(qyoung.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "all invariants verified"
    peak_mb = int(done.stderr.split()[-1]) / 1024
    seconds = dict(re.findall(r"^ok    lambda=(\S+) +\(([0-9.]+)s\)$", done.stdout, re.M))
    print(f"verify 8 peaked at {peak_mb:.0f} MB; (1^8) {seconds['1,1,1,1,1,1,1,1']}s")
    assert peak_mb < VERIFY_EIGHT_PEAK_MB
    for parts in ("1,1,1,1,1,1,1,1", "2,1,1,1,1,1,1"):
        assert float(seconds[parts]) < COLUMN_HEAVY_LINE_S, parts
    report("slow suite: verify 8 below its memory bound", started, 120)
