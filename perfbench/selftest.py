"""
Self-tests of the benchmark harness itself.

    python3 perfbench/selftest.py

Checks, in order:

1. Failure accounting: for each workload, the checker accepts the real
   result of the warm-up item and rejects a corrupted one (a nonzero exit
   code, one extra basis term); a corrupted or raising item is counted as
   failed and gives no latency sample.
2. Trace isolation: installing the tracer replaces the package's functions,
   uninstalling restores the very same objects, and ``assert_pristine``
   tells the two states apart.
3. The metric names and units ``run.py`` prints are the ones
   ``BENCHMARK.json`` declares.
4. Count determinism: two traced runs with the same seed, one measuring
   for 1 s and one for 3 s before the traced pass, report identical exact
   counts; a different seed on products6 changes the inputs but not the
   number of items.

Exits 0 when every check passes, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

import worker  # first: it puts the checkout's src/ on the import path
import tracer
import workloads
from qyoung.hecke import HeckeElement
from qyoung.laurent import LaurentPoly

EXACT_COUNTS = (
    "laurent.add_calls", "laurent.mul_calls", "laurent.div_calls",
    "laurent.max_width", "laurent.max_abs_coeff", "permutations.calls",
    "hecke.gen_apps", "hecke.terms_touched", "hecke.product_calls", "hecke.peak_support",
)


class SelfTestFailure(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestFailure(what)


def corrupt(result):
    """A result that is wrong in a way each workload's check must notice."""
    if isinstance(result, int):
        return 1
    identity = tuple(range(1, result.n + 1))
    return result + HeckeElement(result.n, {identity: LaurentPoly.monomial(0)})


def test_failure_accounting() -> None:
    for name in workloads.WORKLOADS:
        item = workloads.make(name, 1).warmup
        real = item.op()
        require(item.check(real), f"{name}: the checker rejects a correct result")
        bad = workloads.Item(item.label, lambda: corrupt(real), item.check)
        tally = worker.Tally()
        tally.run(bad)
        require(
            tally.attempted == 1 and len(tally.failures) == 1 and not tally.samples,
            f"{name}: a corrupted result was not counted as failed",
        )

        def boom():
            raise ArithmeticError("injected")

        tally.run(workloads.Item("raises", boom, item.check))
        require(
            tally.attempted == 2 and len(tally.failures) == 2 and not tally.samples,
            f"{name}: a raising item was not counted as failed",
        )
        print(f"PASS  failure accounting, {name}")


def test_trace_isolation() -> None:
    import qyoung.central as central
    import qyoung.permutations as perms

    originals = (LaurentPoly.__add__, HeckeElement.__mul__, perms.reduced_word, central.e_lambda)
    tracer.assert_pristine()
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = (LaurentPoly.__add__, HeckeElement.__mul__, perms.reduced_word, central.e_lambda)
        require(all(w is not o for w, o in zip(wrapped, originals)), "install left a name unwrapped")
        try:
            tracer.assert_pristine()
        except RuntimeError:
            pass
        else:
            raise SelfTestFailure("assert_pristine passed with wrappers installed")
        HeckeElement.generator(3, 1) * HeckeElement.generator(3, 2)
    finally:
        tr.uninstall()
    tracer.assert_pristine()
    restored = (LaurentPoly.__add__, HeckeElement.__mul__, perms.reduced_word, central.e_lambda)
    require(all(r is o for r, o in zip(restored, originals)), "uninstall did not restore the originals")
    require(tr.gen_apps > 0 and tr.count("hecke.HeckeElement.__mul__") == 1, "the traced product was not counted")
    print("PASS  trace isolation")


def test_declared_metrics() -> None:
    import run

    declared = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        require(listed == units, f"BENCHMARK.json {section} does not match run.py: {listed} vs {units}")
    print("PASS  BENCHMARK.json declares the metrics run.py prints")


def traced_counts(name: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(worker.ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=worker.ROOT, capture_output=True, text=True, timeout=180,
    )
    require(done.returncode == 0, f"traced {name} run failed:\n{done.stderr}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in EXACT_COUNTS}


def test_count_determinism() -> None:
    for name in ("products6", "build7", "verify5"):
        first, second = traced_counts(name, 7, 1), traced_counts(name, 7, 3)
        require(first == second, f"{name}: counts differ between two runs with seed 7: {first} {second}")
        print(f"PASS  exact counts repeat, {name} (hecke.gen_apps = {first['hecke.gen_apps']})")
    one, two = workloads.make("products6", 1).items(0), workloads.make("products6", 2).items(0)
    require(len(one) == len(two), "products6: the item count depends on the seed")
    require(
        sorted(i.label for i in one) != sorted(i.label for i in two),
        "products6: a different seed gave the same inputs",
    )
    print(f"PASS  products6 seeds 1 and 2: different inputs, {len(one)} items each")


def main() -> int:
    try:
        test_failure_accounting()
        test_trace_isolation()
        test_declared_metrics()
        test_count_determinism()
    except SelfTestFailure as exc:
        print(f"FAIL  {exc}")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
