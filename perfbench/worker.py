"""
One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode MODE

``run.py`` starts this script; it is not meant to be run by hand.  The
worker imports the package from ``src/`` of the checkout it sits in, makes
the seeded inputs and runs one untimed warm-up item, then prints ``ready``.
Mode ``setup`` stops there.  Mode ``measure`` then runs whole passes until
``--seconds`` have gone by, timing a fixed reference loop after each pass,
and prints one JSON line with the item latencies and the reference times.
Mode ``trace`` measures the same way, then runs one more pass with the layer
tracer installed around each item, and adds the per-layer metrics.

Only the operation of an item is timed; its check runs after the clock
stops.  An item whose operation raises or whose check fails is counted as
failed and contributes no latency sample.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import resource
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import qyoung  # noqa: E402

if not pathlib.Path(qyoung.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"imported qyoung from {qyoung.__file__}, not from {ROOT / 'src'}")

import tracer  # noqa: E402
import workloads  # noqa: E402

# The reference loop is timed REFERENCE_PER_PASS times after every pass to
# follow the machine's speed.
REFERENCE_PER_PASS = 3


class Tally:
    """Latency samples and failures of one phase."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, item: workloads.Item, before=None, after=None) -> float:
        """Time the item's operation, check its result; return the seconds timed."""
        self.attempted += 1
        if before:
            before()
        t0 = perf_counter()
        try:
            result = item.op()
        except Exception as exc:
            self.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
            return 0.0
        finally:
            elapsed = perf_counter() - t0
            if after:
                after()
        try:
            ok = item.check(result)
        except Exception as exc:
            self.failures.append(f"{item.label}: check raised {type(exc).__name__}: {exc}")
            return elapsed
        if ok:
            self.samples.append(elapsed)
        else:
            self.failures.append(f"{item.label}: wrong result")
        return elapsed


class _Term:
    __slots__ = ("val", "coeffs")

    def __init__(self, val: int, coeffs: tuple[int, ...]) -> None:
        self.val, self.coeffs = val, coeffs

    def __add__(self, other: "_Term") -> "_Term":
        return _Term(self.val, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))


def reference_loop() -> float:
    """
    Seconds taken by a fixed mix of pure-Python work of the kinds qyoung
    does (integer arithmetic, tuple-keyed dicts, coefficient convolution,
    small immutable objects), written here so that no change to the package
    changes it.  Each part takes about a quarter of the time.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    table: dict[tuple[int, int, int], int] = {}
    for i in range(6_000):
        key = (i % 5, i % 7, i % 11)
        table[key] = table.get(key, 0) + i * 3 // 7
    a, b = tuple(range(-8, 9)), tuple(range(3, 20))
    for _ in range(80):
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
    term, step = _Term(0, (1, 2, 3, 4)), _Term(0, (2, 1, 0, -1))
    for _ in range(1_800):
        term = term + step
    return perf_counter() - t0


def measure(work: workloads.Workload, seconds: float) -> tuple[Tally, list[float], list[float]]:
    """
    Whole passes until ``seconds`` have gone by.  Also returns each pass's
    timed seconds and the reference loop times.
    """
    tally = Tally()
    pass_s = []
    ref_s = []
    start = perf_counter()
    for k in itertools.count():
        pass_s.append(sum(tally.run(item) for item in work.items(k)))
        ref_s += [reference_loop() for _ in range(REFERENCE_PER_PASS)]
        if perf_counter() - start >= seconds:
            return tally, pass_s, ref_s


def traced_pass(items: list[workloads.Item]) -> tuple[Tally, float, tracer.Tracer]:
    """
    One pass with the wrappers installed for the operation of each item only.
    Pass 0 again, so the exact counts do not depend on how many passes the
    untraced phase ran.
    """
    tr = tracer.Tracer()
    tally = Tally()
    total = 0.0
    for idx, item in enumerate(items):
        tr.item = idx
        total += tally.run(item, before=tr.install, after=tr.uninstall)
    return tally, total, tr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spans", type=pathlib.Path, help="trace mode: write spans here")
    args = parser.parse_args()

    tracer.assert_pristine()
    work = workloads.make(args.workload, args.seed)
    warm = Tally()
    warm.run(work.warmup)
    if warm.failures:
        print(f"warm-up failed: {warm.failures[0]}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tally, pass_s, ref_s = measure(work, args.seconds)
    tracer.assert_pristine()
    out = {
        "samples": tally.samples,
        "ref_s": ref_s,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "pass_s": pass_s,
        "items_per_pass": len(work.items(0)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.mode == "trace":
        traced, traced_s, tr = traced_pass(work.items(0))
        tracer.assert_pristine()
        out["attempted"] += traced.attempted
        out["failures"] += traced.failures
        metrics = tr.metrics()
        metrics["trace.overhead_frac"] = traced_s / statistics.median(pass_s) - 1
        out["metrics"] = metrics
        out["spans"] = len(tr.spans)
        if args.spans:
            tr.write_spans(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
