"""
The qyoung benchmark.

    python3 perfbench/run.py --workload {verify5,products6,build7} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh,
single-threaded Python processes started by this script (``worker.py``);
the harness waits on each item before starting the next, so the load is a
closed loop with one caller.

``--trace 0`` prints the end-to-end metrics.  Set-up is timed from process
start to ready (import, inputs, one warm-up item) in SETUP_RUNS fresh
processes, and the last of them goes on to measure whole passes of the
workload for ``--seconds``, timing a fixed reference loop after each pass.
Item times are reported at reference speed (see ``end_to_end``).
``--trace 1`` runs one process that measures the same way and then traces
one more pass, and prints the per-layer metrics; its spans are written to
``.perfbench_out/``.

Every line but the last is for people.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every item passed its check, 1 when one failed, and 2 when the benchmark
could not run at all (no ``src/qyoung`` or ``tests/oracles.py`` next to it,
a worker that crashed or overran its time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import select
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify5", "products6", "build7")
SETUP_RUNS = 5
# A run must end within 180 s; a worker still busy at this point is killed.
DEADLINE_S = 170.0
# Below this many samples a percentile has fewer than ten samples beyond it.
P90_MIN_SAMPLES = 100

# The reference loop's time on a machine running at reference speed; it
# takes about this long on the machine the seed-commit numbers come from.
REFERENCE_NOMINAL_S = 0.012

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s_at_ref": "1/s",
    "item_ms_p50_at_ref": "ms",
    "item_ms_p90_at_ref": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "laurent.add_calls": "count",
    "laurent.mul_calls": "count",
    "laurent.div_calls": "count",
    "laurent.self_s": "s",
    "laurent.max_width": "count",
    "laurent.max_abs_coeff": "int",
    "permutations.calls": "count",
    "permutations.self_s": "s",
    "hecke.gen_apps": "count",
    "hecke.gen_self_s": "s",
    "hecke.terms_touched": "count",
    "hecke.product_calls": "count",
    "hecke.product_self_s": "s",
    "hecke.peak_support": "count",
    "hecke.conjugate_self_s": "s",
    "hecke.extract_self_s": "s",
    "hecke.self_s": "s",
    "partitions.self_s": "s",
    "symmetrizers.build_s": "s",
    "symmetrizers.square_s": "s",
    "symmetrizers.self_s": "s",
    "central.full_twist_s": "s",
    "central.twist_action_s": "s",
    "central.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def environment(args: argparse.Namespace) -> dict:
    """Where and on what the numbers were taken; never compare across machines."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qyoung").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


class Worker:
    """One ``worker.py`` process; reading its ``ready`` line times its set-up."""

    def __init__(self, args: argparse.Namespace, mode: str, deadline: float, spans=None):
        self.deadline = deadline
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode,
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        # Fixed string hashing, so that one seed means the same work every run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0, env=env)

    def ready(self) -> float:
        """Seconds from process start until set-up finished."""
        left = self.deadline - monotonic()
        readable, _, _ = select.select([self.proc.stdout], [], [], max(left, 0.0))
        if not readable:
            raise BenchError(f"worker not set up within {DEADLINE_S:.0f} s")
        # The pipe is unbuffered, so nothing after this line is read early.
        if self.proc.stdout.readline() != b"ready\n":
            self.proc.wait(timeout=max(self.deadline - monotonic(), 1.0))
            raise BenchError(f"worker exited with code {self.proc.returncode} during set-up")
        return perf_counter() - self.started

    def result(self) -> dict:
        out, _ = self.proc.communicate(timeout=max(self.deadline - monotonic(), 1.0))
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.decode().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workers(args: argparse.Namespace, spans: pathlib.Path | None) -> tuple[list[float], dict]:
    """Set-up times of fresh processes, and the result of the last one."""
    deadline = monotonic() + DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        worker = Worker(args, "setup", deadline)
        try:
            setups.append(worker.ready())
            if worker.proc.wait(timeout=max(deadline - monotonic(), 1.0)) != 0:
                raise BenchError(f"set-up worker exited with code {worker.proc.returncode}")
        finally:
            worker.close()
    worker = Worker(args, "trace" if args.trace else "measure", deadline, spans)
    try:
        setups.append(worker.ready())
        return setups, worker.result()
    finally:
        worker.close()


def latencies(res: dict, scale: float) -> dict[str, float]:
    """Throughput and percentiles of the item latencies, each multiplied by ``scale``."""
    samples = [t * scale for t in res["samples"]]
    if not samples:
        raise BenchError("no item passed its check, so there is no latency to report")
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]
    return {
        # Verified items over their total time.
        "items_per_s": len(samples) / sum(samples),
        "item_ms_p50": statistics.median(samples) * 1000,
        "item_ms_p90": p90 * 1000,
    }


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    # The machine's speed drifts by up to 1.4x for tens of seconds at a
    # time, so wall times of runs minutes apart spread more than the bounds
    # allow.  Each item time is therefore scaled to reference speed: by
    # REFERENCE_NOMINAL_S over the mean time of the reference loop timed in
    # the same run, after every pass.
    at_ref = latencies(res, REFERENCE_NOMINAL_S / statistics.mean(res["ref_s"]))
    return {
        "setup_s": statistics.median(setups),
        **{f"{name}_at_ref": value for name, value in at_ref.items()},
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="qyoung benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "qyoung" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a checkout", file=sys.stderr)
            return 2
    env = environment(args)
    spans = None
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
    try:
        setups, res = run_workers(args, spans)
        metrics = res["metrics"] if args.trace else end_to_end(setups, res)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    samples = len(res["samples"])
    env.update(
        passes=len(res["pass_s"]),
        items_per_pass=res["items_per_pass"],
        p50_samples=samples,
        p90_samples=samples,
        reference_loop_ms=statistics.mean(res["ref_s"]) * 1000,
    )
    print(json.dumps({"env": env}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:24s} {metrics[name]!r:>24} {unit}")
    if args.trace:
        print(f"spans: {res['spans']} written to {spans.relative_to(ROOT)}")
    else:
        for name, value in latencies(res, 1.0).items():
            print(f"{name + ' (wall)':24s} {value!r:>24}")
        note = "" if samples >= P90_MIN_SAMPLES else ", fewer than 100, so p90 is a rank of the fixed item mix"
        print(
            f"latency samples: {samples}{note}; reference loop {env['reference_loop_ms']:.3f} ms "
            f"(reference speed: {REFERENCE_NOMINAL_S * 1000:g} ms); set-up runs: {len(setups)}"
        )
    failed = len(res["failures"])
    print(f"failed_frac {failed / res['attempted']!r} ({failed} of {res['attempted']} items)")
    for failure in res["failures"][:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
