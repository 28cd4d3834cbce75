"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-n6 --seed 1 --seconds 10 --trace 0

Each run starts fresh single-threaded interpreters (``worker.py``), one at
a time and all on one CPU: one that sets the workload up and measures it,
and, untraced, ``SETUPS`` that only set it up, half of them before the
measuring one and half after.  ``setup_s`` is the median over those of the
time from launching a worker to its ``READY``, each scaled by the
workload's probes timed just before and after it.  With ``--trace 0`` the
run prints the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import Probe, environment  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Whole-run limit: a worker still running after this is killed.
WORKER_LIMIT_S = 170.0
# Set-ups timed for setup_s in an untraced run, by workers that only set
# up: half run before the measuring worker and half after, so that their
# median spans the whole run rather than one spell of the machine's speed.
SETUPS = 10


class WorkerFailed(Exception):
    pass


def run_worker(args, setup_only: bool, limit: float) -> tuple[float, dict | None]:
    """Launch one worker; return its set-up time and, unless
    ``setup_only``, its result record."""
    cmd = [
        sys.executable, "-I", str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker exited with code {code} before a result")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a virtual machine each CPU can run at its own, changing speed; the
    reference probes only track the speed of the CPU they run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bracket(probe: Probe) -> float:
    return statistics.median(probe.time() for _ in range(probe.bracket))


def timed_setup(args, limit: float) -> tuple[float, float]:
    """Time one set-up-only worker; return its set-up time in seconds and
    the same scaled to ``probe.ref_s`` by the workload's probes timed just
    before and just after it."""
    probe = WORKLOADS[args.workload].probe
    before = bracket(probe)
    setup, _ = run_worker(args, True, limit)
    after = bracket(probe)
    return setup, setup * probe.ref_s / ((before + after) / 2)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    pin_to_one_cpu()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setups: list[tuple[float, float]] = []

    def remaining() -> float:
        return WORKER_LIMIT_S - (time.perf_counter() - started)

    try:
        count = 0 if args.trace else SETUPS
        setups += [timed_setup(args, remaining()) for _ in range(count // 2)]
        _, record = run_worker(args, False, remaining())
        setups += [timed_setup(args, remaining()) for _ in range(count - count // 2)]
    except (WorkerFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = dict(record["metrics"])
    if setups:
        metrics["setup_s"] = (statistics.median(scaled for _, scaled in setups), "s")
        record["notes"]["setup_samples"] = len(setups)
        record["notes"]["setup_s_unscaled"] = statistics.median(raw for raw, _ in setups)
    declared = declared_metrics(args.trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"error: metrics {sorted(got.items() ^ declared.items())} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for key, value in sorted(record["notes"].items()):
        print(f"  note {key} = {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
