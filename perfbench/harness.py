"""Batch loop, statistics, digests and run records shared by the benchmark.

A workload is a list of :class:`Op` objects, its *batch*.  The benchmark
times every op of the batch with ``time.perf_counter``, checks each
answer outside the timed region, and repeats the batch until the run's
time is used up.  Nothing here imports ``lineflags``.

Op times are also given in *reference units*: divided by the time of a
:class:`Probe`, a fixed piece of work timed between the ops.  On a shared
machine whose speed changes by a factor of two over minutes, the op times
in seconds change with it, while their ratio to a probe timed close to
them stays put; the bounded metrics use that ratio.  In-process ops are
priced with :func:`reference_probe`, pure-Python work; ops that are whole
processes with :func:`process_probe`, a bare interpreter start, because
process start-up does not speed up and slow down with pure-Python work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "goldens"

# A tail percentile is trustworthy with at least ten samples beyond it.
MIN_BEYOND = 10
# Timed repeats of the batch in an untraced run, after one warm-up batch.
MIN_BATCHES = 3


class GoldenMismatch(Exception):
    """A set-up output differs from the golden pinned for it."""


@dataclass
class Op:
    """One timed call into the program.

    ``run`` does the program's work and returns its answer; ``check``
    turns the answer into ``(digest, problem)``, with ``problem`` None when
    the answer is right.  ``probe``, when given, runs after the op in
    traced batches only, outside the op's timing, and returns a problem or
    None.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str | None]]
    probe: Callable[[Any], str | None] | None = None


def _mix(a: int, b: int) -> int:
    return (a * 3 + b) % 1009


def reference_probe() -> float:
    """Time a fixed piece of interpreter-bound work (about 0.5 ms on a
    2 GHz Xeon): dict updates under tuple keys, a comprehension, calls and
    ``Fraction`` sums, the kinds of work ``lineflags`` does."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(400):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + _mix(i, acc)
        acc += len([x for x in range(8) if x & i])
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1)
    return time.perf_counter() - t0


def process_probe() -> float:
    """Time the start of a bare interpreter that does nothing."""
    t0 = time.perf_counter()
    code, _ = run_process([sys.executable, "-I", "-c", "pass"], 60)
    if code != 0:
        raise RuntimeError(f"bare interpreter exited with code {code}")
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Probe:
    """A reference timing; the op time between two of them in an untraced
    batch; how many of them time the machine just before and just after a
    set-up; and the probe's time at the fast speed of the machine the
    first results were taken on, to which set-up times are scaled."""

    time: Callable[[], float]
    every_s: float
    bracket: int
    ref_s: float


CPU_PROBE = Probe(reference_probe, every_s=0.02, bracket=15, ref_s=0.5e-3)
PROCESS_PROBE = Probe(process_probe, every_s=0.25, bracket=3, ref_s=0.06)


def digest(obj: Any) -> str:
    """Short stable digest of a JSON-serialisable value or of bytes."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(samples: list[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolating between order statistics."""
    if len(samples) < 2:
        raise ValueError("a percentile needs at least two samples")
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def tail_percent(count: int) -> int:
    """The highest whole percentile of ``count`` samples with at least
    ``MIN_BEYOND`` samples beyond it (0 if there is none)."""
    return max((p for p in range(1, 100) if count * (100 - p) / 100 >= MIN_BEYOND), default=0)


def load_goldens(name: str) -> dict:
    """The goldens of a workload; a missing file raises ``FileNotFoundError``."""
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@dataclass
class Measurement:
    """What the batch loop saw: per-batch wall times, op latencies, failures."""

    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    times: list[list[float]] = field(default_factory=list)
    costs: list[list[float]] = field(default_factory=list)
    traced_times: list[list[float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    batch_digests: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def run_batch(
    ops: list[Op], m: Measurement, first: list[str] | None, tracer=None, start: int = 0,
    probe: Probe = CPU_PROBE,
) -> tuple[float, list[str]]:
    """Run every op once, beginning at index ``start`` and wrapping round;
    return the batch's wall time (the sum of its op times) and the answer
    digests in op order.  ``first`` holds the digests of the run's first
    batch, which every later batch must reproduce.

    Untraced, the probe runs before the batch and after every
    ``probe.every_s`` of op time, outside the op timings.  An op's cost is
    its time over the median of the six probes nearest its interval, three
    on each side, so that one disturbed probe does not move it.
    """
    gc.collect()
    wall = 0.0
    digests = [""] * len(ops)
    probing = tracer is None
    probes = [probe.time()] if probing else []
    timed: list[tuple[int, float, int]] = []  # op index, time, probe interval
    since = 0.0
    for j in range(len(ops)):
        k = (start + j) % len(ops)
        op = ops[k]
        if tracer is not None:
            tracer.resume()
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.pause()
        wall += dt
        m.attempted += 1
        times = m.times if tracer is None else m.traced_times
        if not times:
            times.extend([] for _ in ops)
        times[k].append(dt)
        if probing:
            timed.append((k, dt, len(probes) - 1))
            since += dt
            if since >= probe.every_s or j == len(ops) - 1:
                probes.append(probe.time())
                since = 0.0
        if error is not None:
            m.fail(f"{op.key}: raised {error!r}")
            digests[k] = "raised"
            continue
        try:
            dig, problem = op.check(result)
        except Exception as exc:
            dig, problem = "check-raised", f"{op.key}: check raised {exc!r}"
        if problem is None and first is not None and first[k] != dig:
            problem = f"{op.key}: answer differs from the run's first batch"
        if problem is None and tracer is not None and op.probe is not None:
            tracer.resume()
            try:
                problem = op.probe(result)
            finally:
                tracer.pause()
        if problem is not None:
            m.fail(problem)
        digests[k] = dig
    if probing:
        if not m.costs:
            m.costs.extend([] for _ in ops)
        for k, dt, i in timed:
            m.costs[k].append(dt / statistics.median(probes[max(0, i - 2):i + 4]))
        m.probes.extend(probes)
    m.batch_digests.append(digest(digests))
    return wall, digests


def measure(ops: list[Op], seconds: float, tracer=None,
            min_batches: int = MIN_BATCHES, probe: Probe = CPU_PROBE) -> Measurement:
    """Repeat the batch until ``seconds`` have passed.

    Every run starts with a warm-up batch, checked but not timed: the
    first calls of a process run slower (the interpreter specialises its
    bytecode, the allocator grows).  Untraced (``tracer`` None): at least
    ``min_batches`` timed batches follow.  Traced: batches alternate
    untraced and traced, and at least one of each runs.
    """
    warm = Measurement()
    first = run_batch(ops, warm, None, probe=probe)[1]
    m = Measurement(attempted=warm.attempted, failed=warm.failed, problems=warm.problems)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        # Successive batches start at different ops, so that no op is always
        # timed at the same point of the machine's slow and fast spells.
        start = (k * 7919) % len(ops) if ops else 0
        if traced:
            tracer.install()
        try:
            wall, _ = run_batch(ops, m, first, tracer if traced else None, start, probe)
        finally:
            if traced:
                tracer.uninstall()
        (m.traced_walls if traced else m.walls).append(wall)
        k += 1
        if time.perf_counter() < deadline:
            continue
        if tracer is None and len(m.walls) < min_batches:
            continue
        if tracer is not None and not m.traced_walls:
            continue
        return m


def fastest_wall(times: list[list[float]]) -> float:
    """A batch's time with every op at its fastest repeat."""
    return sum(min(ts) for ts in times)


def end_to_end(m: Measurement) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced measurement, and notes on them.

    ``wall_ref`` is the batch's cost, the sum over its ops of each op's
    median cost over its timed repeats.  The percentiles are over the cost
    of every timed execution of every op.  The notes give the sample
    counts and the same figures in seconds.
    """
    costs = [c for cs in m.costs for c in cs]
    times = [t for ts in m.times for t in ts]
    tail = tail_percent(len(costs))
    metrics = {
        "wall_ref": (sum(statistics.median(cs) for cs in m.costs), "ref"),
        "op_p50_ref": (percentile(costs, 50), "ref"),
        "op_p95_ref": (percentile(costs, 95), "ref"),
    }
    notes = {
        "repeats": len(m.walls),
        "latency_samples": len(costs),
        "p95_samples_beyond": len(costs) * 5 / 100,
        f"tail_p{tail}_ref": percentile(costs, tail) if tail else None,
        "probe_ms_median": statistics.median(m.probes) * 1e3,
        "wall_s_fastest": fastest_wall(m.times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_p95_ms": percentile(times, 95) * 1e3,
        "median_batch_wall_s": statistics.median(m.walls),
    }
    return metrics, notes


def run_process(cmd: list[str], limit: float, **kwargs) -> tuple[int, bytes]:
    """Run a process to completion; return its exit code and stdout.

    The wait blocks in ``waitpid`` and a timer kills the process after
    ``limit`` seconds: ``subprocess``'s own timeouts poll with sleeps of up
    to 50 ms, which would round the measured times.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kwargs)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """Where and on what a result was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lineflags").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
