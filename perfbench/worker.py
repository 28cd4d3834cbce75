"""One benchmark process: set a workload up, then time it.

Started by ``run.py`` in a fresh interpreter.  It imports ``lineflags``
from the ``src/`` directory of the checkout it sits in, builds the
workload's inputs from the seed, prints ``READY``, runs the batch loop and
prints one JSON line with what it measured.  With ``--setup-only`` it
exits after ``READY``, so that ``run.py`` can time set-up alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(BENCH_DIR)]

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBES = 5


def import_lineflags():
    sys.path.insert(0, str(SRC))
    import lineflags

    if Path(lineflags.__file__).resolve().parent != SRC / "lineflags":
        raise ImportError(f"lineflags imported from {lineflags.__file__}, not from {SRC}")
    return lineflags


def import_cost() -> float:
    """Median time of a fresh ``import lineflags`` beyond a bare interpreter."""
    load = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lineflags"

    def once(source: str) -> float:
        t0 = time.perf_counter()
        code, _ = harness.run_process([sys.executable, "-I", "-c", source], 60)
        if code != 0:
            raise RuntimeError(f"import probe exited with code {code}")
        return time.perf_counter() - t0

    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(once("pass"))
        loaded.append(once(load))
    return statistics.median(loaded) - statistics.median(bare)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lf = import_lineflags()
    workload = WORKLOADS[args.workload](harness.load_goldens(args.workload))
    for module in workload.imports:  # before the tracer wraps what they bind
        importlib.import_module(module)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.resume()
    try:
        ops = workload.setup(lf, args.seed, tracer)
    except harness.GoldenMismatch as exc:
        print(f"set-up output differs from its golden: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.end_setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    m = harness.measure(ops, args.seconds, tracer, workload.min_batches, workload.probe)
    notes = {"ops_per_batch": len(ops), "batch_digest": m.batch_digests[0]}
    if tracer is None:
        metrics, more = harness.end_to_end(m)
        notes.update(more)
        metrics["peak_rss_mb"] = (harness.peak_rss_mb(workload.rss_of_children), "MB")
    else:
        metrics = tracer.metrics(len(m.traced_walls))
        metrics["cli.import_s"] = (import_cost(), "s")
        metrics["trace_overhead_s"] = (
            harness.fastest_wall(m.traced_times) - harness.fastest_wall(m.times), "s"
        )
        notes["traced_batches"] = len(m.traced_walls)
        notes["traced_batch_digest"] = m.batch_digests[1]
    print(json.dumps({
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "metrics": metrics,
        "notes": notes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
