"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
        [--out FILE]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--out`` it also writes every
run's record and the summary as JSON, the form of ``results/*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"env": environment(), "seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
            runs.append({"seed": seed, "env": env, **result})
        metrics = sorted({m for run in runs for m in run["metrics"]})
        table = {}
        for metric in metrics:
            values = [run["metrics"][metric]["value"] for run in runs]
            if len(values) >= 2:
                table[metric] = summary(values)
        record["workloads"][name] = {"runs": runs, "summary": table}
        print(f"{name}: {len(runs)} runs")
        for metric, s in table.items():
            bound = bounds.get(metric)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:<48} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread}"
                  + ("" if bound is None else f" (bound {bound})"))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
