"""Pin the goldens that every benchmark run checks its answers against.

    python3 perfbench/pin_goldens.py [WORKLOAD ...]

Runs the program once over every input a batch can hold (for seeded
inputs, those of the default seed) and writes ``goldens/<workload>.json``.
The goldens were pinned at the commit that added the benchmark; re-pin
only when the program's documented output is meant to change.  Pinning
``poset-n5`` takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import GOLDEN_DIR  # noqa: E402
from worker import import_lineflags  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    lf = import_lineflags()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        goldens = WORKLOADS[name](None).pin(lf)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(f"pinned {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
