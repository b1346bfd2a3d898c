"""Run every workload of BENCHMARK.json, one process per workload.

    python3 bench/all.py --seed 1 [--trace 0]

Run from the repository root.  Streams each run's report, then prints a
table of every metric by workload, name and unit.  Exits 1 if a run fails
or reports an output that did not check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    table = []
    for w in spec["workloads"]:
        cmd = spec["command"] + ["--workload", w["name"], "--seed", str(args.seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(f"== {w['name']}: {w['why']}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            table.append(f"{w['name']:<10} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(table))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
