"""Self-test of the benchmark (not collected by pytest).

    python3 bench/selftest.py

Run from the repository root.  For each workload of BENCHMARK.json it
  * runs the traced run twice with seed SEED and requires the exact counts
    (every per-layer metric with unit "count") to be identical;
  * runs the untraced run with SEED and with HELD_OUT and
    requires every end-to-end metric of the held-out run to be within the
    bound BENCHMARK.json gives it;
  * requires every output of every run to pass its check;
  * requires BENCHMARK.json's per_layer list to match tracing.LAYER_METRICS.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
HELD_OUT = 7


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, base: float, value: float) -> float:
    """Share by which value is worse than base (negative when better)."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main() -> int:
    problems = []

    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    if listed != [(n, u, b) for n, (u, b, _, _) in LAYER_METRICS.items()]:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")

    counts = [n for n, (u, _, _, _) in LAYER_METRICS.items() if u == "count"]
    for w in [x["name"] for x in SPEC["workloads"]]:
        a, b = run(w, SEED, 1), run(w, SEED, 1)
        for name in counts:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            status = "ok" if va == vb else "DIFFERS"
            print(f"{w} {name}: {va} / {vb} {status}")
            if va != vb:
                problems.append(f"{w}: {name} is {va} then {vb} with seed {SEED}")
        base, held = run(w, SEED, 0), run(w, HELD_OUT, 0)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            vb, vh = base["metrics"][name]["value"], held["metrics"][name]["value"]
            worse = worse_by(metric, vb, vh)
            print(f"{w} {name}: seed {SEED} {vb:.6g}, held-out seed "
                  f"{HELD_OUT} {vh:.6g}, worse by {worse:+.3f} (bound {metric['bound']})")
            if worse > metric["bound"]:
                problems.append(f"{w}: {name} on the held-out seed is worse by "
                                f"{worse:.3f} > {metric['bound']}")
        fails = [r["failed"] for r in (a, b, base, held)]
        print(f"{w} failed requests: traced {fails[:2]}, untraced {fails[2:]}")
        if any(fails) or not all(r["correct"] for r in (a, b, base, held)):
            problems.append(f"{w}: requests failed their checks: {fails}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
