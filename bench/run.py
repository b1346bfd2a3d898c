"""canonform benchmark: certify, decompose and count workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client issues CLI requests serially in
a closed loop (one process, no threads): each request is an argv passed to
``canonform.cli.main`` in-process with stdout captured, so it pays the real
parse -> algorithm -> format path.  A run issues the rounds (see
workloads.py) that fill --seconds at the reference speed, then checks every
output against bench/reference.json and checks.py.  Reported times are
scaled to a reference host speed (see speed.py); raw ones are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed request
set (TRACE_ROUNDS rounds, whatever --seconds says, so counts repeat)
untraced, then untraced and with per-layer spans in turn, request by
request, then with QQi operators counted.  It prints the per-layer metrics
and writes the spans to .bench_out/.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; correct is
false when any request failed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import KERNEL_REF_MS, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 9
# About the seconds one round takes at the reference speed.  A run
# issues max(MIN_ROUNDS, round(--seconds / this)) rounds, decompose rounded
# up to whole cycles of its variants, so every run measures the same work
# and the tail percentile that has ten requests beyond it does not move
# with the speed of the host.  Four count rounds of ten requests are the
# fewest that leave ten requests beyond p75.
NOMINAL_ROUND_S = {"certify": 5.2, "decompose": 1.5, "count": 8.0}
MIN_ROUNDS = {"certify": 4, "decompose": 8, "count": 4}
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A set-up rep in a fresh interpreter: the clock starts before anything of
# the program or numpy is imported.  The child then times the speed kernel
# (a warm-up call, then the median of three) so that its set-up time can be
# scaled to the reference speed.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
from run import setup_once
setup_once(sys.argv[2], int(sys.argv[3]))
seconds = time.perf_counter() - t0
import statistics
from speed import timed_kernel
timed_kernel()
print(seconds, statistics.median(timed_kernel() for _ in range(3)))
"""


@dataclass
class Result:
    slot: str
    req: object          # workloads.Request
    code: int
    out: str
    seconds: float
    start: float


def _call(argv: list[str]) -> tuple[int, str, float, float]:
    """One request through the CLI entry point; returns (exit, stdout,
    seconds, start time)."""
    cli = sys.modules["canonform.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt, t0


def _request(slot: str, req) -> Result:
    return Result(slot, req, *_call(req.argv))


def setup_once(workload: str, seed: int):
    """Import canonform, load the references and build the seeded stream."""
    sys.path.insert(0, str(SRC))
    import canonform.cli  # noqa: F401
    from workloads import Stream
    refs = json.loads(REFERENCE.read_text())
    return Stream(workload, seed), refs


def setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds of SETUP_REPS set-ups, each in a fresh interpreter:
    raw and at reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), workload,
                               str(seed)], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        seconds, kernel_s = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * KERNEL_REF_MS / (1000 * kernel_s))
    return statistics.median(raw), statistics.median(scaled)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_percentile(n: int) -> float | None:
    """Highest grid percentile with at least ten requests beyond it."""
    return next((q for q in TAIL_GRID if round(n * (100 - q), 6) >= 1000), None)


def check_all(results: list[Result], refs) -> dict[int, str]:
    """Failure reason by result index."""
    from checks import check
    failures = {}
    for i, res in enumerate(results):
        ref = refs["requests"].get(res.req.key)
        reason = ("no reference for this request" if ref is None
                  else check(res.req, res.code, res.out, ref))
        if reason:
            failures[i] = f"{res.req.slot}: {reason}"
    return failures


def rounds_for(workload: str, seconds: float) -> int:
    from workloads import DECOMPOSE_VARIANTS
    rounds = max(MIN_ROUNDS[workload], round(seconds / NOMINAL_ROUND_S[workload]))
    if workload == "decompose":
        rounds = -(-rounds // DECOMPOSE_VARIANTS) * DECOMPOSE_VARIANTS
    return rounds


def run_timed(stream, seconds: float, speed: Speed) -> list[Result]:
    """The rounds that fill `seconds` at the reference speed."""
    results = []
    for _ in range(rounds_for(stream.workload, seconds)):
        for slot, req in stream.next_round():
            speed.maybe_sample()
            results.append(_request(slot, req))
    speed.sample()
    return results


def _median_by(results: list[Result], lat: list[float], group) -> dict:
    """Median latency of each group(result)."""
    groups: dict[str, list[float]] = {}
    for r, ms in zip(results, lat):
        groups.setdefault(group(r), []).append(ms)
    return {g: statistics.median(v) for g, v in groups.items()}


def end_to_end(results: list[Result], failed: int, setup_s: float,
               scale=lambda t: 1.0) -> dict:
    """End-to-end metrics, each request time multiplied by scale(its start
    time) (see speed.py).  For jobs_per_s (checked requests per second of
    request time) and job_p50_ms (median request latency) each request is
    timed as the median over its repeats in the run, and for job_tail_ms each
    request's latency is replaced by the median of its slot over the run's
    rounds first: otherwise a single request slowed by noise, such as one of
    the few multi-second certify maps, decides them."""
    lat = [r.seconds * 1000 * scale(r.start) for r in results]
    key_med = _median_by(results, lat, lambda r: r.req.key)
    request_s = sum(key_med[r.req.key] for r in results) / 1000
    slot_med = _median_by(results, lat, lambda r: r.slot)
    smoothed = sorted(slot_med[r.slot] for r in results)
    attempted = len(results)
    ok = attempted - failed
    q = tail_percentile(attempted)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": ok / request_s, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(key_med[r.req.key] for r in results),
                       "unit": "ms"},
        "job_tail_ms": {"value": _percentile(smoothed, q) if q else smoothed[-1],
                        "unit": "ms"},
        "ok_frac": {"value": ok / attempted, "unit": "frac"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }
    return metrics


def run_traced(stream, workload: str):
    """The fixed request set untraced, with spans, and with QQi counted."""
    from tracing import QQiCounter, SpanTracer, layer_metrics
    from workloads import TRACE_ROUNDS
    reqs = [pair for _ in range(TRACE_ROUNDS[workload]) for pair in stream.next_round()]
    tracer = SpanTracer()
    tracer.install()
    try:
        # input generation again, traced, for the set-up layers (enumeration)
        type(stream)(workload, stream.seed)
    finally:
        tracer.uninstall()
    # A first untraced pass warms the process; then each request runs
    # untraced and traced in turn, so both see the same host speed.
    first = [_request(slot, r) for slot, r in reqs]
    plain, traced = [], []
    for i, (slot, r) in enumerate(reqs):
        plain.append(_request(slot, r))
        tracer.request = i
        tracer.install()
        try:
            traced.append(_request(slot, r))
        finally:
            tracer.uninstall()

    qqi = QQiCounter()
    qqi.install()
    try:
        for slot, r in reqs:
            _request(slot, r)
    finally:
        qqi.uninstall()

    mismatch = {i: f"{a.req.slot}: traced output differs from untraced"
                for i, (a, b) in enumerate(zip(first, traced))
                if (a.code, a.out) != (b.code, b.out)}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-{stream.seed}.json")
    # share of throughput lost to tracing, 1 - traced / untraced speed: the
    # median over requests, so that one large request slowed by noise does
    # not decide it
    overhead = statistics.median(1 - a.seconds / b.seconds for a, b in zip(plain, traced))
    return first, layer_metrics(tracer, qqi, overhead), mismatch


def environment(workload: str, seed: int) -> dict:
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_sha": git_sha(),
            "workload": workload, "seed": seed,
            "load": "closed loop, 1 client, serial, in-process CLI calls"}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "decompose", "count"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "canonform" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"benchmark needs the canonform sources under {SRC} and {REFERENCE}",
              file=sys.stderr)
        return 2

    if args.trace:
        stream, refs = setup_once(args.workload, args.seed)
        _call(stream.warmup().argv)
        results, metrics, failures = run_traced(stream, args.workload)
    else:
        setup_raw, setup_s = setup(args.workload, args.seed)
        speed = Speed()
        stream, refs = setup_once(args.workload, args.seed)
        _call(stream.warmup().argv)
        results = run_timed(stream, args.seconds, speed)
        failures = {}
    failures = {**failures, **check_all(results, refs)}

    for k, v in environment(args.workload, args.seed).items():
        print(f"env {k}: {v}")
    attempted = len(results)
    failed = len(failures)
    if not args.trace:
        metrics = end_to_end(results, failed, setup_s, speed.scale)
        raw = end_to_end(results, failed, setup_raw)
        q = tail_percentile(attempted)
        slots = len({r.slot for r in results})
        print(f"tail percentile: p{q if q else 100} of {attempted} requests "
              f"in {slots} slots")
        print(f"speed: median kernel {1000 * statistics.median(speed.kernel_s):.3f} ms "
              f"over {len(speed.kernel_s)} samples (reference {KERNEL_REF_MS} ms)")
        print("raw, not speed-scaled: " + ", ".join(
            f"{name} {m['value']:.6g} {m['unit']}" for name, m in raw.items()
            if m["unit"] in ("s", "ms", "1/s")))
    print(f"fail_frac: {failed / attempted:.6f} ({failed}/{attempted})")

    for f in list(failures.values())[:20]:
        print(f"FAIL {f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
