"""One digest over every benchmark pool request's CLI output.

Runs the certify round, the decompose pool and the count pool of
bench/workloads.py through cli.main in-process, each request in text and
with --json, and prints the run count and one sha256 over
(argv, exit code, stdout, stderr) of all runs.  Reads the bench modules
only and writes nothing under bench/.  Usage:

    PYTHONPATH=src python tests/pool_digest.py [--per FILE] [--against FILE]
                                               [--check DIGEST] [--time N]

--per FILE also writes {argv as JSON: [sha256 of that run, its exit code]}
to FILE, so two such files show which runs differ.  --against FILE reads
such a file saved earlier and lists the runs whose digest differs from it
(or that only one side has), grouped by the pool request's "kind:slot",
with how many of each slot's runs changed exit code (unknown against a
file that holds only the digests, {argv as JSON: sha256}).  --check
DIGEST exits 1 unless the digest is DIGEST, naming the first run whose exit
code and stdout differ from the digests pinned in decompose_pool_digests.json
and certify_catalog_digests.json (or saying that no pinned run differs).
--time N then runs every request N more times and prints, for each
"kind:slot", the median over those passes of the wall seconds its runs took
(text and --json together), then the decompose slot whose median --json
run sets bench/run.py's job_tail_ms at BENCHMARK.json's run_seconds (by
run.py's own rounds_for and tail percentile, imported read-only), and then
the count slot whose requests' median --json runs set the count workload's
job_p50_ms (by run.py's own end_to_end, imported read-only).
"""

import argparse
import hashlib
import importlib.util
import json
import statistics
import sys
import time
import types
from pathlib import Path

from tests_support import cli_run, run_record

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def _workloads():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for dataclasses
    spec.loader.exec_module(module)
    return module


def pool_argvs() -> dict[str, str]:
    """{argv as JSON: "kind:slot"} for every pool request, in text and with
    --json."""
    wl = _workloads()
    out = {}
    for req in wl.certify_round() + wl.decompose_pool() + wl.count_pool():
        text = [a for a in req.argv if a != "--json"]
        for argv in (text, ["--json"] + text):
            out[json.dumps(argv)] = f"{req.kind}:{req.slot}"
    return out


def _run_entry(value) -> tuple[str, int | None]:
    """(digest, exit code) of a --per file's entry; an entry that holds only
    the digest has exit code None."""
    return (value, None) if isinstance(value, str) else tuple(value)


def differing(per: dict, saved: dict, slots: dict) -> dict[str, list[str]]:
    """{"kind:slot": [argv as JSON, ...]} for the runs whose digest in per
    and saved differs or that only one of them has."""
    out = {}
    for key in [k for k in per if k not in saved or
                _run_entry(per[k])[0] != _run_entry(saved[k])[0]] + [
            k for k in saved if k not in per]:
        out.setdefault(slots.get(key, "(not in the pool)"), []).append(key)
    return out


def exit_changes(keys: list[str], per: dict, saved: dict) -> int | None:
    """How many of the runs keys that both per and saved have changed exit
    code, or None if one of those runs has no exit code stored."""
    codes = [(_run_entry(per[k])[1], _run_entry(saved[k])[1])
             for k in keys if k in per and k in saved]
    if any(None in pair for pair in codes):
        return None
    return sum(new != old for new, old in codes)


def pinned() -> dict:
    """{argv as JSON: pinned sha256 of "{exit code}\n{stdout}"} for the
    decompose pool (pinned by "slot:variant") and the certify catalog."""
    wl = _workloads()
    pins = json.loads((TESTS / "certify_catalog_digests.json").read_text())
    pool = json.loads((TESTS / "decompose_pool_digests.json").read_text())
    for slot in wl.DECOMPOSE_SLOTS:
        for v in range(wl.DECOMPOSE_VARIANTS):
            argv = wl.decompose_request(slot, v).argv
            pins[json.dumps(argv)] = pool[f"{slot[0]}:{v}"]
    return pins


def run(argv: list[str]) -> bytes:
    """The run's (argv, exit code, stdout, stderr) as one JSON line."""
    return run_record(argv, *cli_run(argv))


def slot_seconds(slots: dict, passes: int, runs: dict | None = None) -> dict[str, float]:
    """{"kind:slot": median over passes of the wall seconds of its runs}; runs,
    if given, gets {argv as JSON: [the seconds of each of its runs]}."""
    spent = {slot: [] for slot in slots.values()}
    runs = {} if runs is None else runs
    for _ in range(passes):
        for times in spent.values():
            times.append(0.0)
        for key, slot in slots.items():
            start = time.perf_counter()
            run(json.loads(key))
            spent[slot][-1] += (seconds := time.perf_counter() - start)
            runs.setdefault(key, []).append(seconds)
    return {slot: statistics.median(times) for slot, times in spent.items()}


def _bench_run():
    """bench/run.py as a module, read only."""
    sys.dont_write_bytecode = True
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import run
    return run


def p50_slot(slots: dict, runs: dict) -> tuple[str, float, int]:
    """The count slot (or slots, joined by "/") of the requests whose
    median --json run (over runs, from slot_seconds) is the median that
    bench/run.py's end_to_end reports as job_p50_ms on the count workload,
    that value in seconds, and the request count.  Every request runs once
    a round, so the rounds do not move the median."""
    keys = [key for key, slot in slots.items()
            if slot.startswith("count:") and json.loads(key)[0] == "--json"]
    bench_run = _bench_run()
    results = [bench_run.Result(slots[key], types.SimpleNamespace(key=key), 0,
                                "", seconds, 0.0)
               for key in keys for seconds in runs[key]]
    p50 = bench_run.end_to_end(results, 0, 0.0)["job_p50_ms"]["value"] / 1000
    ranked = sorted(keys, key=lambda key: statistics.median(runs[key]))
    middle = ranked[(len(ranked) - 1) // 2:len(ranked) // 2 + 1]
    return "/".join(sorted({slots[key] for key in middle})), p50, len(keys)


def tail_slot(slots: dict, runs: dict) -> tuple[str, float, float, int]:
    """The decompose slot whose median --json run (over runs, from
    slot_seconds) bench/run.py reports as job_tail_ms at BENCHMARK.json's
    run_seconds, that median, the percentile and the run's request count:
    every slot runs once a round, so its median counts once per round."""
    single = {}
    for key, slot in slots.items():
        if slot.startswith("decompose:") and json.loads(key)[0] == "--json":
            single.setdefault(slot, []).extend(runs[key])
    single = {slot: statistics.median(times) for slot, times in single.items()}
    bench_run = _bench_run()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    rounds = bench_run.rounds_for("decompose", seconds)
    smoothed = [slot for slot in sorted(single, key=single.get) for _ in range(rounds)]
    q = bench_run.tail_percentile(len(smoothed))
    slot = bench_run._percentile(smoothed, q) if q else smoothed[-1]
    return slot, single[slot], q or 100, len(smoothed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per", metavar="FILE",
                        help="write a digest for each run to FILE")
    parser.add_argument("--against", metavar="FILE",
                        help="list the runs that differ from a saved --per FILE")
    parser.add_argument("--check", metavar="DIGEST",
                        help="exit 1 unless the digest is DIGEST")
    parser.add_argument("--time", metavar="N", type=int,
                        help="print each slot's median seconds over N passes")
    args = parser.parse_args()
    total, per, outputs = hashlib.sha256(), {}, {}
    slots = pool_argvs()
    for key in slots:
        line = run(json.loads(key))
        total.update(line)
        _, code, out, _ = json.loads(line)
        per[key] = [hashlib.sha256(line).hexdigest(), code]
        outputs[key] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    print(len(per), total.hexdigest())
    if args.per:
        Path(args.per).write_text(json.dumps(per, indent=1) + "\n")
    if args.against:
        saved = json.loads(Path(args.against).read_text())
        moved = differing(per, saved, slots)

        def exits(keys):
            changed = exit_changes(keys, per, saved)
            return f"({'unknown' if changed is None else changed} changed exit code)"

        print(sum(map(len, moved.values())), "runs differ from", args.against,
              exits(sum(moved.values(), [])))
        for slot, keys in moved.items():
            print(f"{slot}: {len(keys)}", exits(keys))
            for key in keys:
                print("   ", key)
    if args.time:
        runs = {}
        for slot, seconds in slot_seconds(slots, args.time, runs).items():
            print(f"{slot} {seconds:.6f}")
        slot, seconds, q, n = tail_slot(slots, runs)
        print(f"job_tail_ms is set by {slot} {seconds:.6f} "
              f"(p{q:g} of {n} requests, median --json run)")
        slot, seconds, n = p50_slot(slots, runs)
        print(f"job_p50_ms is set by {slot} {seconds:.6f} "
              f"(median of {n} requests' median --json runs)")
    if args.check and total.hexdigest() != args.check:
        pins = pinned()
        first = next((k for k in outputs if k in pins and outputs[k] != pins[k]),
                     None)
        sys.exit(f"digest differs from {args.check}: " + (
            f"first differing pinned run {first}" if first else
            "no pinned run differs, so an unpinned run or stderr does"))


if __name__ == "__main__":
    main()
