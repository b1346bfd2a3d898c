"""One digest over a fixed table of Monte Carlo representation counts.

Runs count_reps_monte_carlo on every (shape, trial budget, seed) of TABLE
and prints the run count and one sha256 over the lines
"d e m trials seed estimate", one per run, in table order.  Usage:

    PYTHONPATH=src python tests/count_digest.py [--check DIGEST] [--time N]

--check DIGEST exits 1 unless the digest is DIGEST, naming the runs whose
estimate differs from the one listed in TABLE.  --time N then runs the
table N more times in-process and prints, for each row, "d e m trials" and
the median over those passes of the wall seconds its runs took.
"""

import argparse
import hashlib
import statistics
import sys
import time

from canonform.binary import count_reps_monte_carlo

# ((d, e, m), trial budget or None for the default, {seed: estimate})
TABLE = [
    ((4, [2, 1], 0), None, dict.fromkeys(range(30), 6)),
    ((4, [2], 2), None, dict.fromkeys(range(30), 2)),
    ((6, [3, 2], 0), 2000, dict(enumerate([34, 33, 30, 31, 33, 33]))),
    ((6, [2], 4), 3000, dict.fromkeys(range(4), 5)),
    ((4, [1], 3), None, dict.fromkeys(range(4), 1)),
    ((6, [2, 1, 1], 0), 600, dict(enumerate([20, 19, 20, 21]))),
    ((5, [1, 1], 2), 3000, dict.fromkeys(range(3), 1)),
    ((8, [4, 2], 1), 1500, dict(enumerate([57, 54]))),
    ((4, [2, 1], 0), 20000, dict.fromkeys(range(2), 6)),
]


def runs(table=TABLE):
    """(line, listed estimate) for each run of table, in order."""
    for (d, e, m), trials, seeds in table:
        for seed, listed in seeds.items():
            got = count_reps_monte_carlo(d, e, m, trials=trials, seed=seed)
            yield (f"{d} {','.join(map(str, e))} {m} {trials} {seed} {got}",
                   listed)


def row_seconds(table, passes: int) -> list[float]:
    """Median over passes (each a run of the whole table) of the wall
    seconds each row's runs take."""
    spent = [[] for _ in table]
    for _ in range(passes):
        for times, ((d, e, m), trials, seeds) in zip(spent, table):
            start = time.perf_counter()
            for seed in seeds:
                count_reps_monte_carlo(d, e, m, trials=trials, seed=seed)
            times.append(time.perf_counter() - start)
    return [statistics.median(times) for times in spent]


def digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines)
                          .encode()).hexdigest()


def main(argv=None, table=TABLE) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="DIGEST",
                        help="exit 1 unless the digest is DIGEST")
    parser.add_argument("--time", metavar="N", type=int,
                        help="print each row's median seconds over N passes")
    args = parser.parse_args(argv)
    done = list(runs(table))
    total = digest(line for line, _ in done)
    print(len(done), total)
    if args.time:
        for ((d, e, m), trials, _), seconds in zip(
                table, row_seconds(table, args.time)):
            print(f"{d} {','.join(map(str, e))} {m} {trials} {seconds:.6f}")
    if args.check and total != args.check:
        moved = [line for line, listed in done
                 if int(line.rsplit(" ", 1)[1]) != listed]
        sys.exit(f"digest differs from {args.check}; estimates off the "
                 f"table: {moved or 'none'}")


if __name__ == "__main__":
    main()
