"""Exit codes of the seeded decompose fuzz, by algorithm and error type.

Runs the 550 argvs of tests_support.fuzz_argvs through cli.main in-process
and prints, for each algorithm, how many runs exited with each code and,
for a refusal, each error type (the name that starts its stderr).  Usage:

    PYTHONPATH=src python tests/fuzz_report.py [--both-backends]
                                               [--exact-referee] [--first N]

--both-backends runs each argv once on each backend, its own --backend
flag replaced, and lists the argvs whose two exit codes differ, grouped by
algorithm, direction and the refusing side's error type.  --exact-referee
reads every exit-0 output at its exact printed values against the form it
decomposed (tests_support.printed_errors) and prints the worst backward
error per algorithm.  --first N runs only the first N argvs.
"""

import argparse
import collections
import json

from tests_support import cli_run, fuzz_argvs, printed_errors


def algorithm(argv: list[str]) -> str:
    return argv[argv.index("decompose") + 1]


def verdict(code: int, err: str) -> str:
    """The exit code, then for a refusal the error type that starts err."""
    return "0" if code == 0 else f"{code} {err.split(':')[0].strip()}"


def on_backend(argv: list[str], backend: str) -> list[str]:
    at = argv.index("--backend")
    return argv[:at + 1] + [backend] + argv[at + 2:]


def flips(argvs: list[list[str]]) -> dict[tuple, list[list[str]]]:
    """{(algorithm, direction, error type): [argv, ...]} for the argvs whose
    exit codes on the two backends differ."""
    out = {}
    for argv in argvs:
        (exact, err_exact), (approx, err_approx) = (
            cli_run(on_backend(argv, b))[::2] for b in ("exact", "approx"))
        if exact == approx:
            continue
        if exact == 0:
            key = ("exact ok, approx refuses", verdict(approx, err_approx))
        elif approx == 0:
            key = ("approx ok, exact refuses", verdict(exact, err_exact))
        else:
            key = (f"exact {verdict(exact, err_exact)}",
                   f"approx {verdict(approx, err_approx)}")
        out.setdefault((algorithm(argv),) + key, []).append(argv)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--both-backends", action="store_true",
                        help="list the argvs whose exit code flips with the backend")
    parser.add_argument("--exact-referee", action="store_true",
                        help="print the worst exact-read error per algorithm")
    parser.add_argument("--first", metavar="N", type=int,
                        help="run only the first N fuzz argvs")
    args = parser.parse_args(argv)
    argvs = fuzz_argvs()[:args.first]
    counts = collections.defaultdict(collections.Counter)
    worst = collections.defaultdict(float)
    for run in argvs:
        code, out, err = cli_run(run)
        counts[algorithm(run)][verdict(code, err)] += 1
        if args.exact_referee and code == 0:
            worst[algorithm(run)] = max([worst[algorithm(run)]]
                                        + printed_errors(run, out))
    print(len(argvs), "argvs")
    for algo, by in counts.items():
        print(f"{algo}:", ", ".join(f"{v} x{n}" for v, n in sorted(by.items())))
    if args.exact_referee:
        print("worst exact-read backward error of an exit-0 output:")
        for algo, err in worst.items():
            print(f"    {algo}: {err:.3g}")
    if args.both_backends:
        found = flips(argvs)
        print(sum(map(len, found.values())), "of", len(argvs),
              "argvs flip with the backend")
        for (algo, *key), runs in sorted(found.items()):
            print(f"{algo}: {', '.join(key)}: {len(runs)}")
            for run in runs:
                print("   ", json.dumps(run))


if __name__ == "__main__":
    main()
