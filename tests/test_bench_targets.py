"""Checks that tie the benchmark's files to canonform, reading them only.

bench/tracing.py wraps functions, methods and QQi operators by name; a
renamed or deleted one breaks only traced benchmark runs, so it is checked
here instead.  The
certify round's outputs must keep the digests in bench/reference.json, and
every decompose pool and certify catalog output the digest pinned in
decompose_pool_digests.json and certify_catalog_digests.json.  After a change
that moves outputs on purpose, re-record both files with

    PYTHONPATH=src python tests/test_bench_targets.py
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from canonform import cli
from tests_support import bench_module, cli_digests, fresh_json

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _span_targets(monkeypatch):
    return bench_module(monkeypatch, "tracing").SPAN_TARGETS


def _fresh(code, *args):
    """Run code in a new interpreter that finds the bench modules the way
    bench/run.py does (writing no bytecode there); return its JSON line."""
    return fresh_json(code, str(BENCH), *args)


# A child that runs a workload's warmup request, then its first argv[3]
# rounds, through cli.main as bench/run.py does, and reports per request
# whether numpy was imported before and after it.
_NUMPY_PER_REQUEST = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import canonform.cli
from workloads import Stream
stream = Stream(sys.argv[2], 0)
reqs = [stream.warmup()]
for _ in range(int(sys.argv[3])):
    reqs += [req for _, req in stream.next_round()]
rows = []
for req in reqs:
    before = "numpy" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        code = canonform.cli.main(list(req.argv))
    rows.append((req.argv, code, before, "numpy" in sys.modules))
print(json.dumps(rows))
"""


def test_every_traced_name_resolves(monkeypatch):
    targets = _span_targets(monkeypatch)
    assert targets
    missing = []
    for modname, target, _group in targets:
        obj = importlib.import_module(f"canonform.{modname}")
        for part in target.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"canonform.{modname}.{target}")
    assert missing == []


def test_every_traced_name_resolves_in_a_fresh_interpreter():
    # in-process, a traced run leaves the names it wrapped bound on their
    # modules; a new process reads canonform.forms' moved names, and every
    # deferred module's, through their first-read hooks
    code = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import SPAN_TARGETS
missing = []
for modname, target, _group in SPAN_TARGETS:
    obj = importlib.import_module("canonform." + modname)
    for part in target.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(f"canonform.{modname}.{target}")
print(json.dumps(missing))
"""
    assert _fresh(code) == []


def test_every_counted_qqi_operator_resolves(monkeypatch):
    # QQiCounter.install reads QQi.__dict__[name] for every counted operator
    from canonform.scalars import QQi

    ops = bench_module(monkeypatch, "tracing").QQI_OPS
    assert ops
    assert [name for name in ops if name not in QQi.__dict__] == []


def test_certify_round_keeps_its_reference_digests(monkeypatch):
    refs = json.loads((BENCH / "reference.json").read_text())["requests"]
    requests = bench_module(monkeypatch, "workloads").certify_round()
    assert requests
    for req in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
        ref = refs[req.key]
        assert code == ref["exit"], req.argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            ref["sha256"], req.argv


def test_decompose_pool_keeps_its_reference_digests(monkeypatch):
    """Every decompose request with an exact reference keeps its digest, and
    variant 0 of every slot passes the bench's own check."""
    refs = json.loads((BENCH / "reference.json").read_text())["requests"]
    workloads = bench_module(monkeypatch, "workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks imports it
    checks = bench_module(monkeypatch, "checks")
    exact = [req for req in workloads.decompose_pool() if refs[req.key]["exact"]]
    assert exact
    first = [workloads.decompose_request(slot, 0)
             for slot in workloads.DECOMPOSE_SLOTS]
    for req in exact + first:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
        ref = refs[req.key]
        assert code == ref["exit"], req.argv
        if ref["exact"]:
            assert checks.digest(out.getvalue()) == ref["sha256"], req.argv
        assert checks.check(req, code, out.getvalue(), ref) is None, req.argv


def _pool_argvs(workloads) -> dict:
    """Every decompose pool request's argv, keyed "slot:variant"."""
    return {f"{slot[0]}:{v}": workloads.decompose_request(slot, v).argv
            for slot in workloads.DECOMPOSE_SLOTS
            for v in range(workloads.DECOMPOSE_VARIANTS)}


def _catalog_argvs(workloads) -> dict:
    """Every certify catalog request's argv, with --json and without it,
    keyed by the argv's JSON text."""
    out = {}
    for req in workloads.certify_catalog():
        text = [a for a in req.argv if a != "--json"]
        out[json.dumps(req.argv)], out[json.dumps(text)] = req.argv, text
    return out


# (file under tests/, its argvs, their count)
_PINNED = {"decompose_pool_digests.json": (_pool_argvs, 208),
           "certify_catalog_digests.json": (_catalog_argvs, 2 * 377)}


def _assert_pinned(monkeypatch, name):
    argvs, count = _PINNED[name]
    pinned = json.loads((Path(__file__).parent / name).read_text())
    got = cli_digests(argvs(bench_module(monkeypatch, "workloads")))
    assert len(got) == count
    assert [k for k in pinned if got.get(k) != pinned[k]] == []
    assert got.keys() == pinned.keys()


def test_every_decompose_pool_output_keeps_its_digest(monkeypatch):
    """All 208 pool requests, exact and approximate, keep the sha256 of their
    exit code and stdout ("{code}\\n{stdout}") recorded in
    decompose_pool_digests.json, keyed "slot:variant"; CHANGES.md names
    each output re-recorded on purpose."""
    _assert_pinned(monkeypatch, "decompose_pool_digests.json")


def test_pool_digest_lists_the_moved_runs_by_slot():
    # what pool_digest.py --against prints: runs whose digest moved, or that
    # one side lacks, under the "kind:slot" they came from, and how many of
    # them changed exit code; a file of digests alone (the format before
    # exit codes were stored) reads with its exit codes unknown
    import pool_digest

    per = {"a": ["1", 0], "b": ["2", 0], "c": ["3", 2], "e": ["5", 2]}
    saved = {"a": ["1", 0], "b": ["9", 0], "d": ["4", 0], "e": ["6", 0]}
    old = {key: digest for key, (digest, _) in saved.items()}
    slots = {"a": "decompose:s1", "b": "decompose:s1", "c": "count:s2",
             "e": "decompose:s1"}
    moved = {"decompose:s1": ["b", "e"], "count:s2": ["c"],
             "(not in the pool)": ["d"]}
    assert pool_digest.differing(per, saved, slots) == moved
    assert pool_digest.differing(per, old, slots) == moved
    assert [pool_digest.exit_changes(keys, per, saved)
            for keys in moved.values()] == [1, 0, 0]
    assert pool_digest.exit_changes(["b"], per, old) is None
    assert pool_digest.exit_changes(["c", "d"], per, old) == 0


def test_count_digest_checks_a_slice_of_its_table(capsys):
    # the first seed of each row of count_digest.py's table keeps the digest
    # recorded at 8f94e0b, and --check exits 1 on another digest, naming
    # the estimates off the table
    import count_digest

    table = [(shape, trials, dict([next(iter(seeds.items()))]))
             for shape, trials, seeds in count_digest.TABLE]
    want = "228275c90c2fbe964d439fe140b946ff0ab50447d233638462c0b44ddbfe4fd2"
    count_digest.main(["--check", want], table)
    assert capsys.readouterr().out == f"9 {want}\n"
    with pytest.raises(SystemExit) as exc:
        count_digest.main(["--check", want], [((4, [2], 2), None, {0: 3})])
    assert "estimates off the table: ['4 2 2 None 0 2']" in exc.value.code


def test_count_digest_times_each_row(capsys):
    import count_digest

    table = [((4, [2], 2), 30, {0: 2}), ((4, [2, 1], 0), 30, {0: 6, 1: 6})]
    count_digest.main(["--time", "2"], table)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("3 ")
    rows = [line.rsplit(" ", 1) for line in lines[1:]]
    assert [row for row, _ in rows] == ["4 2 2 30", "4 2,1 0 30"]
    assert all(0 < float(seconds) < 5 for _, seconds in rows)


def test_every_certify_catalog_output_keeps_its_digest(monkeypatch):
    """All 377 certify catalog requests, in text and with --json, keep the
    sha256 of their exit code and stdout recorded in
    certify_catalog_digests.json at commit b2fe4b7, keyed by the argv."""
    _assert_pinned(monkeypatch, "certify_catalog_digests.json")


def test_certify_round_stays_on_the_modular_path(monkeypatch):
    """Every map of the certify round has full rank mod p at the witness it
    certifies at; a slip to the exact path would keep the digests above but
    lose the speed."""
    from canonform import canonicity

    requests = bench_module(monkeypatch, "workloads").certify_round()
    assert requests
    for req in requests:
        argv = list(req.argv)
        name = argv[argv.index("certify") + 1]
        params = dict(argv[i + 1].split("=", 1) for i, a in enumerate(argv)
                      if a == "--param")
        pmap = canonicity.build_map(name, **{
            k: cli._catalog_param(name, k, v) for k, v in params.items()})
        witness = pmap.witness
        if witness is None:
            rep = canonicity.jacobian_certify(
                pmap, trials=int(argv[argv.index("--trials") + 1]),
                seed=int(argv[argv.index("--seed") + 1]))
            witness = rep.witness
        assert canonicity._rank_mod_p(pmap, witness) == pmap.target, argv


def test_cli_import_loads_every_traced_module_but_not_numpy(monkeypatch):
    # tracing.install reads sys.modules["canonform.<mod>"] for every target
    # and wraps binary.np; numpy itself is left to the first request needing it
    modules = sorted({f"canonform.{m}" for m, _, _ in _span_targets(monkeypatch)})
    code = ("import json, sys; import canonform.cli;"
            " print(json.dumps([[m for m in sys.argv[2:] if m not in sys.modules],"
            " hasattr(sys.modules['canonform.binary'], 'np'),"
            " 'numpy' in sys.modules]))")
    assert _fresh(code, *modules) == [[], True, False]


def test_certify_round_never_imports_numpy(monkeypatch):
    rows = _fresh(_NUMPY_PER_REQUEST, "certify", "1")
    round_argvs = [req.argv for req in
                   bench_module(monkeypatch, "workloads").certify_round()]
    assert sorted(argv for argv, _, _, _ in rows[1:]) == sorted(round_argvs)
    assert [argv for argv, _, _, after in rows if after] == []


@pytest.mark.parametrize("workload", ["decompose", "count"])
def test_warmup_pays_for_the_numpy_import(workload):
    # the import then falls in the untimed warmup, not in a timed request
    [(argv, code, before, after)] = _fresh(_NUMPY_PER_REQUEST, workload, "0")
    assert (code, before, after) == (0, False, True), argv


def test_pool_digest_times_each_slot_over_its_runs():
    import pool_digest

    argv = ["decompose", "sylvester", "x^3 + y^3"]
    slots = {json.dumps(argv): "decompose:syl", json.dumps(["--json"] + argv):
             "decompose:syl", json.dumps(["decompose", "uppertri", "x*y"]): "decompose:up"}
    got = pool_digest.slot_seconds(slots, 3)
    assert list(got) == ["decompose:syl", "decompose:up"]
    assert all(0 < seconds < 5 for seconds in got.values())


def test_pool_digest_names_the_slot_that_sets_the_tail():
    import pool_digest

    slots, runs = {}, {}
    for i in range(26):  # 26 slots of 16 rounds: p95 of 416 is the 25th slowest
        argv = ["decompose", "slinky", f"x^3 + {i}*y^3"]
        for key, seconds in ((json.dumps(["--json"] + argv), [i, i + 0.5, i + 1]),
                             (json.dumps(argv), [100 - i] * 3)):
            slots[key], runs[key] = f"decompose:s{i}", seconds
    slots[json.dumps(["count", "s"])] = "count:s"  # not a decompose slot
    runs[json.dumps(["count", "s"])] = [1000]
    assert pool_digest.tail_slot(slots, runs) == ("decompose:s24", 24.5, 95.0, 416)


@pytest.mark.parametrize("names,want", [
    ("aaabbbbccc", "count:b"),    # the 5th and 6th fastest are both b's
    ("aaaaabbccc", "count:a/count:b"),
])
def test_pool_digest_names_the_count_slot_that_sets_the_median(names, want):
    import pool_digest

    slots, runs = {}, {}
    for i, name in enumerate(names):  # request i's median --json run: i + 0.2
        argv = ["--seed", str(i), "count", "reps", "--d", "4"]
        for key, seconds in ((json.dumps(["--json"] + argv), [i, i + 0.2, i + 9]),
                             (json.dumps(argv), [100 - i] * 3)):
            slots[key], runs[key] = f"count:{name}", seconds
    slots[json.dumps(["decompose", "x"])] = "decompose:x"  # not a count slot
    runs[json.dumps(["decompose", "x"])] = [0.1]
    slot, seconds, n = pool_digest.p50_slot(slots, runs)
    assert (slot, n) == (want, 10) and seconds == pytest.approx(4.7)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        wl = bench_module(mp, "workloads")
        for name, (argvs, count) in _PINNED.items():
            digests = cli_digests(argvs(wl))
            assert len(digests) == count, name
            (Path(__file__).parent / name).write_text(
                json.dumps(digests, indent=1) + "\n")
