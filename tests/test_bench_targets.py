"""Checks that tie the benchmark's files to canonform, reading them only.

bench/tracing.py wraps functions and methods by name; a renamed or deleted
one breaks only traced benchmark runs, so it is checked here instead.  The
certify round's outputs must keep the digests in bench/reference.json.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from canonform import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def _span_targets(monkeypatch):
    return _bench_module(monkeypatch, "tracing").SPAN_TARGETS


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


def test_certify_round_keeps_its_reference_digests(monkeypatch):
    refs = json.loads((BENCH / "reference.json").read_text())["requests"]
    requests = _bench_module(monkeypatch, "workloads").certify_round()
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
    workloads = _bench_module(monkeypatch, "workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks imports it
    checks = _bench_module(monkeypatch, "checks")
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


def test_certify_round_stays_on_the_modular_path(monkeypatch):
    """Every map of the certify round has full rank mod p at the witness it
    certifies at; a slip to the exact path would keep the digests above but
    lose the speed."""
    from canonform import canonicity

    requests = _bench_module(monkeypatch, "workloads").certify_round()
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
        assert canonicity._full_rank_mod_p(pmap, witness), argv
