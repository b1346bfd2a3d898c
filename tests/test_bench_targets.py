"""Every name the benchmark's tracer patches must exist in canonform.

bench/tracing.py wraps functions and methods by name; a renamed or deleted
one breaks only traced benchmark runs, so it is checked here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _span_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


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
