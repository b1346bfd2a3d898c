"""canonform.LazyModule: numpy is imported on the first attribute read."""

import builtins
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from canonform import LazyModule, binary, linalg, multivar


@pytest.fixture
def fresh_module(tmp_path, monkeypatch):
    """The name of a module on sys.path that nothing has imported yet; its
    body counts its own runs and sleeps, so a racing import would show."""
    name = f"_lazy_target_{tmp_path.name}"
    (tmp_path / f"{name}.py").write_text(
        "import builtins, sys, time\n"
        "builtins._lazy_runs += 1\n"
        "time.sleep(0.05)\n"
        "ME = sys.modules[__name__]\n"
        "VALUE = 42\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr("builtins._lazy_runs", 0, raising=False)
    yield name
    sys.modules.pop(name, None)


def test_first_read_imports_and_rebinds_only_its_own_name(fresh_module):
    ns = {}
    stand_in = LazyModule(fresh_module, ns, "mod")
    ns.update(mod=stand_in, alias=stand_in, other="untouched")
    assert fresh_module not in sys.modules
    assert stand_in.VALUE == 42
    module = sys.modules[fresh_module]
    assert ns == {"mod": module, "alias": stand_in, "other": "untouched"}
    assert stand_in.VALUE == 42     # a kept reference still works


def test_a_name_rebound_first_is_left_alone(fresh_module):
    # bench/tracing.py puts a counting view of numpy in binary.np; the view
    # reads through the stand-in it wraps and must stay in place
    ns = {}
    stand_in = LazyModule(fresh_module, ns, "mod")
    view = type("View", (), {"__getattr__": lambda self, a: getattr(stand_in, a)})()
    ns["mod"] = view
    assert ns["mod"].VALUE == 42
    assert ns["mod"] is view
    assert fresh_module in sys.modules


def test_concurrent_first_reads_get_one_module(fresh_module):
    ns = {}
    ns["mod"] = stand_in = LazyModule(fresh_module, ns, "mod")
    start = threading.Barrier(8)

    def first_read(_):
        start.wait()
        return stand_in.ME

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(first_read, range(8)))
    module = sys.modules[fresh_module]
    assert all(r is module for r in results)
    assert ns["mod"] is module
    assert builtins._lazy_runs == 1


def test_numeric_modules_hold_numpy_itself_after_first_read():
    import numpy

    for mod in (linalg, binary, multivar):
        assert mod.np.linalg is numpy.linalg
        assert mod.np is numpy
