"""The package's public names and its deferred submodules.

Importing canonform runs none of its submodules; all but errors, scalars,
forms and cli are registered in sys.modules and run, into the same module
object, on the first read of a name they lack or the first write.  Each
check of what has run uses a new interpreter.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import canonform
from tests_support import fresh_json

DEFERRED = ["apolarity", "binary", "canonicity", "commands",
            "decompositions", "enumeration", "linalg", "multivar"]
CORE = ["cli", "errors", "forms", "scalars"]

_IMPORT = "import json, sys\nimport canonform\n"
_REPORT = """
print(json.dumps([result, sorted(
    name.split(".")[1] for name, m in sys.modules.items()
    if name.startswith("canonform.") and not isinstance(m, canonform._Deferred))]))
"""


def _ran(body, *args):
    """[result, the canonform submodules whose code has run] after body,
    which sets result, runs in a new interpreter."""
    return fresh_json(_IMPORT + body + _REPORT, *args)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from canonform import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(canonform.__all__)
    for name in canonform.__all__:
        owner = importlib.import_module(f"canonform.{canonform._OWNER[name]}")
        assert ns[name] is getattr(owner, name), name


def test_dir_lists_every_public_name():
    assert set(canonform.__all__) <= set(dir(canonform))
    assert set(DEFERRED) <= set(dir(canonform))


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError,
                       match="module 'canonform' has no attribute 'no_such'"):
        canonform.no_such


def test_bare_import_runs_no_submodule():
    # the import machinery and dataclasses read dunders; they must not run it
    result, ran = _ran(
        "mod = sys.modules['canonform.binary']\n"
        "result = [mod.__name__, mod.__spec__.name, mod.__file__ is not None,\n"
        "          '__builtins__' in mod.__dict__, hasattr(mod, '__path__'),\n"
        "          sorted(m for m in sys.modules if m.startswith('canonform.'))]")
    assert result == ["canonform.binary", "canonform.binary", True, False, False,
                      [f"canonform.{m}" for m in DEFERRED]]
    assert ran == []


BINARY = ["apolarity", "binary", "commands", "decompositions", "enumeration",
          "linalg"]


@pytest.mark.parametrize("argv, runs", [
    (["certify", "sextican"], ["canonicity"]),
    (["classify-hyperplane", "1.5,0,2,1"], ["canonicity"]),
    (["enumerate", "neat", "--r", "2"], ["commands", "enumeration"]),
    (["count", "s", "--d", "15"], ["commands", "enumeration"]),
    (["count", "reps", "--d", "4", "--e", "2", "--m", "2"], BINARY),
    (["decompose", "sylvester", "x^3 + 2*y^3"], BINARY),
    (["decompose", "slowpoke", "x^3 + y^3 + z^3"],
     ["commands", "decompositions", "linalg", "multivar"]),
])
def test_each_subcommand_runs_only_the_modules_it_uses(argv, runs):
    code, ran = _ran("import contextlib, io, canonform.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    result = canonform.cli.main(sys.argv[1:])", *argv)
    assert code == 0
    assert ran == sorted(CORE + runs)


def test_cli_import_runs_only_the_form_core():
    # certify never runs linalg, the decompose half of the forms or the
    # handlers of the other subcommands, and the names moved there are
    # served, not defined, by forms
    result, ran = _ran("import canonform.cli\nresult = [sorted(\n"
                       "    m for m in sys.modules if m.startswith('canonform')),\n"
                       "    sorted(set(vars(canonform.forms)) & canonform.forms._MOVED)]")
    assert ran == CORE
    assert result == [sorted(["canonform"] + [f"canonform.{m}"
                                              for m in CORE + DEFERRED]), []]


def _names_read_from(module: str) -> set:
    """Every name the tests, bench/tracing.py's SPAN_TARGETS and
    canonform.__all__ read from canonform.<module>, Class.method for a
    method: what a test imports from it, or reads from a name bound to it."""
    here = Path(__file__).parent
    names = set()
    for path in here.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == f"canonform.{module}":
                names |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names.add(node.attr)
    tracing = ast.parse((here.parent / "bench" / "tracing.py").read_text())
    targets = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                   and node.targets[0].id == "SPAN_TARGETS")
    names |= {target for owner, target, _ in ast.literal_eval(targets)
              if owner == module}
    return names | {name for name in canonform.__all__
                    if canonform._OWNER[name] == module}


@pytest.mark.parametrize("module, some", [
    ("cli", {"main", "build_parser", "_catalog_param"}),
    ("forms", {"Form.substitute", "parse_form", "form_to_json", "_Reader"}),
])
def test_every_name_read_from_cli_and_forms_resolves(module, some):
    names = sorted(_names_read_from(module) - {"poly_roots"})  # read to fail
    assert some <= set(names)
    missing, _ = _ran(f"""
import canonform.{module} as mod
result = []
for name in json.loads(sys.argv[1]):
    owner, _, attr = name.rpartition(".")
    try:
        getattr(getattr(mod, owner) if owner else mod, attr)
    except AttributeError:
        result.append(name)
""", json.dumps(names))
    assert missing == []


def test_forms_serves_the_decomposition_half():
    from canonform import decompositions, forms

    for name in forms._MOVED:
        assert getattr(forms, name) is getattr(decompositions, name), name
    # a private name of decompositions is read from there
    assert not any(name.startswith("_") for name in forms._MOVED)
    assert not hasattr(forms, "_exact_product")
    assert {canonform._OWNER[name] for name in ("Decomposition", "Term",
            "binary_factor", "biermann_point", "parse_decomposition")} == {
        "decompositions"}
    with pytest.raises(AttributeError,
                       match="module 'canonform.forms' has no attribute 'poly_roots'"):
        forms.poly_roots
    # reading a moved name is what runs the module
    result, ran = _ran("import canonform.forms as forms\n"
                       "result = [sorted(n for n, m in sys.modules.items()\n"
                       "          if n.startswith('canonform.') and\n"
                       "          not isinstance(m, canonform._Deferred)),\n"
                       "          forms.Decomposition.__module__]")
    assert result == [["canonform.errors", "canonform.forms", "canonform.scalars"],
                      "canonform.decompositions"]
    assert ran == ["decompositions", "errors", "forms", "linalg", "scalars"]


def test_cli_serves_no_commands_name():
    from canonform import cli

    with pytest.raises(AttributeError,
                       match="module 'canonform.cli' has no attribute 'poly_roots'"):
        cli.poly_roots
    # the handlers are read from commands; probing one of their names on cli,
    # or any other name it lacks, runs nothing
    result, ran = _ran("import canonform.cli as cli\n"
                       "result = [hasattr(cli, n) for n in ('_sheared', 'enumeration',\n"
                       "          '_cmd_count', 'no_such', 'parse_form')]")
    assert result == [False] * 5
    assert ran == CORE


def test_concurrent_first_reads_run_the_code_once():
    # the code is held up before it runs, so a reader that did not wait for
    # it would find the name missing
    result, ran = _ran("""
import threading, time
from concurrent.futures import ThreadPoolExecutor
mod = canonform.enumeration
loader = mod.__spec__.loader
runs = []
def exec_module(module, run=loader.exec_module):
    runs.append(module)
    time.sleep(0.05)
    run(module)
loader.exec_module = exec_module
start = threading.Barrier(8)
sys.setswitchinterval(1e-6)
def first_read(_):
    start.wait()
    return mod.s_of_d
with ThreadPoolExecutor(max_workers=8) as pool:
    got = list(pool.map(first_read, range(8)))
result = [len(runs), runs[0] is mod, all(f is mod.s_of_d for f in got),
          mod.s_of_d(15)]
""")
    assert result == [1, True, True, 2]
    assert ran == ["enumeration"]


def test_a_write_before_any_read_survives_the_run():
    # smallest_in_A reads obstruction_A from the module's globals
    result, ran = _ran("""
mod = canonform.enumeration
mod.obstruction_A = lambda d, n: n == 7
result = [type(mod).__name__, mod.smallest_in_A(4), mod.obstruction_A(4, 12)]
""")
    assert result == ["module", 7, False]
    assert ran == ["enumeration"]



def test_star_import_and_dir_run_a_deferred_module():
    # the submodules define no __all__, so star import reads their names
    # from __dict__, which holds only dunders until the code has run
    result, ran = _ran("""
names = {}
exec("from canonform.multivar import *", names)
result = [callable(names.get("slinky")), "s_of_d" in dir(canonform.enumeration)]
""")
    assert result == [True, True]
    # multivar imports from decompositions and linalg, which run with it
    assert sorted(set(ran) & set(DEFERRED)) == ["decompositions", "enumeration",
                                                "linalg", "multivar"]


def test_bare_import_serves_every_submodule_as_an_attribute():
    result, ran = _ran("""
result = [name for name in ("errors", "forms", "linalg", "scalars", "cli")
          if getattr(canonform, name) is not sys.modules["canonform." + name]]
""")
    assert result == []
    assert ran == CORE
    assert set(CORE) <= set(dir(canonform))


def test_code_that_raises_stays_pending_and_raises_again():
    result, ran = _ran("""
mod = canonform.enumeration
loader = mod.__spec__.loader
def exec_module(module, run=loader.exec_module):
    loader.exec_module = run
    raise RuntimeError("first run")
loader.exec_module = exec_module
try:
    mod.s_of_d
    result = ["no error"]
except RuntimeError as e:
    result = [str(e)]
result += [type(mod).__name__, mod.s_of_d(15), type(mod).__name__]
""")
    assert result == ["first run", "_Deferred", 2, "module"]
    assert ran == ["enumeration"]
