"""canonform: canonical decompositions of complex homogeneous forms.

Library plus command-line tool for Waring-type decompositions of binary and
n-ary forms, completion of squares and cubes, mixed-power representations,
Jacobian full-rank certification of canonical-form candidates, and the
number-theoretic enumeration of the mixed-power families.

Importing the package runs none of its submodules: public names are served
from them on first read (PEP 562), and every submodule but errors, scalars,
forms and cli is deferred.
"""

import importlib.util
import sys
from _thread import RLock
from types import ModuleType

_PUBLIC = {
    "apolarity": "HankelMatrix apply_diff hankel hankel_kernel pair",
    "binary": """MixedSpec QuarticNormal count_reps_monte_carlo mixed_decompose
        quartic_normalize quartic_six_for_form quartic_six_reps
        quartic_two_fixed sylvester_decompose two_squares_all""",
    "canonicity": """CertifyReport ParamMap build_map catalog_names
        hyperplane_classify jacobian_certify zerosum_verify""",
    "enumeration": """NeatForm neat_enumerate neat_upto obstruction_A
        partial_sum_S s_of_d smallest_in_A""",
    "errors": """AllZero BadShape CanonformError DegenerateInput DegenerateLambda
        DegeneratePencil DegenerateStage LeadingZero NormalizationFailed
        NotGeneric ParseError PivotZero RepeatedRoot ShapeMismatch UnknownName
        UnsupportedShape ZeroForm""",
    "decompositions": """Decomposition Term biermann_point binary_factor
        form_from_json form_to_json forms_close parse_decomposition parse_form
        power_of_linear random_form""",
    "forms": """Form dim index_set linear_coeffs linear_form monomial_form
        multinomial""",
    "multivar": """PencilDiag TriangularSquares pencil_diagonalize quartic_lift
        reichstein_full reichstein_step slinky slowpoke uppertri""",
    "scalars": "EPS_DEFAULT QQi exact_sqrt snap_scalar",
}
_OWNER = {name: mod for mod, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {*_PUBLIC, "cli", "commands", "linalg"}
__all__ = sorted(_OWNER)

_LOCK = RLock()  # held while a deferred module's code runs
_PENDING = {f"{__name__}.{name}" for name in  # the code has not started
            _SUBMODULES - {"cli", "errors", "forms", "scalars"}}


class LazyModule:
    """Stands for a module until an attribute of it is first read; that read
    imports it and rebinds `namespace[alias]`, if it still holds this
    stand-in, so later reads are plain global lookups."""

    def __init__(self, name: str, namespace: dict, alias: str):
        self._name, self._namespace, self._alias = name, namespace, alias

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name)
        if self._namespace.get(self._alias) is self:
            self._namespace[self._alias] = module
        return getattr(module, attr)


class _Deferred(ModuleType):
    """A submodule whose code has not run.  Reading a name it lacks or its
    `__all__`, listing its names, or writing any name runs the code first;
    other dunder reads, which the import machinery makes, do not."""

    def __getattr__(self, name):
        if not name.startswith("__") or name == "__all__":
            _run(self)
        return ModuleType.__getattribute__(self, name)

    def __dir__(self):
        _run(self)
        return ModuleType.__dir__(self)

    def __setattr__(self, name, value):
        _run(self)
        ModuleType.__setattr__(self, name, value)


def _run(module):
    # later first readers wait here (one from the running thread sees the
    # module half-built); code that raises stays pending and raises again
    with _LOCK:
        if module.__name__ in _PENDING:
            _PENDING.remove(module.__name__)
            try:
                module.__spec__.loader.exec_module(module)
            except BaseException:
                _PENDING.add(module.__name__)
                raise
            ModuleType.__setattr__(module, "__class__", ModuleType)


for _name in _PENDING:
    _module = importlib.util.module_from_spec(importlib.util.find_spec(_name))
    _module.__class__ = _Deferred
    sys.modules[_name] = globals()[_name.rpartition(".")[2]] = _module
del _name, _module


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
