"""Per-layer tracing from outside the program.

``SpanTracer`` replaces the public functions of each canonform module (and
the methods of Form, Decomposition and ParamMap) with wrappers that record
a span: group, start, end, parent span and request id.  A name is patched
in every canonform module that imported it, so calls between modules are
seen.  Spans stay in memory until the run ends; a span's self time is its
duration minus the durations of its direct children.

``QQiCounter`` wraps the QQi operators in a pass of its own: they run
hundreds of thousands of times per request, so they are counted and timed
in aggregate (self time kept with a stack) rather than stored as spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, group).  A group names the layer and
# operation; the metrics below sum self time and calls over groups.
# Helpers that run per coefficient (dim, index_set, multinomial, Form.a ...)
# are left unwrapped: their time counts toward the calling span.
SPAN_TARGETS = [
    ("cli", "main", "cli"),
    ("forms", "Form.__mul__", "forms.mul"),
    ("forms", "Form.__rmul__", "forms.mul"),
    ("forms", "Form.__pow__", "forms.pow"),
    ("forms", "Form.substitute", "forms.substitute"),
    ("forms", "parse_form", "forms.parse"),
    ("forms", "parse_decomposition", "forms.parse"),
    ("forms", "format_form", "forms.format"),
    ("forms", "format_decomposition", "forms.format"),
    ("forms", "form_to_json", "forms.format"),
    ("forms", "Decomposition.to_json", "forms.format"),
    ("forms", "Decomposition.reconstruct", "forms.verify"),
    ("forms", "Decomposition.verify", "forms.verify"),
    ("forms", "forms_close", "forms.verify"),
    ("forms", "binary_factor", "forms.binary_factor"),
    ("forms", "Form.__add__", "forms.other"),
    ("forms", "Form.__sub__", "forms.other"),
    ("forms", "Form.__neg__", "forms.other"),
    ("forms", "Form.scale", "forms.other"),
    ("forms", "Form.partial", "forms.other"),
    ("forms", "Form.evaluate", "forms.other"),
    ("forms", "Form.approx", "forms.other"),
    ("forms", "Form.snapped", "forms.other"),
    ("forms", "Form.chop", "forms.other"),
    ("forms", "Decomposition.snapped", "forms.other"),
    ("forms", "linear_form", "forms.other"),
    ("forms", "power_of_linear", "forms.other"),
    ("forms", "restrict_form", "forms.other"),
    ("forms", "pad_form", "forms.other"),
    ("forms", "biermann_point", "forms.other"),
    ("linalg", "exact_rank", "linalg.exact_rank"),
    ("linalg", "exact_kernel", "linalg.exact_other"),
    ("linalg", "exact_solve", "linalg.exact_other"),
    ("linalg", "exact_det", "linalg.exact_other"),
    ("linalg", "exact_inverse", "linalg.exact_other"),
    ("linalg", "approx_echelon", "linalg.approx"),
    ("linalg", "approx_rank", "linalg.approx"),
    ("linalg", "approx_kernel", "linalg.approx"),
    ("linalg", "approx_solve", "linalg.approx"),
    ("linalg", "approx_det", "linalg.approx"),
    ("linalg", "approx_inverse", "linalg.approx"),
    ("linalg", "poly_roots", "linalg.approx"),
    ("linalg", "pencil_charpoly", "linalg.approx"),
    ("linalg", "cluster_roots", "linalg.approx"),
    ("apolarity", "apply_diff", "apolarity.apply_diff"),
    ("apolarity", "hankel_kernel", "apolarity.hankel_kernel"),
    ("apolarity", "pair", "apolarity.pair"),
    ("apolarity", "hankel", "apolarity.other"),
    ("apolarity", "apolar", "apolarity.other"),
    ("apolarity", "kernel_vector_form", "apolarity.other"),
    ("canonicity", "build_map", "canonicity.build_map"),
    ("canonicity", "ParamMap.evaluate", "canonicity.jacobian"),
    ("canonicity", "ParamMap.gradient", "canonicity.jacobian"),
    ("canonicity", "ParamMap.jacobian_rows", "canonicity.jacobian"),
    ("canonicity", "jacobian_certify", "canonicity.certify"),
    ("canonicity", "_rank_at", "canonicity.certify"),
    ("canonicity", "hyperplane_classify", "canonicity.other"),
    ("canonicity", "zerosum_verify", "canonicity.other"),
    ("canonicity", "lasker_wakeford_full_rank", "canonicity.other"),
    ("binary", "sylvester_decompose", "binary.sylvester"),
    ("binary", "mixed_decompose", "binary.mixed"),
    ("binary", "two_squares_all", "binary.two_squares"),
    ("binary", "quartic_normalize", "binary.quartic"),
    ("binary", "quartic_six_reps", "binary.quartic"),
    ("binary", "quartic_six_for_form", "binary.quartic"),
    ("binary", "quartic_two_fixed", "binary.quartic"),
    ("binary", "count_reps_monte_carlo", "binary.mc"),
    ("multivar", "uppertri", "multivar.uppertri"),
    ("multivar", "uppertri_pairs", "multivar.uppertri"),
    ("multivar", "pencil_diagonalize", "multivar.reichstein"),
    ("multivar", "reichstein_step", "multivar.reichstein"),
    ("multivar", "reichstein_full", "multivar.reichstein"),
    ("multivar", "slinky", "multivar.slinky"),
    ("multivar", "slowpoke", "multivar.slowpoke"),
    ("multivar", "quartic_lift", "multivar.quartic_lift"),
    ("multivar", "drab_family", "multivar.other"),
    ("multivar", "quadratic_matrix", "multivar.other"),
    ("enumeration", "divisors", "enumeration"),
    ("enumeration", "s_of_d", "enumeration"),
    ("enumeration", "partial_sum_S", "enumeration"),
    ("enumeration", "neat_enumerate", "enumeration"),
    ("enumeration", "neat_upto", "enumeration"),
    ("enumeration", "obstruction_A", "enumeration"),
    ("enumeration", "smallest_in_A", "enumeration"),
]

# ROADMAP size classes for exact rank (about 7, 28 and 85 rows).
RANK_CLASSES = ((10, "le10"), (30, "le30"), (None, "gt30"))

QQI_OPS = {
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add",
    "__truediv__": "div", "__rtruediv__": "div",
    "__eq__": "cmp",
}

# Per-layer metric -> (unit, better, how it is computed, the end-to-end
# metric and workload it should move).  ``self`` sums self time over the
# listed groups, ``calls`` counts their spans, ``count`` reads a counter,
# ``ms_per_call`` is self time per call in milliseconds.
_RANK = ["linalg.exact_rank.le10", "linalg.exact_rank.le30", "linalg.exact_rank.gt30"]
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", ("self", ["cli"]), "job_p50_ms on decompose"),
    "cli.calls": ("count", "lower", ("calls", ["cli"]), "job_p50_ms on decompose"),
    "cli.exit2": ("count", "lower", ("count", "cli.exit2"), "job_p50_ms on decompose"),
    "cli.exit3": ("count", "lower", ("count", "cli.exit3"), "job_p50_ms on decompose"),
    "forms.mul.calls": ("count", "lower", ("calls", ["forms.mul"]),
                        "jobs_per_s on certify, a little on decompose"),
    "forms.mul.self_s": ("s", "lower", ("self", ["forms.mul"]),
                         "jobs_per_s on certify, a little on decompose"),
    "forms.pow.self_s": ("s", "lower", ("self", ["forms.pow"]),
                         "jobs_per_s on certify, a little on decompose"),
    "forms.substitute.self_s": ("s", "lower", ("self", ["forms.substitute"]),
                                "job_p50_ms on decompose"),
    "forms.parse.self_s": ("s", "lower", ("self", ["forms.parse"]), "job_p50_ms on decompose"),
    "forms.format.self_s": ("s", "lower", ("self", ["forms.format"]), "job_p50_ms on decompose"),
    "forms.verify.self_s": ("s", "lower", ("self", ["forms.verify"]), "job_p50_ms on decompose"),
    "forms.binary_factor.self_s": ("s", "lower", ("self", ["forms.binary_factor"]),
                                   "job_p50_ms on decompose"),
    "forms.other.self_s": ("s", "lower", ("self", ["forms.other"]),
                           "job_p50_ms on decompose, jobs_per_s on certify"),
    "scalars.qqi_mul.calls": ("count", "lower", ("count", "scalars.qqi_mul.calls"),
                              "jobs_per_s on certify, job_tail_ms on decompose, not count"),
    "scalars.qqi_add.calls": ("count", "lower", ("count", "scalars.qqi_add.calls"),
                              "jobs_per_s on certify, job_tail_ms on decompose, not count"),
    "scalars.qqi_div.calls": ("count", "lower", ("count", "scalars.qqi_div.calls"),
                              "jobs_per_s on certify, job_tail_ms on decompose, not count"),
    "scalars.qqi.self_s": ("s", "lower", ("count", "scalars.qqi.self_s"),
                           "jobs_per_s on certify, job_tail_ms on decompose, not count"),
    "linalg.exact_rank.calls": ("count", "lower", ("calls", _RANK),
                                "job_tail_ms and jobs_per_s on certify"),
    "linalg.exact_rank.self_s": ("s", "lower", ("self", _RANK),
                                 "job_tail_ms and jobs_per_s on certify"),
    "linalg.exact_rank.le10.ms_per_call": ("ms", "lower", ("ms_per_call", _RANK[:1]),
                                           "job_tail_ms and jobs_per_s on certify"),
    "linalg.exact_rank.le30.ms_per_call": ("ms", "lower", ("ms_per_call", _RANK[1:2]),
                                           "job_tail_ms and jobs_per_s on certify"),
    "linalg.exact_rank.gt30.ms_per_call": ("ms", "lower", ("ms_per_call", _RANK[2:]),
                                           "job_tail_ms and jobs_per_s on certify"),
    "linalg.exact_other.self_s": ("s", "lower", ("self", ["linalg.exact_other"]),
                                  "job_p50_ms on decompose"),
    "linalg.approx.self_s": ("s", "lower", ("self", ["linalg.approx"]),
                             "job_p50_ms on decompose"),
    "apolarity.apply_diff.self_s": ("s", "lower", ("self", ["apolarity.apply_diff"]),
                                    "job_p50_ms on decompose"),
    "apolarity.hankel_kernel.self_s": ("s", "lower", ("self", ["apolarity.hankel_kernel"]),
                                       "job_p50_ms on decompose"),
    "apolarity.pair.calls": ("count", "lower", ("calls", ["apolarity.pair"]),
                             "job_p50_ms on decompose"),
    "canonicity.build_map.self_s": ("s", "lower", ("self", ["canonicity.build_map"]),
                                    "jobs_per_s on certify"),
    "canonicity.jacobian.self_s": ("s", "lower", ("self", ["canonicity.jacobian"]),
                                   "jobs_per_s on certify"),
    "canonicity.certify.self_s": ("s", "lower", ("self", ["canonicity.certify"]),
                                  "jobs_per_s on certify"),
    "canonicity.witnesses_tried": ("count", "lower", ("count", "canonicity.witnesses_tried"),
                                   "jobs_per_s on certify"),
    "binary.sylvester.self_s": ("s", "lower", ("self", ["binary.sylvester"]),
                                "job_p50_ms on decompose"),
    "binary.mixed.self_s": ("s", "lower", ("self", ["binary.mixed"]), "job_p50_ms on decompose"),
    "binary.quartic.self_s": ("s", "lower", ("self", ["binary.quartic"]),
                              "job_p50_ms on decompose"),
    "binary.two_squares.self_s": ("s", "lower", ("self", ["binary.two_squares"]),
                                  "job_p50_ms on decompose"),
    "binary.mc.self_s": ("s", "lower", ("self", ["binary.mc"]),
                         "jobs_per_s and job_p50_ms on count"),
    "binary.mc.solve_calls": ("count", "lower", ("count", "binary.mc.solve_calls"),
                              "jobs_per_s and job_p50_ms on count"),
    "binary.mc.solve_s": ("s", "lower", ("count", "binary.mc.solve_s"),
                          "jobs_per_s and job_p50_ms on count"),
    "binary.mc.estimate_sum": ("count", "higher", ("count", "binary.mc.estimate_sum"),
                               "jobs_per_s and job_p50_ms on count"),
    "multivar.slinky.self_s": ("s", "lower", ("self", ["multivar.slinky"]),
                               "job_tail_ms on decompose"),
    "multivar.reichstein.self_s": ("s", "lower", ("self", ["multivar.reichstein"]),
                                   "job_tail_ms on decompose"),
    "multivar.slowpoke.self_s": ("s", "lower", ("self", ["multivar.slowpoke"]),
                                 "job_tail_ms on decompose"),
    "multivar.uppertri.self_s": ("s", "lower", ("self", ["multivar.uppertri"]),
                                 "job_tail_ms on decompose"),
    "multivar.quartic_lift.self_s": ("s", "lower", ("self", ["multivar.quartic_lift"]),
                                     "job_tail_ms on decompose"),
    "enumeration.self_s": ("s", "lower", ("self", ["enumeration"]), "setup_s on certify"),
    "trace.overhead_frac": ("frac", "lower", ("count", "trace.overhead_frac"),
                            "nothing: tracing cost, traced vs untraced jobs_per_s"),
}


def _canonform_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "canonform" or name.startswith("canonform."))]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class _CountingLinalg:
    """numpy.linalg as binary.py sees it, with solve counted and timed."""

    def __init__(self, linalg, counters):
        self._linalg = linalg
        self._counters = counters

    def solve(self, a, b):
        t0 = time.perf_counter()
        try:
            return self._linalg.solve(a, b)
        finally:
            self._counters["binary.mc.solve_s"] += time.perf_counter() - t0
            self._counters["binary.mc.solve_calls"] += 1

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class _NumpyView:
    def __init__(self, np, counters):
        self._np = np
        self.linalg = _CountingLinalg(np.linalg, counters)

    def __getattr__(self, name):
        value = getattr(self._np, name)
        setattr(self, name, value)      # later lookups skip __getattr__
        return value


class SpanTracer:
    """Span recorder for the wrapped canonform layer boundaries."""

    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.spans: list[list] = []     # [group id, start, end, parent, request]
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches = _Patches()

    def _group_id(self, name: str) -> int:
        if name not in self._gid:
            self._gid[name] = len(self.groups)
            self.groups.append(name)
        return self._gid[name]

    def _wrap(self, fn, group, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        gid = self._group_id(group) if isinstance(group, str) else None

        def wrapper(*args, **kwargs):
            rec = [gid if gid is not None else tracer._group_id(group(args)),
                   0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _hooks(self):
        counters = self.counters

        def rank_group(args):
            rows = len(args[0])
            return "linalg.exact_rank." + next(
                label for bound, label in RANK_CLASSES if bound is None or rows <= bound)

        def witness(_result):
            counters["canonicity.witnesses_tried"] += 1

        def estimate(result):
            counters["binary.mc.estimate_sum"] += result

        def exit_code(code):
            if code in (2, 3):
                counters[f"cli.exit{code}"] += 1

        return {"exact_rank": (rank_group, None), "_rank_at": (None, witness),
                "count_reps_monte_carlo": (None, estimate), "main": (None, exit_code)}

    def install(self):
        mods = _canonform_modules()
        hooks = self._hooks()
        for modname, target, group in SPAN_TARGETS:
            mod = sys.modules[f"canonform.{modname}"]
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                self._patches.set(cls, meth, self._wrap(cls.__dict__[meth], group))
                continue
            orig = getattr(mod, target)
            group_fn, on_result = hooks.get(target, (None, None))
            wrapped = self._wrap(orig, group_fn or group, on_result)
            for m in mods:
                if getattr(m, target, None) is orig:
                    self._patches.set(m, target, wrapped)
        binary = sys.modules["canonform.binary"]
        self._patches.set(binary, "np", _NumpyView(binary.np, self.counters))

    def uninstall(self):
        self._patches.restore()

    def aggregate(self) -> tuple[dict, dict]:
        """Self seconds and call counts per group."""
        child = [0.0] * len(self.spans)
        for g, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for k, (g, start, end, _, _) in enumerate(self.spans):
            name = self.groups[g]
            self_s[name] += end - start - child[k]
            calls[name] += 1
        return self_s, calls

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"groups": self.groups, "fields": ["group", "start", "end",
                                                         "parent", "request"],
                       "spans": self.spans}, fh)


class QQiCounter:
    """Counts and self time of the QQi arithmetic operators."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s = 0.0
        self._patches = _Patches()

    def install(self):
        qqi = sys.modules["canonform.scalars"].QQi
        stack: list[float] = []
        clock = time.perf_counter
        counter = self

        def wrap(fn, kind):
            def wrapper(*args):
                counter.calls[kind] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    dt = clock() - t0
                    counter.self_s += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
            return wrapper

        for name, kind in QQI_OPS.items():
            self._patches.set(qqi, name, wrap(qqi.__dict__[name], kind))

    def uninstall(self):
        self._patches.restore()


def layer_metrics(tracer: SpanTracer, qqi: QQiCounter, overhead_frac: float) -> dict:
    self_s, calls = tracer.aggregate()
    counters = Counter(tracer.counters)
    counters["scalars.qqi_mul.calls"] = qqi.calls["mul"]
    counters["scalars.qqi_add.calls"] = qqi.calls["add"]
    counters["scalars.qqi_div.calls"] = qqi.calls["div"]
    counters["scalars.qqi.self_s"] = qqi.self_s
    counters["trace.overhead_frac"] = overhead_frac
    out = {}
    for name, (unit, _, (how, arg), _) in LAYER_METRICS.items():
        if how == "self":
            value = sum(self_s.get(g, 0.0) for g in arg)
        elif how == "calls":
            value = sum(calls.get(g, 0) for g in arg)
        elif how == "ms_per_call":
            n = sum(calls.get(g, 0) for g in arg)
            value = 1000 * sum(self_s.get(g, 0.0) for g in arg) / n if n else 0.0
        else:
            value = counters.get(arg, 0)
        out[name] = {"value": value, "unit": unit}
    return out
