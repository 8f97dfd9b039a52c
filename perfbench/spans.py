"""Outside-in span recorder for the traced benchmark run.

The library is not modified.  Instead, each traced function is wrapped
where its callers look it up (``qcap.capacity.nelder_mead_batch`` and
``qcap.core.nelder_mead_batch`` are separate lookup sites of the same
function), and the objective handed to the optimizer is wrapped on every
call.  Spans are kept in memory as parallel lists with the index of
their parent span, written out once at the end, and self time is the
span's duration minus the durations of its direct children (calls are
single-threaded and properly nested, so children never overlap).

A lookup site that no longer exists is skipped; a layer with no site
left is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import warnings
from time import perf_counter

# span name -> lookup sites (module, attribute[, dict key])
LAYERS = {
    "cli.main": [("qcap.cli", "main")],
    "capacity.chi_capacity_numeric": [("qcap.capacity", "chi_capacity_numeric"),
                                      ("qcap.cli", "chi_capacity_numeric")],
    "capacity.unital_capacity": [("qcap.capacity", "unital_capacity"),
                                 ("qcap.cli", "unital_capacity")],
    "optimize.nelder_mead_batch": [("qcap.optimize", "nelder_mead_batch"),
                                   ("qcap.capacity", "nelder_mead_batch"),
                                   ("qcap.core", "nelder_mead_batch")],
    "core.image_radius": [("qcap.core", "image_radius")],
    "core.is_interior": [("qcap.core", "is_interior"),
                         ("qcap.sinkhorn", "is_interior")],
    "core.is_completely_positive": [("qcap.core", "is_completely_positive"),
                                    ("qcap.cli", "is_completely_positive")],
    "sinkhorn.family_scaling_pair": [("qcap.sinkhorn", "family_scaling_pair"),
                                     ("qcap.capacity", "family_scaling_pair"),
                                     ("qcap.cli", "family_scaling_pair")],
    "sinkhorn.family_unital_params": [("qcap.sinkhorn", "family_unital_params"),
                                      ("qcap.capacity", "family_unital_params"),
                                      ("qcap.cli", "family_unital_params")],
    "sinkhorn.sinkhorn_iterate": [("qcap.sinkhorn", "sinkhorn_iterate"),
                                  ("qcap.cli", "sinkhorn_iterate")],
    "sinkhorn.verify_decomposition": [("qcap.sinkhorn", "verify_decomposition"),
                                      ("qcap.cli", "verify_decomposition")],
    "sinkhorn.unital_diagonalize": [("qcap.sinkhorn", "unital_diagonalize")],
    "protocol.verify_rescaling_identity": [("qcap.protocol", "verify_rescaling_identity")],
    "protocol.success_probability": [("qcap.protocol", "success_probability")],
    "verify.core_suite": [("qcap.verify", "core_suite"),
                          ("qcap.verify", "SUITES", "core")],
    "verify.sinkhorn_suite": [("qcap.verify", "sinkhorn_suite"),
                              ("qcap.verify", "SUITES", "sinkhorn")],
    "verify.protocol_suite": [("qcap.verify", "protocol_suite"),
                              ("qcap.verify", "SUITES", "protocol")],
    "render.render_chart": [("qcap.render", "render_chart")],
}

OBJECTIVE = "optimize.objective"
OPTIMIZER = "optimize.nelder_mead_batch"
SINKHORN = "sinkhorn.sinkhorn_iterate"


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.warnings = 0  # warning events inside traced calls
        self._restore: list[tuple] = []
        self._warn_ctx = None

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def span_fn(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` wrapped so that every call records one span."""
        name_id = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(perf_counter())
            self.span_end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- per-layer hooks ----------------------------------------------------

    def _objective_call(self, args, kwargs):
        self.count(OBJECTIVE + ".rows", len(args[0]))
        return args, kwargs

    def _optimizer_call(self, args, kwargs):
        func, rest = args[0], args[1:]
        return (self.span_fn(OBJECTIVE, func, on_call=self._objective_call),
                *rest), kwargs

    def _optimizer_result(self, result):
        converged = result.converged
        self.count(OPTIMIZER + ".iterations", result.iterations)
        self.count(OPTIMIZER + ".members", len(converged))
        self.count(OPTIMIZER + ".members_converged", int(converged.sum()))
        # the lockstep loop only exits early once every member converged
        self.count(OPTIMIZER + ".cap_hits", 0 if converged.all() else 1)

    def _sinkhorn_result(self, pair):
        self.count(SINKHORN + ".sweeps", pair.iterations or 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            OPTIMIZER: (self._optimizer_call, self._optimizer_result),
            SINKHORN: (None, self._sinkhorn_result),
        }
        for name, sites in LAYERS.items():
            on_call, on_result = hooks.get(name, (None, None))
            found = False
            for site in sites:
                holder, key = _resolve(site)
                if holder is None:
                    continue
                original = _get(holder, key)
                _set(holder, key, self.span_fn(name, original, on_call, on_result))
                self._restore.append((holder, key, original))
                found = True
            if not found:
                self.absent.append(name)
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning

    def uninstall(self) -> None:
        if self._warn_ctx is not None:
            self._warn_ctx.__exit__(None, None, None)
            self._warn_ctx = None
        for holder, key, original in reversed(self._restore):
            _set(holder, key, original)
        self._restore.clear()

    def _count_warning(self, *args, **kwargs) -> None:
        # only warnings raised inside traced calls, not by the checks
        if self._stack:
            self.warnings += 1

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Inclusive time counts only the outermost span of a name, so a
        name that recurses into itself is not counted twice.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            if not self._has_ancestor_named(i):
                entry["s"] += dur[i]
        return totals

    def _has_ancestor_named(self, i: int) -> bool:
        name = self.span_name[i]
        parent = self.span_parent[i]
        while parent >= 0:
            if self.span_name[parent] == name:
                return True
            parent = self.span_parent[parent]
        return False

    def write(self, path) -> None:
        """Spans as CSV: id, parent id, name, start and end in seconds."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - origin:.9f},"
                         f"{self.span_end[i] - origin:.9f}\n")


def _resolve(site):
    """(holder, key) for a lookup site, or (None, None) if it is gone."""
    module_name, attr = site[0], site[1]
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None, None
    if not hasattr(module, attr):
        return None, None
    if len(site) == 2:
        return module, attr
    container = getattr(module, attr)
    return (container, site[2]) if site[2] in container else (None, None)


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def _set(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)
