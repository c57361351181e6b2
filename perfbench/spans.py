"""External tracer: wraps the program's layer functions from outside `src/`.

`Tracer.install()` wraps every public function and public method defined
in the traced modules, plus the named private stages in `PRIVATE`, and
rebinds each wrapped function in every `rankaudit` module that binds it
(re-exports included), so a call is timed whichever name it goes through.
Modules are found through `sys.modules`, because the package attribute
`rankaudit.aggregate` is the re-exported function, not the module.

Each call records one span (name, start, end, parent) in memory; the
spans are written out once, after the command returns.  Self time is
derived from the spans: a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("scorebank", "aggregate", "ranking", "rankstats", "significance", "reuse", "report")
# Private helpers that are stages of their own: the subset sampler.
PRIVATE = {"rankstats": ("_sampled_subsets",)}


def _layer_modules() -> dict[str, object]:
    mods = {}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module(f"rankaudit.{layer}")
        except ImportError:
            continue  # a removed module is reported as absent metrics
    return mods


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.installed: list[str] = []
        self.layers: list[str] = []
        self.audits: list[list] = []  # [size, evaluated, exact] per audit result
        self._name: list[str] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._stack = [-1]

    def _wrap(self, fn, name: str, on_result=None):
        names, starts, ends, parents, stack = (
            self._name, self._start, self._end, self._parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        self.installed.append(name)
        return traced

    def _record_audit(self, result) -> None:
        self.audits.append([getattr(result, "subset_size", None),
                            getattr(result, "evaluated", None),
                            getattr(result, "exact", None)])

    def install(self) -> None:
        replacements = {}
        modules = _layer_modules()
        self.layers = list(modules)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and (
                        not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
                    hook = self._record_audit if name == "rankstats.unique_topk_audit" else None
                    replacements[obj] = self._wrap(obj, name, hook)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not meth_name.startswith("_"):
                            setattr(obj, meth_name, self._wrap(meth, f"{name}.{meth_name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rankaudit" and not mod_name.startswith("rankaudit."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(mod, attr, replacements[obj])

    def summary(self, run_s: float) -> dict:
        """Per-function calls, inclusive and self seconds; per-layer self seconds."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        root_s = 0.0
        for i, p in enumerate(self._parent):
            if p < 0:
                root_s += dur[i]
            else:
                child[p] += dur[i]
        functions: dict[str, dict] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.installed}
        layers = dict.fromkeys(self.layers, 0.0)
        for i, name in enumerate(self._name):
            f = functions[name]
            f["calls"] += 1
            f["s"] += dur[i]
            f["self_s"] += dur[i] - child[i]
            f["durations"].append(dur[i])
            layers[name.split(".", 1)[0]] += dur[i] - child[i]
        for f in functions.values():
            d = sorted(f.pop("durations"))
            f["us_p50"] = 1e6 * d[len(d) // 2] if d else 0.0
            f["us_p99"] = 1e6 * d[min(len(d) - 1, int(0.99 * len(d)))] if d else 0.0
        return {"run_s": run_s, "root_s": root_s, "spans": n,
                "audits": self.audits, "functions": functions, "layers": layers}

    def write(self, path: Path) -> None:
        """Write the spans as CSV: run_id, span, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("run_id,span,name,start,end,parent\n")
            for i, name in enumerate(self._name):
                fh.write(f"{self.run_id},{i},{name},{self._start[i]!r},"
                         f"{self._end[i]!r},{self._parent[i]}\n")
