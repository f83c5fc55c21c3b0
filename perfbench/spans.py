"""Span tracing around the public functions of the hardylab modules.

`Tracer.install()` replaces every public function of the package modules by
a wrapper that records a span (name, start, end, parent).  It patches every
name bound to the function, so `from`-imports are wrapped too: elliptic's
`build_kernel` is charged to `flatness.build_kernel`, not to `elliptic`.
The CLI stage runners are wrapped through `cli._RUNNERS` as
`cli.stage.<name>`, because `cli.run` looks them up there.

Spans stay in memory; `summary()` turns them into self times (a span minus
its children), inclusive stage times and counts.  Methods and constructors
are not wrapped, so their time is charged to the calling function.
"""

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("spectral", "bessel", "evolution", "flatness", "elliptic",
           "angular", "control", "inverse", "cli")

# functions whose time and written bytes make up `cli.io`
IO_FUNCTIONS = ("cli.write_csv", "cli.write_json", "cli._digest")


def _rows(args, result):
    return len(np.atleast_1d(args["taus"]))


def _kernel_bytes(args, result):
    return result.values.nbytes + result.deriv_table.nbytes


def _volterra_steps(args, result):
    return len(args["g"]) - 1


def _verify_steps(args, result):
    return args["n_steps"]


def _duhamel_steps(args, result):
    return args["grid"].steps


def _written_bytes(args, result):
    return os.path.getsize(args["path"])


# span name -> (counter name, function of the bound arguments and the result)
COUNTERS = {
    "flatness.derivative_table": ("flatness.derivative_table.rows", _rows),
    "flatness.build_kernel": ("flatness.kernel.bytes", _kernel_bytes),
    "inverse.volterra_invert": ("inverse.volterra_invert.steps", _volterra_steps),
    "control.verify_control": ("control.verify_control.steps", _verify_steps),
    "evolution.duhamel_modal_source": ("evolution.duhamel_modal_source.steps", _duhamel_steps),
    "cli.write_csv": ("cli.io.bytes", _written_bytes),
    "cli.write_json": ("cli.io.bytes", _written_bytes),
}


def _span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    """Records spans for one process; install, run the work, uninstall."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = {}
        self._stack = []
        self._patches = []   # (namespace, key, original)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = counter[0]
                self.counts[key] = self.counts.get(key, 0) + counter[1](bound.arguments, result)
            return result

        return traced

    def _patch(self, namespace: dict, key, wrapper):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def install(self) -> None:
        package = importlib.import_module("hardylab")
        modules = [importlib.import_module(f"hardylab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for key, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__.startswith("hardylab."):
                    if not key.startswith("_") and not obj.__name__.startswith("_"):
                        wrappers.setdefault(obj, self._wrap(obj, _span_name(obj)))
        cli = importlib.import_module("hardylab.cli")
        wrappers[cli._digest] = self._wrap(cli._digest, "cli._digest")
        for mod in [package, *modules]:
            namespace = vars(mod)
            for key, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, key, wrappers[obj])
        for stage, runner in list(cli._RUNNERS.items()):
            self._patch(cli._RUNNERS, stage, self._wrap(runner, f"cli.stage.{stage}"))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Self seconds per span name and per module, inclusive stage seconds,
        call counts and work counts for the spans recorded since `reset`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for (name, start, end, _), inner in zip(self.spans, child):
            duration = end - start
            module = name.split(".", 1)[0]
            own = duration - inner
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + own
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"layer.{module}.s"] = out.get(f"layer.{module}.s", 0.0) + own
            if name.startswith("cli.stage."):
                out[f"{name}.s"] += inner   # stages report their wall time
            if name in IO_FUNCTIONS:
                out["cli.io.s"] = out.get("cli.io.s", 0.0) + own
        return out
