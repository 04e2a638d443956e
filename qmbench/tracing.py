"""Spans around levyqm's public functions, installed from outside.

``Tracer.install()`` replaces every public module-level function of the
seven layer modules with a wrapper that times the call, wherever
levyqm holds a reference to it: the defining module, the package
namespace and every module that imported the name (``levyqm.cli``
imports ``transition_density``, ``levyqm.densities`` imports
``bessel_k``, ...).  A CLI span therefore splits into the layer spans it
caused.  No library file is touched, and ``uninstall()`` puts the
original functions back.

Spans are aggregated as they close rather than stored one by one: per
function the calls, raised calls, inclusive time, self time (inclusive
time minus the time of the spans it caused) and, where the function's
cost scales with one, its work count (points, increments or values) and
time per bucket (array or scalar calls, step count).  A layer's self time
is the sum of its functions' self times.  ``job()`` opens the root span
of one job, so that a job's time splits exactly into the layers' self
times and the benchmark's own remainder (input generation and checks).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("exponents", "densities", "evolution", "spectrum", "propagators",
          "sampler", "cli")


def _work(name: str):
    """(work count, bucket) of one call, for functions whose cost scales."""
    if name == "exponents.bessel_k":
        return lambda a, k: _bucketed(np.size(_arg(a, k, 1, "z")))
    if name in ("densities.levy_density_1d", "densities.levy_density_3d"):
        return lambda a, k: _bucketed(np.size(_arg(a, k, 0, "x", "r")))
    if name == "densities.transition_density":
        return lambda a, k: (_arg(a, k, 3, "grid").n, "all")
    if name == "sampler.sample_endpoints":
        def work(a, k):
            steps = _arg(a, k, 4, "steps", default=1)
            return _arg(a, k, 3, "n_paths") * steps, f"steps{steps}"
        return work
    if name == "cli.write_csv":
        return lambda a, k: (len(_arg(a, k, 1, "header"))
                             * len(np.asarray(_arg(a, k, 2, "columns")[0])), "all")
    return None


def _arg(args, kwargs, pos: int, *names, default=None):
    if len(args) > pos:
        return args[pos]
    for name in names:
        if name in kwargs:
            return kwargs[name]
    return default


def _bucketed(n):
    return int(n), ("array" if n > 1 else "scalar")


class FunctionStats:
    __slots__ = ("calls", "failed", "total", "self_time", "buckets")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.total = 0.0
        self.self_time = 0.0
        self.buckets = {}         # bucket -> [work, inclusive seconds]


class Tracer:
    """Aggregating span recorder for one process."""

    def __init__(self):
        self.stats = {}           # "layer.function" -> FunctionStats
        self.job_time = 0.0       # summed root (job) span durations
        self.jobs = 0
        self._stack = []          # child-time accumulator per open span
        self._saved = []          # (namespace, attribute, original)

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, FunctionStats())
        work_of = _work(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - child
                if work_of is not None:
                    work, bucket = work_of(args, kwargs)
                    acc = stats.buckets.setdefault(bucket, [0, 0.0])
                    acc[0] += work
                    acc[1] += elapsed
        return span

    @contextlib.contextmanager
    def job(self):
        """Root span of one job."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.job_time += time.perf_counter() - start
            self.jobs += 1
            self._stack.pop()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"levyqm.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("levyqm"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and callable(obj):
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, obj = self._saved.pop()
            setattr(ns, attr, obj)
