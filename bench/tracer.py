"""Run the copymax CLI with a span at every call that crosses a layer.

    python bench/tracer.py FD ARGS...

runs `copymax ARGS...` like `python -m copymax.cli ARGS...` and, when the
CLI returns, writes one JSON object to the inherited file descriptor FD:
the CLI's start and end times, the spans, per-function call counts and
work counters.  The source is not changed: after import, each function a
layer exposes is replaced, in every copymax module that refers to it, by
a wrapper.  A call opens a span only when the caller's layer differs from
the callee's; a call within a layer just counts, so hot inner functions
(t_density runs 721,240 times in classify-all --max-v 5) cost a counter, not a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("graphs", "weightings", "density", "hosts", "lp", "classify")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_maps(counts, args, kwargs, result):
    counts["hosts.maps"] += result
    counts["hosts.host_vertices"] += _arg(args, kwargs, 1, "host").n


# Work counters that need a call's arguments or result; plain call counts
# are kept for every wrapped function.
HOOKS = {
    "density.t_density_grid": lambda c, a, k, r: c.update(
        {"density.grid_points": len(_arg(a, k, 2, "qs"))}),
    "hosts.hom_count": _count_maps,
    "hosts.injective_count": _count_maps,
    "weightings.enumerate_weightings": lambda c, a, k, r: c.update(
        {"weightings.weightings": len(r)}),
    "lp.solve_lp": lambda c, a, k, r: c.update(
        {"lp.vars": len(_arg(a, k, 0, "lp").objective)}),
}


class Recorder:
    """Spans as [name, parent span index or -1 for the CLI, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = [(-1, "cli")]       # (span index, layer) of open spans
        self.calls = Counter()
        self.counts = Counter()

    def _span(self, layer, name, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append([name, stack[-1][0], time.perf_counter(), None])
        stack.append((index, layer))
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][3] = time.perf_counter()

    def wrap(self, layer, name, fn):
        calls, counts, stack = self.calls, self.counts, self.stack
        hook = HOOKS.get(name)
        span = self._span

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:      # each resume runs the body: span it
                    try:
                        if stack[-1][1] == layer:
                            item = next(it)
                        else:
                            item = span(layer, name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                result = span(layer, name, fn, args, kwargs)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every function a layer module defines that is public or
        that another copymax module imports, and rebind it everywhere."""
        modules = [m for key, m in sys.modules.items()
                   if key == "copymax" or key.startswith("copymax.")]
        for layer in LAYERS:
            module = sys.modules[f"copymax.{layer}"]
            for attr, fn in list(vars(module).items()):
                if inspect.isclass(fn) or not callable(fn) \
                        or getattr(fn, "__module__", None) != module.__name__:
                    continue
                users = [m for m in modules
                         if any(v is fn for v in vars(m).values())]
                if attr.startswith("_") and users == [module]:
                    continue
                wrapped = self.wrap(layer, f"{layer}.{attr}", fn)
                for m in users:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)


def main():
    import copymax.cli

    fd, argv = int(sys.argv[1]), sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    start = time.perf_counter()
    try:
        return copymax.cli.main(argv)
    finally:
        end = time.perf_counter()
        with os.fdopen(fd, "w") as fh:
            json.dump({"cli": [start, end], "spans": recorder.spans,
                       "calls": recorder.calls, "counts": recorder.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
