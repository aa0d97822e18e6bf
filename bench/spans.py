"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` wraps each named function and rebinds every module
global of the ``ldpma`` package that refers to it, because callers look
functions up in different places: ``experiments`` imports names directly,
``solve_master`` finds ``f_gradient_residual`` in its own module's globals,
and methods are found on their class. Spans (id, parent, name, start, end)
and counts stay in memory until ``write`` puts them on disk.

A span opened on a worker thread with nothing open on that thread takes as
parent the span open on the main thread, which is the one that started
the pool.
"""

import csv
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, measure=None):
        """Wrap fn so that each call records a span and a call count.

        measure(args, kwargs, result, error) may return extra counts for
        the call, keyed by metric suffix.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result, error) if measure else {}
                with tracer._lock:
                    tracer.spans.append((sid, parent, name, start, end))
                    tracer.counts[name + ".calls"] += 1
                    for key, value in extra.items():
                        tracer.counts[f"{name}.{key}"] += value

        return wrapper

    def install(self, targets):
        """Wrap each 'module.attr[.attr]' target of the ldpma package.

        targets maps the dotted name (relative to ldpma) to a measure hook
        or None.
        """
        for dotted, measure in targets.items():
            module_name, _, path = dotted.partition(".")
            owner = sys.modules["ldpma." + module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.span(dotted, original, measure)
            setattr(owner, attr, wrapped)
            if outer:
                continue  # a method: its class is the one place to look
            for name, module in list(sys.modules.items()):
                if name == "ldpma" or name.startswith("ldpma."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def self_times(self):
        """Per name: sum of span durations minus the time child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = Counter()
        for sid, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] += (end - start) - covered
        return totals

    def child_counts(self, parent_name, child_name):
        """How many child_name spans sit directly under parent_name spans."""
        parents = {sid for sid, _, name, _, _ in self.spans
                   if name == parent_name}
        return sum(1 for _, parent, name, _, _ in self.spans
                   if name == child_name and parent in parents)

    def write(self, outdir):
        """Spans to outdir/spans.csv, counts to outdir/counts.json."""
        with open(outdir / "spans.csv", "w", newline="",
                  encoding="ascii") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in self.spans:
                writer.writerow([sid, "" if parent is None else parent, name,
                                 repr(start), repr(end)])
        with open(outdir / "counts.json", "w", encoding="ascii") as handle:
            json.dump(dict(sorted(self.counts.items())), handle, indent=1)
