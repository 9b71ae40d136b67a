"""Spans and counts around the calls into rispeb's public functions.

rispeb's modules call each other through the names they imported
(allocation.py calls its own binding of build_pathset, fim.py its own
delay_kernel), so a function is traced by replacing every binding of it
in every loaded rispeb module, not only the one in its defining module.
Nothing in the package itself changes; leaving the `with` block puts
every original binding back.

Self time is a span's duration minus the time its child spans cover.
Counts and self times accumulate in memory; spans themselves are kept
only while `recording` is on, and are written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("config", "cli", "geometry", "waveform", "channel", "fim",
          "allocation", "sweep")


def public_functions(module):
    """Public functions defined in `module` itself, by name."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def rebind(original, replacement):
    """Point every rispeb binding of `original` at `replacement`.

    Returns the (module, name, original) triples changed, for restore().
    """
    changed = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "rispeb"
                                  or module_name.startswith("rispeb.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name, original))
    return changed


def restore(changed):
    for module, name, original in changed:
        setattr(module, name, original)


class Tracer:
    """Wraps the public functions of LAYERS; a context manager."""

    def __init__(self, span_limit: int):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.kernel_entries = 0
        self.csv_bytes = 0
        self.patterns_in_select = 0
        self.recording = False
        self.span_limit = span_limit
        self.spans = []  # (id, parent id or -1, name, start, end)
        self._stack = []  # [span id, name, child seconds]
        self._next_id = 0
        self._changed = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.kernel_entries = 0
        self.csv_bytes = 0
        self.patterns_in_select = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "kernel_entries": self.kernel_entries,
            "csv_bytes": self.csv_bytes,
            "patterns_in_select": self.patterns_in_select,
        }

    def _wrap(self, name, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                self._count(name, args, parent)
                if self.recording and len(self.spans) < self.span_limit:
                    self.spans.append((span_id, -1 if parent is None else parent[0],
                                       name, start, end))

        return traced

    def _count(self, name, args, parent):
        if name == "waveform.delay_kernel":
            cfg, delta = args[0], args[1]
            size = getattr(delta, "size", 1)
            self.kernel_entries += int(size) * cfg.subcarrier_count
        elif name in ("sweep.write_map_csv", "sweep.write_cdf_csv"):
            self.csv_bytes += os.path.getsize(args[1])
        elif name == "allocation.build_allocation" and parent is not None \
                and parent[1] == "allocation.select_ris":
            self.patterns_in_select += 1

    def __enter__(self):
        for layer in LAYERS:
            module = sys.modules[f"rispeb.{layer}"]
            for fname, fn in public_functions(module).items():
                self._changed += rebind(fn, self._wrap(f"{layer}.{fname}", fn))
        return self

    def __exit__(self, *exc):
        restore(self._changed)
        self._changed = []
        return False
