"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` swaps a public
function for a wrapper in every ``casebias`` module namespace that holds it,
so calls made by the benchmark and calls between package modules are both
seen.  Nothing under ``src/`` changes.  Spans stay in memory and are written
once, by ``dump``, when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

# Span record layout: [name, start_ns, end_ns, parent_index, op_id, counts].
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id: Optional[int] = None
        self._stack: list = []
        self._patched: list = []

    def call(self, name: str, fn: Callable, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, self.op_id, None]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
        if counter is not None:
            record[COUNTS] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def install(self, module, attr: str, name: str, counter=None) -> None:
        """Trace ``module.attr`` wherever a loaded casebias module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, counter)
        targets = [module] + [
            mod for key, mod in sys.modules.items()
            if key == "casebias" or key.startswith("casebias.")
        ]
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "counts": counts,
                }) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover (ns).

    Spans come from one thread and nest, so children never overlap.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
