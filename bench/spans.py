"""Span tracing for the benchmark, installed from outside the library.

Each traced function is replaced by a wrapper that records one span per
call: name, start, end, parent span and operation id.  Names are
imported by value (``from .gleason import horner_code_side``), so the
wrapper is installed in every ``minshadow`` module whose namespace holds
the original function object, and the originals are put back on
``restore``.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable


class Tracer:
    """Wraps ``module.function`` targets of the ``minshadow`` package."""

    def __init__(self, targets: list[str]):
        self.targets = list(targets)
        # [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "minshadow" or key.startswith("minshadow.")]
        for target in self.targets:
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"minshadow.{mod_name}"),
                               fn_name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Calls nest on one thread, so child spans never overlap and the
        covered time is the sum of the direct children's durations.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """``calls``, ``total_s`` and ``self_s`` per target name."""
        stats = {t: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for t in self.targets}
        for (name, start, end, _, _), self_s in zip(self.spans,
                                                    self.self_times()):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += self_s
        return stats

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op), self_s in zip(
                    self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "self_s": self_s}) + "\n")
