"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1.  Spans come only from wrappers
the benchmark installs around module-level names of the package (see
``Tracer.patched``) and from the benchmark's own ``Tracer.span`` blocks, so
the package itself carries no tracing code.  Spans stay in memory until
``Tracer.dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def patched(self, replacements):
        """Set each ``(owner, attribute, value)`` for the duration of the
        block, then restore the original attributes."""
        saved = []
        try:
            for owner, attr, value in replacements:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _nested_in_same_name(self, idx: int) -> bool:
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self) -> dict[str, tuple[float, int]]:
        """Inclusive time and call count per span name.

        A span inside another span of the same name (a traced function
        that calls another traced function under the same name) is left
        out, so no interval is counted twice.
        """
        out: dict[str, list] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            if self._nested_in_same_name(idx):
                continue
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += end - start
            acc[1] += 1
        return {name: (t, n) for name, (t, n) in out.items()}

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        for _, start, end, parent in self.spans:
            if parent in own:
                total -= end - start
        return total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
