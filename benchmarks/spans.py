"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of the ordmatch modules at run time
(replacing the attribute that callers look up), records one span per call, and
puts every original back on exit.  A name that no longer exists is noted as
absent instead of failing, so a refactor that moves a function degrades the
trace rather than breaking it.

A span is (layer, start, end, parent, run): start and end come from
time.perf_counter, parent is the index of the enclosing span (-1 at the top),
and run is the benchmark round the span belongs to.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.absent: set[str] = set()
        self.run = 0
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.add(f"{owner.__name__}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.run)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def wrap_public_functions(self, module, layer: str) -> None:
        """Wrap every public function defined in `module` itself."""
        for attr, fn in vars(module).copy().items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                self.wrap(module, attr, layer)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self, run: int, install):
        """Trace round `run`: `install(self)` wraps the entry points, which are
        restored when the block exits, whether or not it raised."""
        self.run = run
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("layer,start,end,parent,run\n")
            for layer, start, end, parent, run in self.spans:
                f.write(f"{layer},{start!r},{end!r},{parent},{run}\n")


class LayerStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


def layer_stats(spans: list) -> dict[int, dict[str, LayerStats]]:
    """Per round and layer: call count, busy time (spans not nested inside a
    span of the same layer) and self time (duration minus the time its direct
    children cover)."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, LayerStats]] = defaultdict(lambda: defaultdict(LayerStats))
    for i, (layer, start, end, parent, run) in enumerate(spans):
        st = out[run][layer]
        st.calls += 1
        st.self_time += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            st.busy += end - start
    return out


def durations(spans: list, layer: str) -> list[tuple[int, float]]:
    """(run, seconds) of every span of one layer."""
    return [(run, end - start) for name, start, end, _, run in spans if name == layer]
