"""Spans around calls into convexmatch's public names, from outside it.

``Tracer.patched()`` replaces each traced function, in every convexmatch
module that binds it, by a wrapper that records a span (name, start,
end, parent); on exit the originals come back.  The hot predicate
``edges_cross`` is not wrapped: its call counts run to millions.
``Symmetry.apply`` is only counted, for the same reason.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (module, public name, span name)
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "atlas", "cli.atlas"),
    ("compose", "compose", "compose.compose"),
    ("compose", "window_partition", "compose.window_partition"),
    ("search", "find_with_k", "search.find_with_k"),
    ("search", "spectrum", "search.spectrum"),
    ("search", "max_crossing", "search.max_crossing"),
    ("search", "minmax_sweep", "search.minmax_sweep"),
    ("search", "enumerate_colorings", "search.enumerate_colorings"),
    ("construct", "lemma3_witness", "construct.lemma3_witness"),
    ("construct", "fourblock_max_matching", "construct.fourblock_max_matching"),
    ("construct", "plane_matching", "construct.plane_matching"),
    ("core", "crossing_number", "core.crossing_number"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if name == "search.enumerate_colorings":
                counts["search.orbits"] += len(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "convexmatch" or key.startswith("convexmatch.")]
        undo = []
        for module, attr, name in TRACED:
            original = getattr(sys.modules["convexmatch." + module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        symmetry = sys.modules["convexmatch.core"].Symmetry
        apply = symmetry.apply
        counts = self.counts

        def counted_apply(sym, coloring):
            counts["core.symmetry_apply.calls"] += 1
            return apply(sym, coloring)

        symmetry.apply = counted_apply
        try:
            yield self
        finally:
            symmetry.apply = apply
            for mod, key, original in undo:
                setattr(mod, key, original)

    def totals(self) -> dict[str, float]:
        """Milliseconds per span name (``.ms``) and without the time of
        child spans (``.self_ms``), plus the counts."""
        out: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, children):
            out[name + ".ms"] += (end - start) * 1000
            out[name + ".self_ms"] += (end - start - inner) * 1000
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def dump(self) -> list[list]:
        """Spans with times in ms from the first span's start."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [[name, (start - origin) * 1000, (end - origin) * 1000, parent]
                for name, start, end, parent in self.spans]
