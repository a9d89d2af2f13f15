"""Spans and counts for the traced benchmark run.

The traced run replaces each public function of the program with a wrapper
in every module namespace that holds it, so the wrapper runs wherever a
caller looks the function up (``mal2gcn.train.batch_loss_and_gradients``,
``mal2gcn.attack.prepare_fcg``, the benchmark's own ``gcn.score_prepared``).
The untraced run never installs a wrapper.  Spans stay in memory until the
run writes them out.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Records spans (id, parent, name, start, end, phase, op) and named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.phase = "other"  # "setup", "measure" or "other"; counts are kept in "measure" only
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, name, time.perf_counter_ns(), None, self.phase, self.op])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self._stack.pop()
        self.spans[span_id][4] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; a top-level one starts a new op."""
        if not self._stack:
            self.op += 1
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call; `count(counts, args, kwargs, result)` adds counts."""

        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if count is not None and self.phase == "measure":
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, original, name: str, namespaces, count=None) -> int:
        """Replace `original` by its traced wrapper in every namespace that holds it."""
        wrapper = self.wrap(name, original, count)
        patched = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))
                    patched += 1
        return patched

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for span_id, parent, name, start, end, phase, op in self.spans:
                record = {"id": span_id, "parent": parent, "name": name, "start_ns": start,
                          "end_ns": end, "phase": phase, "op": op, "run_id": self.run_id}
                fh.write(json.dumps(record) + "\n")


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of [start, end) covered by the union of `intervals`."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children: dict[int, list] = {}
    for span_id, parent, _name, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered_ns(start, end, children.get(span_id, ()))
        for span_id, _parent, _name, start, end, *_ in spans
    }
