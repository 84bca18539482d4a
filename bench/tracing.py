"""Spans and counters recorded around the benchmark's calls into lpackets.

The library itself is not instrumented: every span wraps one call that a
benchmark task makes into a module (layer) of the package. Spans are kept
in memory and aggregated when the pass ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

TASK = "bench.task"


class NullTracer:
    """Tracing off: spans cost one reusable no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, extra: bool = False):
        return self._null

    def add(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Records (name, start_ns, end_ns, parent index, extra) per span.

    `extra` marks a step that runs only in the traced pass (a public step
    timed a second time on the same input); it is left out when the traced
    pass's throughput is compared with the untraced one.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, extra: bool = False):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0,
                  self._stack[-1] if self._stack else -1, extra]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def summary(self) -> dict:
        """Calls and busy seconds per span name, the tasks' self time (each
        task span minus its direct children) and the time of extra steps."""
        calls: Counter = Counter()
        busy_ns: defaultdict = defaultdict(int)
        child_ns: defaultdict = defaultdict(int)
        extra_ns = 0
        for name, start, end, parent, extra in self.spans:
            calls[name] += 1
            busy_ns[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
            if extra:
                extra_ns += end - start
        self_ns = sum(end - start - child_ns[k]
                      for k, (name, start, end, _, _) in enumerate(self.spans)
                      if name == TASK)
        return {
            "calls": calls,
            "busy_s": {name: ns / 1e9 for name, ns in busy_ns.items()},
            "self_s": self_ns / 1e9,
            "extra_s": extra_ns / 1e9,
        }
