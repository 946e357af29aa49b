"""Spans and counts recorded from the benchmark's own files.

Nothing here changes the program: the trace wraps calls into the public
API of ``ttlstm`` from outside. Two mechanisms feed it:

  * :class:`StackProxy` stands in for a model's ``wx``/``wh`` stack
    (``TTLinear``) and times ``prepare``, the ``apply`` closure that
    ``prepare`` returns, and ``dense_var``;
  * the benchmark wraps its own calls (``forward_lm``, ``sequence_nll``,
    ``kd_penalty``, ``backward``, ...) in :meth:`Trace.span`.

Spans are kept in memory with their phase, window and parent, and are
aggregated per window when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    phase: str
    window: int
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("trace", "index")

    def __init__(self, trace: "Trace", index: int):
        self.trace = trace
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.trace._close(self.index)
        return False


class Trace:
    """In-memory span and count store for one traced run.

    ``phase`` and ``window`` label everything recorded until they are
    changed; the benchmark sets them as it moves through set-up, the timed
    loop and the training replay.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str, int], int] = defaultdict(int)
        self.phase = "setup"
        self.window = 0
        self._stack: list[int] = []

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.phase, self.window, time.perf_counter(),
                               parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def count(self, name: str, n: int = 1):
        self.counts[(name, self.phase, self.window)] += int(n)

    def windows(self, phase: str) -> list[int]:
        seen = {s.window for s in self.spans if s.phase == phase}
        seen.update(w for (_, p, w) in self.counts if p == phase)
        return sorted(seen)

    def per_window_seconds(self, name: str, phase: str) -> list[float]:
        """Total duration of ``name`` spans in each window of ``phase``."""
        sums = {w: 0.0 for w in self.windows(phase)}
        for s in self.spans:
            if s.name == name and s.phase == phase:
                sums[s.window] += s.seconds
        return list(sums.values())

    def per_window_self_seconds(self, name: str, phase: str) -> list[float]:
        """Like :meth:`per_window_seconds`, minus the time of direct children."""
        sums = {w: 0.0 for w in self.windows(phase)}
        index_of = {}
        for i, s in enumerate(self.spans):
            if s.name == name and s.phase == phase:
                sums[s.window] += s.seconds
                index_of[i] = s.window
        for s in self.spans:
            if s.parent in index_of:
                sums[index_of[s.parent]] -= s.seconds
        return list(sums.values())

    def per_window_count(self, name: str, phase: str) -> list[int]:
        return [self.counts.get((name, phase, w), 0) for w in self.windows(phase)]

    def median_ms(self, name: str, phase: str, self_time: bool = False) -> float:
        values = (self.per_window_self_seconds if self_time else self.per_window_seconds)(
            name, phase)
        return 1e3 * statistics.median(values)

    def median_count(self, name: str, phase: str) -> float:
        return statistics.median(self.per_window_count(name, phase))


class StackProxy:
    """Times and counts the calls made into one ``TTLinear`` stack.

    Every attribute other than ``prepare`` and ``dense_var`` is the wrapped
    stack's own, so the model keeps working unchanged.
    """

    def __init__(self, inner, name: str, trace: Trace):
        self._inner = inner
        self._name = name
        self._trace = trace

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def prepare(self, tape):
        trace, name = self._trace, self._name
        trace.count(f"{name}.prepare_calls")
        with trace.span("nn.prepare"):
            apply = self._inner.prepare(tape)
        span_name = f"nn.{name}_apply"

        def timed_apply(x):
            trace.count("nn.apply_calls")
            trace.count(f"{name}.rows", x.shape[0])
            with trace.span(span_name):
                return apply(x)

        return timed_apply

    def dense_var(self, tape):
        self._trace.count("nn.dense_var_calls")
        with self._trace.span("nn.dense_var"):
            return self._inner.dense_var(tape)


class proxied:
    """Context manager that installs :class:`StackProxy` on a model's two
    stacks and restores the originals on exit."""

    def __init__(self, model, trace: Trace | None):
        self.model = model
        self.trace = trace

    def __enter__(self):
        if self.trace is not None:
            self.saved = (self.model.wx, self.model.wh)
            self.model.wx = StackProxy(self.model.wx, "wx", self.trace)
            self.model.wh = StackProxy(self.model.wh, "wh", self.trace)
        return self.model

    def __exit__(self, *exc):
        if self.trace is not None:
            self.model.wx, self.model.wh = self.saved
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NO_SPAN = _NoSpan()


def span(trace: Trace | None, name: str):
    """``trace.span(name)``, or a no-op when tracing is off."""
    return NO_SPAN if trace is None else trace.span(name)
