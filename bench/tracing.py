"""Span recording for the traced benchmark run.

A span is one call into a layer, timed from the benchmark's side of the
boundary: name, start, end, parent span and the id of the workload run it
belongs to.  Spans stay in memory and are written out when the run ends.
A disabled tracer records nothing and wraps nothing, so the untraced run
pays for no timing calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        if not self.enabled:
            return fn

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def mean(self, name: str) -> float:
        spans = self.named(name)
        return self.total(name) / len(spans) if spans else 0.0

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called ``name`` minus the part of
        each that its child spans cover.  Children run one after another in
        this single-threaded recorder, so that part is their summed duration."""
        out = 0.0
        for s in self.named(name):
            kids = sum(c["end"] - c["start"] for c in self.spans
                       if c["parent"] == s["id"] and c["end"] is not None)
            out += (s["end"] - s["start"]) - kids
        return out


class TimedPredictor:
    """A fitted predictor whose forecasts and refits are recorded as spans.

    ``refit`` returns a wrapped predictor too, so a stream that refits
    keeps being traced.
    """

    def __init__(self, inner, tracer: Tracer, forecast_span: str):
        self.inner = inner
        self.tracer = tracer
        self.forecast_span = forecast_span

    def forecast(self, window, steps: int):
        with self.tracer.span(self.forecast_span):
            return self.inner.forecast(window, steps)

    def refit(self, history):
        with self.tracer.span("pnc.refit"):
            new = self.inner.refit(history)
        return TimedPredictor(new, self.tracer, self.forecast_span)


@contextmanager
def patched(module, replacements: dict):
    """Temporarily rebind module-level names (restored on exit)."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
