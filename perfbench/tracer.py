"""In-memory span and counter recorder for the benchmark's traced run.

Spans are recorded around calls into the program's layers from the
benchmark's own code; nothing inside ``repro`` is instrumented. Each
span has a name, a start and end (``perf_counter`` seconds since the
tracer was created), the id of the span open when it started, and the
run id shared by every span of one run. Counters are added at the same
boundaries and are kept both per span and as run totals. Everything is
held in memory and written as one JSON file by :meth:`Tracer.write`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self._t0 = time.perf_counter()
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        sid = len(self._spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "counters": {},
        }
        self._spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` on the open span and the run."""
        self.counters[name] += n
        if self._stack:
            c = self._spans[self._stack[-1]]["counters"]
            c[name] = c.get(name, 0) + n

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self._spans
            if s["name"] == name and s["end"] is not None
        )

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans
        (children of one span never overlap: the tracer is single-threaded)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self._spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self._spans:
            if s["end"] is not None:
                out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run_id": self.run_id,
            **extra,
            "self_s": self.self_times(),
            "counters": dict(self.counters),
            "spans": self._spans,
        }
        path.write_text(json.dumps(doc, indent=1, default=str))


class NullTracer:
    """Same interface, records nothing: the untraced (gated) run."""

    def span(self, name: str):
        return nullcontext({})

    def count(self, name: str, n: float = 1) -> None:
        pass
