"""Spans for the traced run, kept in memory and written out when the run ends.

A span is ``{"id", "name", "start", "end", "parent", "op"}``: ``name`` is
the layer, ``parent`` the id of the enclosing span (``None`` for the
operation's root span) and ``op`` one id per operation (a CLI command, an
ingested document, a replayed store call).  Times are
``time.perf_counter`` seconds, which on Linux is the system-wide
monotonic clock, so spans from worker processes line up with the
parent's.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """An in-memory span recorder (one per process)."""

    def __init__(self, prefix: str = "") -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._prefix = prefix
        self._stack: list[str] = []
        self._op: str | None = None

    def _new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    @contextmanager
    def op(self, name: str, op_id: str):
        """A root span opening the operation ``op_id``."""
        saved = self._op
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = saved

    @contextmanager
    def span(self, name: str):
        """Time a block as one span of the current operation."""
        span_id = self._new_id()
        record = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, op: str, parent: str | None = None) -> str:
        """Record a span timed elsewhere (e.g. a process's launch to exit)."""
        span_id = self._new_id()
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
        )
        return span_id

    def extend(self, spans: list[dict], parent: str, op: str) -> None:
        """Adopt a worker's spans; its root spans hang under ``parent`` in ``op``."""
        for span in spans:
            adopted = dict(span)
            adopted["op"] = op
            if adopted["parent"] is None:
                adopted["parent"] = parent
            self.spans.append(adopted)

    def dump(self, path: Path) -> None:
        """Write every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans: list[dict], ops: set[str]) -> dict[str, float]:
    """Per layer name: total self time (duration minus child spans) in seconds,
    over the spans of the operations in ``ops``."""
    chosen = [s for s in spans if s["op"] in ops]
    covered: dict[str, float] = {}
    for span in chosen:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in chosen:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
