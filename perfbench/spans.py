"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start and end (``time.perf_counter`` seconds), the
span that encloses it, a request id shared by every span of one request
(a hunt try or one trace file) and the units of work it counted.  Spans
stay in memory until :meth:`Tracer.write` puts them in a JSON-lines
file at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end",
                 "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request: Optional[str]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start,
                "end": self.end, "counts": self.counts}


class _Open:
    """Context manager for one span; cheaper than a generator-based
    ``contextlib.contextmanager`` on the hot path."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, request: Optional[str] = None) -> _Open:
        """Open a span nested in the innermost open one; a span without
        its own *request* id inherits its parent's."""
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(len(self.spans), name,
                      parent.id if parent is not None else None, request)
        self.spans.append(record)
        self._stack.append(record)
        return _Open(self, record)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_json()) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus its child spans' durations.  The
    tracer's spans nest strictly and a span's children run one after
    another, so the children never overlap."""
    children: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record.parent is not None:
            children[record.parent] += record.duration
    return {record.id: record.duration - children[record.id]
            for record in spans}
