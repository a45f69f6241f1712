"""The harness-owned span recorder of the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer: name, start, end, the span that caused it, and a trace id
shared by the spans of one step or request.  They stay in memory and are
written once, as Chrome ``trace_event`` JSON, when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List


class SpanRecorder:
    """Parallel lists; :meth:`add` is the only call on a hot path."""

    def __init__(self, limit: int = 200_000) -> None:
        self.limit = limit
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.traces: List[int] = []
        self.dropped = 0

    def add(self, name: str, start: float, end: float, trace: int,
            parent: int = -1) -> int:
        """Record one finished span; returns its index (-1 once full)."""
        index = len(self.names)
        if index >= self.limit:
            self.dropped += 1
            return -1
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.traces.append(trace)
        return index

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover.

        Children may overlap each other (and stick out of the parent); the
        covered part is the union of their intervals clipped to the parent.
        """
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.names)):
            lo, hi = self.starts[index], self.ends[index]
            covered = 0.0
            reach = lo
            for child in sorted(children.get(index, ()),
                                key=self.starts.__getitem__):
                start = max(self.starts[child], reach)
                end = min(self.ends[child], hi)
                if end > start:
                    covered += end - start
                    reach = end
            result.append((hi - lo) - covered)
        return result

    def by_name(self, values: List[float]) -> Dict[str, List[float]]:
        """Group one value per span (durations, self times) by span name."""
        grouped: Dict[str, List[float]] = {}
        for name, value in zip(self.names, values):
            grouped.setdefault(name, []).append(value)
        return grouped

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def chrome_trace(self) -> dict:
        events = [
            {"name": name, "cat": "layered", "ph": "X", "ts": start * 1e6,
             "dur": max(0.0, end - start) * 1e6, "pid": 1, "tid": 1,
             "args": {"trace_id": trace, "parent": parent}}
            for name, start, end, parent, trace in zip(
                self.names, self.starts, self.ends, self.parents, self.traces)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "dropped_spans": self.dropped}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
